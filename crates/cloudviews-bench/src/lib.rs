//! Experiment harness for the CloudViews reproduction.
//!
//! Every table and figure in the paper's evaluation has a generator here;
//! the `figures` binary dispatches to them and prints the same series the
//! paper plots (see EXPERIMENTS.md for the paper-vs-measured record):
//!
//! | paper      | function                      |
//! |------------|-------------------------------|
//! | Figure 1   | [`experiments::fig1`]         |
//! | Figure 2a  | [`experiments::fig2a`]        |
//! | Figure 2b  | [`experiments::fig2b`]        |
//! | Figure 3   | [`experiments::fig3`]         |
//! | Figure 4a  | [`experiments::fig4a`]        |
//! | Figure 4b-d| [`experiments::fig4bcd`]      |
//! | Figure 5   | [`experiments::fig5`]         |
//! | Figure 11  | [`experiments::fig11_12`]     |
//! | Figure 12  | [`experiments::fig11_12`]     |
//! | Figure 13  | [`experiments::fig13`]        |
//! | §7.3       | [`experiments::overheads`]    |
//! | ablations  | [`experiments::ablations`]    |
//!
//! [`compile_only`] synthesizes workload-repository records from
//! compile-time plans alone (the workload-shape figures need signatures,
//! not execution); [`prod32`] is the 32-job production workload of
//! Section 7.1.

pub mod compile_only;
pub mod experiments;
pub mod prod32;
