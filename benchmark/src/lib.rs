//! The end-to-end benchmark of `BENCHMARK.json`: four workloads over the
//! CloudViews reproduction, end-to-end metrics from untraced runs and a
//! per-layer budget from a separate traced run. See `README.md`.
//!
//! Everything here drives the system through its public API from outside;
//! no file outside this directory changes with it.

pub mod calib;
pub mod replay;
pub mod report;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod util;
pub mod workloads;
