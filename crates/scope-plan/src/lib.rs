//! Query-plan representation for the SCOPE-like analytics engine.
//!
//! SCOPE jobs are DAGs of relational and user-defined operators. This crate
//! defines everything the rest of the workspace manipulates:
//!
//! * [`types`] — the value model ([`types::Value`], [`types::DataType`]) with
//!   the total ordering and hashing required by sort, group-by, and
//!   partitioning keys.
//! * [`schema`] — named, typed columns.
//! * [`expr`] — scalar and aggregate expressions, including
//!   [`expr::Expr::RecurringParam`], the plan-level marker for values that
//!   change between recurring instances (dates, run ids) and that signature
//!   normalization strips (paper Section 3).
//! * [`interval`] — conservative per-column interval extraction from
//!   conjunctive predicates, the foundation of the subsumption cascade's
//!   predicate-containment checks.
//! * [`udo`] — the synthetic library of deterministic user-defined operators
//!   (processors, reducers, combiners) standing in for SCOPE's C# user code.
//! * [`props`] — output physical properties (partitioning, sort order), the
//!   raw material for CloudViews' view physical design (paper Section 5.3).
//! * [`op`] — the operator algebra. Every one of the 26 operator kinds in the
//!   paper's Figure 4(a) is represented with real execution semantics.
//! * [`graph`] — the plan DAG ([`graph::QueryGraph`]), validation, traversal,
//!   and subgraph utilities.
//! * [`builder`] — a fluent API for assembling plans in workloads and tests.

pub mod builder;
pub mod expr;
pub mod graph;
pub mod interval;
pub mod op;
pub mod props;
pub mod schema;
pub mod types;
pub mod udo;

pub use builder::PlanBuilder;
pub use expr::{
    eval_binary, eval_func, eval_unary, AggExpr, AggFunc, BinOp, Expr, NamedExpr, ScalarFunc,
    UnaryOp,
};
pub use graph::{PlanNode, QueryGraph};
pub use interval::{column_intervals, implies, ColumnIntervals, Interval};
pub use op::{normalize_stream_name, normalize_stream_symbol};
pub use op::{JoinImpl, JoinKind, OpKind, Operator, ScanKind};
pub use props::{shared_props, Partitioning, PhysicalProps, SortDir, SortKey, SortOrder};
pub use schema::{Column, Schema};
pub use types::{Cell, DataType, Value};
pub use udo::{Udo, UdoKind};
