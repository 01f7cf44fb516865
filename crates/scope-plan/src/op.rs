//! The operator algebra.
//!
//! Every operator kind the paper's Figure 4(a) reports overlap for is
//! represented here with real execution semantics (execution itself lives in
//! `scope-engine`; this module defines structure, schemas, arity, delivered
//! physical properties, and per-node signature content).

use scope_common::hash::SipHasher24;
use scope_common::ids::DatasetId;
use scope_common::intern::Symbol;
use scope_common::{Result, ScopeError};

use crate::expr::{AggExpr, Expr, HashMode, NamedExpr};
use crate::props::{Partitioning, PhysicalProps, SortOrder};
use crate::schema::{Column, Schema};
use crate::types::DataType;
use crate::udo::Udo;

/// The 26 operator kinds of the paper's Figure 4(a), used for the
/// operator-wise overlap breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpKind {
    /// Physical sort.
    Sort,
    /// Shuffle / repartition.
    Exchange,
    /// Range-restricted scan.
    Range,
    /// Compute scalar (projection with computed columns).
    Scalar,
    /// Column restriction / remap (rename, reorder, drop).
    RestrRemap,
    /// Row filter.
    Filter,
    /// Hash-based group-by aggregate.
    HashGbAgg,
    /// Stream (sorted) group-by aggregate.
    StreamGbAgg,
    /// User-defined row processor.
    Process,
    /// Intra-job materialization / sharing point.
    Spool,
    /// Sort-merge join.
    MergeJoin,
    /// Sequence of statements (output of the last child).
    Sequence,
    /// Hash join.
    HashJoin,
    /// Bag union.
    UnionAll,
    /// User-defined binary combiner.
    Combine,
    /// Read of a virtual dataset (materialized view or shared intermediate).
    VirtualDataset,
    /// User-defined group reducer.
    Reduce,
    /// User-defined extractor (scan of unstructured data through user code).
    Extract,
    /// Per-group apply of a user-defined operation.
    GbApply,
    /// Top-N.
    Top,
    /// Nested-loops join.
    LoopsJoin,
    /// Job output statement.
    Output,
    /// Plain table scan.
    TableScan,
    /// Window function.
    Window,
    /// No-op pass-through.
    Nop,
    /// Structured stream write (like Output but producing a stored stream).
    Write,
}

impl OpKind {
    /// Stable lowercase name used in signatures and reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Sort => "Sort",
            OpKind::Exchange => "Exchange",
            OpKind::Range => "Range",
            OpKind::Scalar => "Scalar",
            OpKind::RestrRemap => "RestrRemap",
            OpKind::Filter => "Filter",
            OpKind::HashGbAgg => "HashGbAgg",
            OpKind::StreamGbAgg => "StreamGbAgg",
            OpKind::Process => "Process",
            OpKind::Spool => "Spool",
            OpKind::MergeJoin => "MergeJoin",
            OpKind::Sequence => "Sequence",
            OpKind::HashJoin => "HashJoin",
            OpKind::UnionAll => "UnionAll",
            OpKind::Combine => "Combine",
            OpKind::VirtualDataset => "VirtualDataset",
            OpKind::Reduce => "Reduce",
            OpKind::Extract => "Extract",
            OpKind::GbApply => "GbApply",
            OpKind::Top => "Top",
            OpKind::LoopsJoin => "LoopsJoin",
            OpKind::Output => "Output",
            OpKind::TableScan => "TableScan",
            OpKind::Window => "Window",
            OpKind::Nop => "NOP",
            OpKind::Write => "Write",
        }
    }

    /// All 26 kinds in the paper's Figure 4(a) x-axis order.
    pub const ALL: [OpKind; 26] = [
        OpKind::Sort,
        OpKind::Exchange,
        OpKind::Range,
        OpKind::Scalar,
        OpKind::RestrRemap,
        OpKind::Filter,
        OpKind::HashGbAgg,
        OpKind::StreamGbAgg,
        OpKind::Process,
        OpKind::Spool,
        OpKind::MergeJoin,
        OpKind::Sequence,
        OpKind::HashJoin,
        OpKind::UnionAll,
        OpKind::Combine,
        OpKind::VirtualDataset,
        OpKind::Reduce,
        OpKind::Extract,
        OpKind::GbApply,
        OpKind::Top,
        OpKind::LoopsJoin,
        OpKind::Output,
        OpKind::TableScan,
        OpKind::Window,
        OpKind::Nop,
        OpKind::Write,
    ];
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a leaf reads its data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScanKind {
    /// Plain structured-stream scan.
    Table,
    /// Range-restricted scan (predicate pushed into the scan).
    Range,
    /// Extraction of unstructured data through a user-defined extractor.
    Extract,
}

/// Join semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    LeftOuter,
    /// Left semi join (left row kept if any match; right columns dropped).
    LeftSemi,
}

/// Join implementation chosen by the optimizer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinImpl {
    /// Build/probe hash join.
    Hash,
    /// Sort-merge join (requires both sides sorted on the keys).
    Merge,
    /// Nested loops (only sensible for tiny inputs or non-equi joins).
    Loops,
}

/// Aggregate implementation chosen by the optimizer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggImpl {
    /// Hash aggregation.
    Hash,
    /// Stream aggregation (requires input sorted on the keys).
    Stream,
}

/// Window functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WindowFunc {
    /// 1-based dense position within the partition by the order.
    RowNumber,
    /// Rank with gaps.
    Rank,
    /// Running sum of a column.
    RunningSum(usize),
}

impl WindowFunc {
    fn name(&self) -> String {
        match self {
            WindowFunc::RowNumber => "row_number".into(),
            WindowFunc::Rank => "rank".into(),
            WindowFunc::RunningSum(c) => format!("running_sum({c})"),
        }
    }
}

/// A plan operator. Children live in the owning [`crate::graph::PlanNode`];
/// the operator defines its expected arity.
#[derive(Clone, PartialEq, Debug)]
pub enum Operator {
    /// Leaf: scan of a stored dataset.
    ///
    /// `template_name` is the *normalized* stream name (e.g.
    /// `"clicks/<date>/log.ss"`), stable across recurring instances;
    /// `dataset` is the concrete input GUID of this instance and is part of
    /// the precise signature only.
    Get {
        /// Concrete input GUID for this recurring instance.
        dataset: DatasetId,
        /// Normalized stream name, stable across instances (interned: the
        /// same template recurring daily shares one allocation).
        template_name: Symbol,
        /// The stored schema.
        schema: Schema,
        /// Scan flavour (plain, range-restricted, extractor).
        kind: ScanKind,
        /// Optional residual predicate pushed into the scan (for
        /// `ScanKind::Range` this is the range condition).
        predicate: Option<Expr>,
        /// Extractor user code for `ScanKind::Extract`.
        extractor: Option<Udo>,
    },
    /// Leaf: read of a materialized view / virtual dataset by signature.
    ViewGet {
        /// Precise signature of the materialized computation being read.
        view_sig: scope_common::Sig128,
        /// The view's schema.
        schema: Schema,
        /// The physical design the view was stored with.
        props: PhysicalProps,
    },
    /// Row filter.
    Filter {
        /// Predicate; rows where it is not `true` are dropped.
        predicate: Expr,
    },
    /// Projection with computed columns (ComputeScalar).
    Project {
        /// Output columns.
        exprs: Vec<NamedExpr>,
    },
    /// Column restriction/remap: reorder, drop, rename (RestrRemap).
    Remap {
        /// Input column positions to keep, in output order.
        cols: Vec<usize>,
        /// New names (same length as `cols`).
        names: Vec<String>,
    },
    /// Physical sort.
    Sort {
        /// Sort keys.
        order: SortOrder,
    },
    /// Shuffle/repartition.
    Exchange {
        /// Target distribution.
        scheme: Partitioning,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Grouping column positions.
        keys: Vec<usize>,
        /// Aggregate outputs.
        aggs: Vec<AggExpr>,
        /// Implementation (Hash or Stream).
        implementation: AggImpl,
    },
    /// Top-N by an order.
    Top {
        /// Number of rows kept.
        n: usize,
        /// Order defining "top".
        order: SortOrder,
    },
    /// Window function over partitions.
    Window {
        /// The window function.
        func: WindowFunc,
        /// Partitioning columns.
        partition: Vec<usize>,
        /// In-partition order.
        order: SortOrder,
    },
    /// User-defined row processor.
    Process {
        /// The user code.
        udo: Udo,
    },
    /// User-defined reducer over groups.
    Reduce {
        /// The user code.
        udo: Udo,
        /// Grouping columns.
        keys: Vec<usize>,
    },
    /// Per-group apply (GbApply) of a user-defined operation.
    GbApply {
        /// The user code applied per group.
        udo: Udo,
        /// Grouping columns.
        keys: Vec<usize>,
    },
    /// Intra-job sharing point (consumed by multiple parents).
    Spool,
    /// Pass-through.
    Nop,
    /// Statement sequence: children execute in order; output is the last
    /// child's output.
    Sequence,
    /// Join of two inputs on equality keys.
    Join {
        /// Semantics.
        kind: JoinKind,
        /// Implementation.
        implementation: JoinImpl,
        /// Left key columns.
        left_keys: Vec<usize>,
        /// Right key columns.
        right_keys: Vec<usize>,
    },
    /// Bag union of same-typed inputs.
    UnionAll,
    /// User-defined binary combiner.
    Combine {
        /// The user code.
        udo: Udo,
    },
    /// Job output: terminal sink publishing rows under a user-visible name.
    Output {
        /// Output stream name (interned).
        name: Symbol,
        /// True for `Write` (stored structured stream), false for plain
        /// `Output`.
        stored: bool,
    },
}

impl Operator {
    /// The Figure 4(a) operator kind of this node.
    pub fn kind(&self) -> OpKind {
        match self {
            Operator::Get { kind, .. } => match kind {
                ScanKind::Table => OpKind::TableScan,
                ScanKind::Range => OpKind::Range,
                ScanKind::Extract => OpKind::Extract,
            },
            Operator::ViewGet { .. } => OpKind::VirtualDataset,
            Operator::Filter { .. } => OpKind::Filter,
            Operator::Project { .. } => OpKind::Scalar,
            Operator::Remap { .. } => OpKind::RestrRemap,
            Operator::Sort { .. } => OpKind::Sort,
            Operator::Exchange { .. } => OpKind::Exchange,
            Operator::Aggregate { implementation, .. } => match implementation {
                AggImpl::Hash => OpKind::HashGbAgg,
                AggImpl::Stream => OpKind::StreamGbAgg,
            },
            Operator::Top { .. } => OpKind::Top,
            Operator::Window { .. } => OpKind::Window,
            Operator::Process { .. } => OpKind::Process,
            Operator::Reduce { .. } => OpKind::Reduce,
            Operator::GbApply { .. } => OpKind::GbApply,
            Operator::Spool => OpKind::Spool,
            Operator::Nop => OpKind::Nop,
            Operator::Sequence => OpKind::Sequence,
            Operator::Join { implementation, .. } => match implementation {
                JoinImpl::Hash => OpKind::HashJoin,
                JoinImpl::Merge => OpKind::MergeJoin,
                JoinImpl::Loops => OpKind::LoopsJoin,
            },
            Operator::UnionAll => OpKind::UnionAll,
            Operator::Combine { .. } => OpKind::Combine,
            Operator::Output { stored, .. } => {
                if *stored {
                    OpKind::Write
                } else {
                    OpKind::Output
                }
            }
        }
    }

    /// Expected number of children: `(min, max)`; `usize::MAX` = unbounded.
    pub fn arity(&self) -> (usize, usize) {
        match self {
            Operator::Get { .. } | Operator::ViewGet { .. } => (0, 0),
            Operator::Join { .. } | Operator::Combine { .. } => (2, 2),
            Operator::UnionAll | Operator::Sequence => (1, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Derives the output schema from the input schemas.
    pub fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
        let one = || -> Result<&Schema> {
            inputs
                .first()
                .ok_or_else(|| ScopeError::InvalidPlan(format!("{} needs an input", self.kind())))
        };
        match self {
            Operator::Get {
                schema,
                kind,
                extractor,
                ..
            } => {
                if *kind == ScanKind::Extract {
                    let udo = extractor.as_ref().ok_or_else(|| {
                        ScopeError::InvalidPlan("Extract scan without extractor".into())
                    })?;
                    udo.output_schema(schema)
                } else {
                    Ok(schema.clone())
                }
            }
            Operator::ViewGet { schema, .. } => Ok(schema.clone()),
            Operator::Filter { predicate } => {
                let s = one()?;
                // Validate column references early.
                let mut cols = Vec::new();
                predicate.referenced_columns(&mut cols);
                for c in cols {
                    s.column(c)?;
                }
                Ok(s.clone())
            }
            Operator::Project { exprs } => {
                let s = one()?;
                let cols: Result<Vec<Column>> = exprs
                    .iter()
                    .map(|ne| Ok(Column::new(ne.name.clone(), ne.expr.infer_type(s)?)))
                    .collect();
                Schema::new(cols?)
            }
            Operator::Remap { cols, names } => {
                let s = one()?;
                if cols.len() != names.len() {
                    return Err(ScopeError::InvalidPlan(
                        "Remap cols/names length mismatch".into(),
                    ));
                }
                let out: Result<Vec<Column>> = cols
                    .iter()
                    .zip(names)
                    .map(|(&c, n)| Ok(Column::new(n.clone(), s.column(c)?.dtype)))
                    .collect();
                Schema::new(out?)
            }
            Operator::Sort { order } | Operator::Top { order, .. } => {
                let s = one()?;
                for k in &order.0 {
                    s.column(k.col)?;
                }
                Ok(s.clone())
            }
            Operator::Exchange { scheme } => {
                let s = one()?;
                if let Partitioning::Hash { cols, .. } = scheme {
                    for c in cols {
                        s.column(*c)?;
                    }
                }
                if let Partitioning::Range { col, .. } = scheme {
                    s.column(*col)?;
                }
                Ok(s.clone())
            }
            Operator::Aggregate { keys, aggs, .. } => {
                let s = one()?;
                let mut cols = Vec::with_capacity(keys.len() + aggs.len());
                for &k in keys {
                    cols.push(s.column(k)?.clone());
                }
                for a in aggs {
                    let in_t = if a.func == crate::expr::AggFunc::Count {
                        DataType::Int
                    } else {
                        s.column(a.input)?.dtype
                    };
                    cols.push(Column::new(a.name.clone(), a.func.output_type(in_t)));
                }
                Schema::new(cols)
            }
            Operator::Window {
                func,
                partition,
                order,
            } => {
                let s = one()?;
                for &c in partition {
                    s.column(c)?;
                }
                for k in &order.0 {
                    s.column(k.col)?;
                }
                let mut cols = s.columns().to_vec();
                let (name, dtype) = match func {
                    WindowFunc::RowNumber => ("row_number", DataType::Int),
                    WindowFunc::Rank => ("rank", DataType::Int),
                    WindowFunc::RunningSum(c) => {
                        s.column(*c)?;
                        ("running_sum", DataType::Float)
                    }
                };
                cols.push(Column::new(name, dtype));
                Schema::new(cols)
            }
            Operator::Process { udo } => udo.output_schema(one()?),
            // The combiner appends the right child's rows to the left's, so
            // both must have the left's column types.
            Operator::Combine { udo } => match inputs {
                [left, right] if left.types_match(right) => udo.output_schema(left),
                [left, right] => Err(ScopeError::InvalidPlan(format!(
                    "Combine type mismatch: {left} vs {right}"
                ))),
                _ => Err(ScopeError::InvalidPlan("Combine needs two inputs".into())),
            },
            Operator::Reduce { udo, keys } | Operator::GbApply { udo, keys } => {
                let s = one()?;
                for &k in keys {
                    s.column(k)?;
                }
                udo.output_schema(s)
            }
            Operator::Spool | Operator::Nop => Ok(one()?.clone()),
            Operator::Sequence => Ok(inputs
                .last()
                .ok_or_else(|| ScopeError::InvalidPlan("Sequence needs children".into()))?
                .clone()),
            Operator::Join {
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                if inputs.len() != 2 {
                    return Err(ScopeError::InvalidPlan("Join needs two inputs".into()));
                }
                if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                    return Err(ScopeError::InvalidPlan(
                        "Join needs matching non-empty key lists".into(),
                    ));
                }
                for &k in left_keys {
                    inputs[0].column(k)?;
                }
                for &k in right_keys {
                    inputs[1].column(k)?;
                }
                match kind {
                    JoinKind::LeftSemi => Ok(inputs[0].clone()),
                    _ => Ok(inputs[0].concat(&inputs[1])),
                }
            }
            Operator::UnionAll => {
                let first = one()?;
                for s in &inputs[1..] {
                    if !first.types_match(s) {
                        return Err(ScopeError::InvalidPlan(format!(
                            "UnionAll type mismatch: {first} vs {s}"
                        )));
                    }
                }
                Ok(first.clone())
            }
            Operator::Output { .. } => Ok(one()?.clone()),
        }
    }

    /// Physical properties *delivered* by this operator, given the
    /// properties delivered by its inputs.
    ///
    /// This is the property-propagation half of the optimizer; Section 5.3
    /// of the paper mines these to pick view physical designs.
    pub fn delivered_props(&self, inputs: &[PhysicalProps]) -> PhysicalProps {
        let input = inputs.first().cloned().unwrap_or_default();
        match self {
            // Scans deliver whatever the store gave (callers override when
            // the stored stream has a known design).
            Operator::Get { .. } => PhysicalProps::any(),
            Operator::ViewGet { props, .. } => props.clone(),
            // Exchange replaces the distribution and destroys order.
            Operator::Exchange { scheme } => PhysicalProps {
                partitioning: scheme.clone(),
                sort: SortOrder::none(),
            },
            // Sort sets the order, keeps distribution.
            Operator::Sort { order } => PhysicalProps {
                partitioning: input.partitioning,
                sort: order.clone(),
            },
            // Top delivers its order (we implement it as sorted output).
            Operator::Top { order, .. } => PhysicalProps {
                partitioning: input.partitioning,
                sort: order.clone(),
            },
            // Filters/pass-throughs preserve everything.
            Operator::Filter { .. } | Operator::Spool | Operator::Nop => input,
            // Aggregation changes the output schema to (keys..., aggs...):
            // positional properties on the grouping keys survive, remapped
            // to their output positions; anything else is lost.
            Operator::Aggregate {
                keys,
                implementation,
                ..
            } => {
                let remap = |c: &usize| keys.iter().position(|k| k == c);
                let partitioning = remap_partitioning(&input.partitioning, remap);
                let sort = match implementation {
                    AggImpl::Stream => remap_sort(&input.sort, remap),
                    AggImpl::Hash => SortOrder::none(),
                };
                PhysicalProps { partitioning, sort }
            }
            // Join output is (left columns..., right columns...): left-side
            // positions are preserved verbatim. Merge join also preserves
            // the left order.
            Operator::Join { implementation, .. } => match implementation {
                JoinImpl::Merge => PhysicalProps {
                    partitioning: input.partitioning,
                    sort: input.sort,
                },
                _ => PhysicalProps {
                    partitioning: input.partitioning,
                    sort: SortOrder::none(),
                },
            },
            // Projection/remap reorder columns: positional properties are
            // remapped through plain column references; computed columns
            // drop them.
            Operator::Project { exprs } => {
                let remap = |c: &usize| {
                    exprs
                        .iter()
                        .position(|ne| matches!(&ne.expr, Expr::Col(i) if i == c))
                };
                PhysicalProps {
                    partitioning: remap_partitioning(&input.partitioning, remap),
                    sort: remap_sort(&input.sort, remap),
                }
            }
            Operator::Remap { cols, .. } => {
                let remap = |c: &usize| cols.iter().position(|k| k == c);
                PhysicalProps {
                    partitioning: remap_partitioning(&input.partitioning, remap),
                    sort: remap_sort(&input.sort, remap),
                }
            }
            // User code: no guarantees survive.
            Operator::Process { .. }
            | Operator::Reduce { .. }
            | Operator::GbApply { .. }
            | Operator::Combine { .. }
            | Operator::Window { .. } => PhysicalProps {
                partitioning: input.partitioning,
                sort: SortOrder::none(),
            },
            Operator::UnionAll => PhysicalProps::any(),
            Operator::Sequence => inputs.last().cloned().unwrap_or_default(),
            Operator::Output { .. } => input,
        }
    }

    /// Physical properties this operator *requires* from its input(s) to run
    /// correctly; the optimizer inserts enforcers (Exchange/Sort) to satisfy
    /// them. Returns one requirement per child.
    pub fn required_props(&self, num_children: usize, default_dop: usize) -> Vec<PhysicalProps> {
        let none = PhysicalProps::any;
        match self {
            // Stream agg needs co-partitioned, key-sorted input.
            Operator::Aggregate {
                keys,
                implementation: AggImpl::Stream,
                ..
            } => {
                vec![PhysicalProps {
                    partitioning: partition_req(keys, default_dop),
                    sort: SortOrder::asc(keys),
                }]
            }
            // Hash agg needs co-partitioning only.
            Operator::Aggregate {
                keys,
                implementation: AggImpl::Hash,
                ..
            } => {
                vec![PhysicalProps {
                    partitioning: partition_req(keys, default_dop),
                    sort: SortOrder::none(),
                }]
            }
            Operator::Reduce { keys, .. } | Operator::GbApply { keys, .. } => {
                vec![PhysicalProps {
                    partitioning: partition_req(keys, default_dop),
                    sort: SortOrder::asc(keys),
                }]
            }
            Operator::Join {
                implementation,
                left_keys,
                right_keys,
                ..
            } => {
                let l_part = partition_req(left_keys, default_dop);
                let r_part = partition_req(right_keys, default_dop);
                match implementation {
                    JoinImpl::Merge => vec![
                        PhysicalProps {
                            partitioning: l_part,
                            sort: SortOrder::asc(left_keys),
                        },
                        PhysicalProps {
                            partitioning: r_part,
                            sort: SortOrder::asc(right_keys),
                        },
                    ],
                    JoinImpl::Hash => vec![
                        PhysicalProps {
                            partitioning: l_part,
                            sort: SortOrder::none(),
                        },
                        PhysicalProps {
                            partitioning: r_part,
                            sort: SortOrder::none(),
                        },
                    ],
                    // Loops join: broadcast-style; right side single.
                    JoinImpl::Loops => vec![none(), PhysicalProps::single()],
                }
            }
            Operator::Combine { .. } => vec![PhysicalProps::single(), PhysicalProps::single()],
            // Top-N needs a single partition to be globally correct. Sort is
            // partition-local (enforcer sorts run inside each partition);
            // global ordering comes from gathering.
            Operator::Top { .. } => vec![PhysicalProps::single()],
            Operator::Window {
                partition, order, ..
            } => {
                let mut sort_keys = SortOrder::asc(partition);
                sort_keys.0.extend(order.0.iter().copied());
                vec![PhysicalProps {
                    partitioning: partition_req(partition, default_dop),
                    sort: sort_keys,
                }]
            }
            // Output gathers to a single stream.
            Operator::Output { .. } => vec![PhysicalProps::single()],
            _ => (0..num_children.max(self.arity().0))
                .map(|_| none())
                .collect(),
        }
    }

    /// Feeds the operator's own content (not its children) into a stable
    /// hasher. `mode` controls recurring-delta stripping; see
    /// `scope-signature` for the full Merkle construction.
    pub fn stable_hash_into(&self, h: &mut SipHasher24, mode: HashMode) {
        h.write_str(self.kind().name());
        match self {
            Operator::Get {
                dataset,
                template_name,
                schema,
                kind,
                predicate,
                extractor,
            } => {
                if mode == HashMode::Precise {
                    h.write_str(template_name.as_str());
                    // The concrete input GUID: recurring instances read new
                    // data, so this is precisely what normalization strips.
                    h.write_u64(dataset.raw());
                } else {
                    // Mask date/GUID path segments, like the output names.
                    h.write_str(normalize_stream_symbol(*template_name).as_str());
                }
                schema.stable_hash_into(h);
                h.write_u8(*kind as u8);
                if let Some(p) = predicate {
                    h.write_u8(1);
                    p.stable_hash_into(h, mode);
                } else {
                    h.write_u8(0);
                }
                if let Some(u) = extractor {
                    h.write_u8(1);
                    u.stable_hash_into(h);
                } else {
                    h.write_u8(0);
                }
            }
            Operator::ViewGet {
                view_sig,
                schema,
                props,
            } => {
                h.write_u64(view_sig.hi);
                h.write_u64(view_sig.lo);
                schema.stable_hash_into(h);
                props.stable_hash_into(h);
            }
            Operator::Filter { predicate } => predicate.stable_hash_into(h, mode),
            Operator::Project { exprs } => {
                h.write_u64(exprs.len() as u64);
                for ne in exprs {
                    h.write_str(&ne.name);
                    ne.expr.stable_hash_into(h, mode);
                }
            }
            Operator::Remap { cols, names } => {
                h.write_u64(cols.len() as u64);
                for (c, n) in cols.iter().zip(names) {
                    h.write_u64(*c as u64);
                    h.write_str(n);
                }
            }
            Operator::Sort { order } => order.stable_hash_into(h),
            Operator::Exchange { scheme } => scheme.stable_hash_into(h),
            Operator::Aggregate {
                keys,
                aggs,
                implementation,
            } => {
                h.write_u8(*implementation as u8);
                h.write_u64(keys.len() as u64);
                for k in keys {
                    h.write_u64(*k as u64);
                }
                h.write_u64(aggs.len() as u64);
                for a in aggs {
                    a.stable_hash_into(h);
                }
            }
            Operator::Top { n, order } => {
                h.write_u64(*n as u64);
                order.stable_hash_into(h);
            }
            Operator::Window {
                func,
                partition,
                order,
            } => {
                h.write_str(&func.name());
                h.write_u64(partition.len() as u64);
                for c in partition {
                    h.write_u64(*c as u64);
                }
                order.stable_hash_into(h);
            }
            Operator::Process { udo } | Operator::Combine { udo } => udo.stable_hash_into(h),
            Operator::Reduce { udo, keys } | Operator::GbApply { udo, keys } => {
                udo.stable_hash_into(h);
                h.write_u64(keys.len() as u64);
                for k in keys {
                    h.write_u64(*k as u64);
                }
            }
            Operator::Spool | Operator::Nop | Operator::Sequence | Operator::UnionAll => {}
            Operator::Join {
                kind,
                implementation,
                left_keys,
                right_keys,
            } => {
                h.write_u8(*kind as u8);
                h.write_u8(*implementation as u8);
                h.write_u64(left_keys.len() as u64);
                for k in left_keys {
                    h.write_u64(*k as u64);
                }
                for k in right_keys {
                    h.write_u64(*k as u64);
                }
            }
            Operator::Output { name, stored } => {
                // Output names often embed dates; normalize by template.
                if mode == HashMode::Precise {
                    h.write_str(name.as_str());
                } else {
                    h.write_str(normalize_stream_symbol(*name).as_str());
                }
                h.write_u8(*stored as u8);
            }
        }
    }

    /// A one-line description for EXPLAIN-style plan dumps.
    pub fn describe(&self) -> String {
        match self {
            Operator::Get {
                template_name,
                kind,
                ..
            } => {
                format!("{:?}Scan({template_name})", kind)
            }
            Operator::ViewGet { view_sig, .. } => format!("ViewGet({})", view_sig.short()),
            Operator::Filter { .. } => "Filter".into(),
            Operator::Project { exprs } => format!("Project[{}]", exprs.len()),
            Operator::Remap { cols, .. } => format!("Remap{cols:?}"),
            Operator::Sort { order } => format!("Sort[{:?}]", order.columns()),
            Operator::Exchange { scheme } => format!("Exchange({})", scheme.describe()),
            Operator::Aggregate {
                keys,
                implementation,
                ..
            } => {
                format!("{:?}Agg{keys:?}", implementation)
            }
            Operator::Top { n, .. } => format!("Top({n})"),
            Operator::Window { func, .. } => format!("Window({})", func.name()),
            Operator::Process { udo } => format!("Process({})", udo.kind.name()),
            Operator::Reduce { udo, .. } => format!("Reduce({})", udo.kind.name()),
            Operator::GbApply { udo, .. } => format!("GbApply({})", udo.kind.name()),
            Operator::Spool => "Spool".into(),
            Operator::Nop => "NOP".into(),
            Operator::Sequence => "Sequence".into(),
            Operator::Join {
                kind,
                implementation,
                left_keys,
                right_keys,
            } => {
                format!("{implementation:?}{kind:?}Join({left_keys:?}={right_keys:?})")
            }
            Operator::UnionAll => "UnionAll".into(),
            Operator::Combine { udo } => format!("Combine({})", udo.kind.name()),
            Operator::Output { name, stored } => {
                format!("{}({name})", if *stored { "Write" } else { "Output" })
            }
        }
    }
}

/// Remaps a partitioning's column references through an input-position →
/// output-position mapping. Distribution guarantees on columns the output
/// no longer exposes positionally degrade to `Any` (the rows are still
/// distributed that way, but no consumer can rely on it).
fn remap_partitioning(p: &Partitioning, remap: impl Fn(&usize) -> Option<usize>) -> Partitioning {
    match p {
        Partitioning::Hash { cols, parts } => {
            let mapped: Option<Vec<usize>> = cols.iter().map(&remap).collect();
            match mapped {
                Some(cols) => Partitioning::Hash {
                    cols,
                    parts: *parts,
                },
                None => Partitioning::Any,
            }
        }
        Partitioning::Range { col, parts } => match remap(col) {
            Some(col) => Partitioning::Range { col, parts: *parts },
            None => Partitioning::Any,
        },
        other => other.clone(),
    }
}

/// Remaps a sort order, keeping the longest remappable prefix (a stream
/// sorted by (a, b) is still sorted by (a) when only `a` survives).
fn remap_sort(s: &SortOrder, remap: impl Fn(&usize) -> Option<usize>) -> SortOrder {
    let mut keys = Vec::new();
    for k in &s.0 {
        match remap(&k.col) {
            Some(col) => keys.push(crate::props::SortKey { col, dir: k.dir }),
            None => break,
        }
    }
    SortOrder(keys)
}

/// Partitioning requirement on `keys`: co-partition by hash, or gather to a
/// single node when there are no keys (global aggregate).
fn partition_req(keys: &[usize], default_dop: usize) -> Partitioning {
    if keys.is_empty() {
        Partitioning::Single
    } else {
        Partitioning::Hash {
            cols: keys.to_vec(),
            parts: default_dop,
        }
    }
}

/// Normalizes a stream name by masking date-like and GUID-like path
/// segments: `"out/2017-11-08/result.ss"` → `"out/<date>/result.ss"`.
///
/// This mirrors the paper's signature normalization of input names.
pub fn normalize_stream_name(name: &str) -> String {
    name.split('/')
        .map(|seg| {
            if looks_like_date(seg) {
                "<date>"
            } else if looks_like_guid(seg) {
                "<guid>"
            } else {
                seg
            }
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Interned, memoized form of [`normalize_stream_name`]: the first call for
/// a given symbol does the segment scan and allocates the normalized string
/// (once, in the interner); every later call — i.e. every recurring
/// instance of the template — is a lock-shared map probe.
pub fn normalize_stream_symbol(name: Symbol) -> Symbol {
    use std::collections::HashMap;
    use std::sync::{OnceLock, RwLock};
    static MEMO: OnceLock<RwLock<HashMap<Symbol, Symbol>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(&normalized) = memo.read().expect("normalize memo poisoned").get(&name) {
        return normalized;
    }
    let normalized = Symbol::intern(&normalize_stream_name(name.as_str()));
    memo.write()
        .expect("normalize memo poisoned")
        .insert(name, normalized);
    normalized
}

fn looks_like_date(seg: &str) -> bool {
    // yyyy-mm-dd, yyyymmdd, or yyyy-mm-dd-hh
    let digits = seg.chars().filter(|c| c.is_ascii_digit()).count();
    let seps = seg.chars().filter(|c| *c == '-' || *c == '_').count();
    digits >= 6 && digits + seps == seg.len() && !seg.is_empty()
}

fn looks_like_guid(seg: &str) -> bool {
    seg.len() >= 16 && seg.chars().all(|c| c.is_ascii_hexdigit() || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, Expr};

    fn scan_schema() -> Schema {
        Schema::from_pairs(&[
            ("user", DataType::Int),
            ("url", DataType::Str),
            ("latency", DataType::Float),
        ])
    }

    fn get_op() -> Operator {
        Operator::Get {
            dataset: DatasetId::new(1),
            template_name: "clicks/<date>/log.ss".into(),
            schema: scan_schema(),
            kind: ScanKind::Table,
            predicate: None,
            extractor: None,
        }
    }

    #[test]
    fn kinds_cover_all_26() {
        // Paranoia check used by the Figure 4a harness: OpKind::ALL has all
        // distinct kinds.
        let mut names: Vec<_> = OpKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn scan_kind_mapping() {
        assert_eq!(get_op().kind(), OpKind::TableScan);
        let mut op = get_op();
        if let Operator::Get { kind, .. } = &mut op {
            *kind = ScanKind::Range;
        }
        assert_eq!(op.kind(), OpKind::Range);
    }

    #[test]
    fn output_schema_propagation() {
        let s = scan_schema();
        let filter = Operator::Filter {
            predicate: Expr::col(0).gt(Expr::lit(10i64)),
        };
        assert_eq!(filter.output_schema(std::slice::from_ref(&s)).unwrap(), s);

        let agg = Operator::Aggregate {
            keys: vec![1],
            aggs: vec![
                AggExpr::new("cnt", AggFunc::Count, 0),
                AggExpr::new("avg_lat", AggFunc::Avg, 2),
            ],
            implementation: AggImpl::Hash,
        };
        let out = agg.output_schema(std::slice::from_ref(&s)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.column(0).unwrap().name, "url");
        assert_eq!(out.column(1).unwrap().dtype, DataType::Int);
        assert_eq!(out.column(2).unwrap().dtype, DataType::Float);
    }

    #[test]
    fn filter_validates_columns() {
        let filter = Operator::Filter {
            predicate: Expr::col(9).gt(Expr::lit(1i64)),
        };
        assert!(filter.output_schema(&[scan_schema()]).is_err());
    }

    #[test]
    fn remap_schema() {
        let remap = Operator::Remap {
            cols: vec![2, 0],
            names: vec!["lat".into(), "uid".into()],
        };
        let out = remap.output_schema(&[scan_schema()]).unwrap();
        assert_eq!(out.to_string(), "(lat:float, uid:int)");
        let bad = Operator::Remap {
            cols: vec![0],
            names: vec![],
        };
        assert!(bad.output_schema(&[scan_schema()]).is_err());
    }

    #[test]
    fn join_schema_and_validation() {
        let j = Operator::Join {
            kind: JoinKind::Inner,
            implementation: JoinImpl::Hash,
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let out = j.output_schema(&[scan_schema(), scan_schema()]).unwrap();
        assert_eq!(out.len(), 6);
        let semi = Operator::Join {
            kind: JoinKind::LeftSemi,
            implementation: JoinImpl::Hash,
            left_keys: vec![0],
            right_keys: vec![0],
        };
        assert_eq!(
            semi.output_schema(&[scan_schema(), scan_schema()])
                .unwrap()
                .len(),
            3
        );
        let bad = Operator::Join {
            kind: JoinKind::Inner,
            implementation: JoinImpl::Hash,
            left_keys: vec![],
            right_keys: vec![],
        };
        assert!(bad.output_schema(&[scan_schema(), scan_schema()]).is_err());
    }

    #[test]
    fn union_type_check() {
        let u = Operator::UnionAll;
        assert!(u.output_schema(&[scan_schema(), scan_schema()]).is_ok());
        let other = Schema::from_pairs(&[("x", DataType::Int)]);
        assert!(u.output_schema(&[scan_schema(), other]).is_err());
    }

    #[test]
    fn combine_type_check() {
        let c = Operator::Combine {
            udo: Udo::new(crate::udo::UdoKind::MergeStreams, "L", "1"),
        };
        assert_eq!(
            c.output_schema(&[scan_schema(), scan_schema()]).unwrap(),
            scan_schema()
        );
        // A narrower right child would yield rows that do not match the
        // declared (left) schema.
        let narrower = Schema::from_pairs(&[("user", DataType::Int)]);
        assert!(c.output_schema(&[scan_schema(), narrower]).is_err());
        assert!(c.output_schema(&[scan_schema()]).is_err());
    }

    #[test]
    fn exchange_destroys_sort() {
        let ex = Operator::Exchange {
            scheme: Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        };
        let sorted_input = PhysicalProps {
            partitioning: Partitioning::Single,
            sort: SortOrder::asc(&[0]),
        };
        let out = ex.delivered_props(&[sorted_input]);
        assert!(out.sort.is_none());
        assert_eq!(out.partitioning.parts(), Some(8));
    }

    #[test]
    fn sort_preserves_distribution() {
        let sort = Operator::Sort {
            order: SortOrder::asc(&[1]),
        };
        let input = PhysicalProps::hashed(vec![0], 4);
        let out = sort.delivered_props(&[input]);
        assert_eq!(out.partitioning.parts(), Some(4));
        assert_eq!(out.sort, SortOrder::asc(&[1]));
    }

    #[test]
    fn required_props_for_stream_agg() {
        let agg = Operator::Aggregate {
            keys: vec![1],
            aggs: vec![],
            implementation: AggImpl::Stream,
        };
        let req = &agg.required_props(1, 8)[0];
        assert_eq!(req.sort, SortOrder::asc(&[1]));
        assert!(
            matches!(req.partitioning, Partitioning::Hash { ref cols, parts: 8 } if cols == &vec![1])
        );
        // Global aggregate gathers.
        let global = Operator::Aggregate {
            keys: vec![],
            aggs: vec![AggExpr::new("c", AggFunc::Count, 0)],
            implementation: AggImpl::Hash,
        };
        assert_eq!(
            global.required_props(1, 8)[0].partitioning,
            Partitioning::Single
        );
    }

    #[test]
    fn merge_join_requires_sorted_inputs() {
        let j = Operator::Join {
            kind: JoinKind::Inner,
            implementation: JoinImpl::Merge,
            left_keys: vec![0],
            right_keys: vec![1],
        };
        let reqs = j.required_props(2, 4);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].sort, SortOrder::asc(&[0]));
        assert_eq!(reqs[1].sort, SortOrder::asc(&[1]));
    }

    #[test]
    fn precise_vs_normalized_get_hash() {
        fn h(op: &Operator, mode: HashMode) -> u64 {
            let mut s = SipHasher24::new_with_keys(0, 0);
            op.stable_hash_into(&mut s, mode);
            s.finish()
        }
        let g1 = get_op();
        let mut g2 = get_op();
        if let Operator::Get { dataset, .. } = &mut g2 {
            *dataset = DatasetId::new(999); // new day, new GUID
        }
        assert_ne!(h(&g1, HashMode::Precise), h(&g2, HashMode::Precise));
        assert_eq!(h(&g1, HashMode::Normalized), h(&g2, HashMode::Normalized));
    }

    #[test]
    fn output_name_normalization() {
        assert_eq!(
            normalize_stream_name("out/2017-11-08/result.ss"),
            "out/<date>/result.ss"
        );
        assert_eq!(
            normalize_stream_name("out/20171108/result.ss"),
            "out/<date>/result.ss"
        );
        assert_eq!(
            normalize_stream_name("data/0123456789abcdef0123/x.ss"),
            "data/<guid>/x.ss"
        );
        assert_eq!(normalize_stream_name("plain/path/x.ss"), "plain/path/x.ss");
    }

    #[test]
    fn output_hash_normalizes_name() {
        fn h(op: &Operator, mode: HashMode) -> u64 {
            let mut s = SipHasher24::new_with_keys(0, 0);
            op.stable_hash_into(&mut s, mode);
            s.finish()
        }
        let o1 = Operator::Output {
            name: "out/2017-11-08/r.ss".into(),
            stored: true,
        };
        let o2 = Operator::Output {
            name: "out/2017-11-09/r.ss".into(),
            stored: true,
        };
        assert_ne!(h(&o1, HashMode::Precise), h(&o2, HashMode::Precise));
        assert_eq!(h(&o1, HashMode::Normalized), h(&o2, HashMode::Normalized));
    }

    #[test]
    fn arity_bounds() {
        assert_eq!(get_op().arity(), (0, 0));
        assert_eq!(Operator::UnionAll.arity(), (1, usize::MAX));
        assert_eq!(Operator::Nop.arity(), (1, 1));
        assert_eq!(
            Operator::Combine {
                udo: Udo::new(crate::udo::UdoKind::MergeStreams, "L", "1")
            }
            .arity(),
            (2, 2)
        );
    }

    #[test]
    fn describe_smoke() {
        assert!(get_op().describe().contains("clicks"));
        assert_eq!(Operator::Spool.describe(), "Spool");
    }
}
