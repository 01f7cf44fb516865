//! The columnar batch-at-a-time physical executor.
//!
//! [`execute_plan`] runs an optimized plan bottom-up against the
//! [`StorageManager`], producing the output table of every node plus the
//! per-node runtime statistics ([`NodeRuntimeStats`]) that feed the
//! CloudViews feedback loop: rows, bytes, and exclusive CPU from the
//! calibrated [`CostModel`].
//!
//! Operators process whole [`RecordBatch`]es: projections evaluate
//! expressions column-wise (`crate::vexpr`), joins and aggregates run typed
//! single-key fast paths over the raw vectors. Operators that only *move*
//! rows — Filter, Sort, Top, Exchange, the join emit — build recipes, not
//! cells ([`crate::data`], "gather on read"), and Remap, UnionAll, Spool and
//! the gathers to one partition hand columns on untouched; a column is
//! copied when an operator first reads it — a routing, join or group key, an
//! aggregate input, an expression — and [`ExecOutcome::cells_gathered`]
//! counts those copies.
//!
//! **Pinned semantics.** Every [`NodeRuntimeStats`] field, the cost-model
//! inputs, partition counts, and per-partition row order are byte-identical
//! to the seed row executor, which `tests/properties.rs` keeps as an oracle
//! sharing no kernel with this module; the EXPERIMENTS.md figures and the
//! subsumption byte-identity suite depend on it. Every operator runs a batch
//! kernel, and a loops join is the hash join with each left partition
//! probing the one gathered right partition. The seven built-in user-defined
//! operators are batch kernels too: a processor (Process, Extract scans)
//! emits row indices plus its appended column, a reducer (Reduce/GbApply)
//! selects rows within each run of equal keys, and the combiner sorts each
//! side by index; Aggregate emits its key columns taken from each group's
//! first row beside one column per aggregate. Nothing here builds a row: a
//! vectorized expression error is re-evaluated by the same evaluator on
//! one-row slices (see `crate::vexpr`).
//!
//! The executor trusts the optimizer's property enforcement: group-wise
//! operators assume their input is co-partitioned (and, for stream variants,
//! sorted) on the keys. [`super::optimizer`] guarantees this; the
//! correctness property tests cross-check by comparing against
//! single-partition reference runs.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scope_common::hash::{SipHasher24, WordMap};
use scope_common::ids::NodeId;
use scope_common::time::{SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_plan::expr::AggFunc;
use scope_plan::op::{AggImpl, WindowFunc};
use scope_plan::{
    AggExpr, Cell, Expr, JoinImpl, JoinKind, Operator, Partitioning, PhysicalProps, QueryGraph,
    Schema, SortKey, SortOrder, Udo, UdoKind, Value,
};

use crate::cost::CostModel;
use crate::data::{
    cells_gathered, compare_batch_rows, compare_batch_rows_full, gathers, ColumnVector, NullMask,
    RecordBatch, Rows, StrVec, Table,
};
use crate::storage::StorageManager;
use crate::vexpr;

/// Observed execution statistics of one plan node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NodeRuntimeStats {
    /// Rows consumed (sum over inputs; scanned rows for leaves).
    pub in_rows: u64,
    /// Rows produced.
    pub out_rows: u64,
    /// Bytes produced.
    pub out_bytes: u64,
    /// Exclusive CPU attributed to this node.
    pub exclusive_cpu: SimDuration,
}

/// Result of executing a plan: every node's output and statistics.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Output table per node (same indexing as the graph arena).
    pub node_tables: Vec<Table>,
    /// Runtime statistics per node.
    pub node_stats: Vec<NodeRuntimeStats>,
    /// Terminal outputs by name (gathered single-partition tables).
    pub outputs: HashMap<String, Table>,
    /// Cells copied from column to column while the plan ran: every
    /// deferred column some operator read, plus LeftOuter padding. Columns
    /// forced later (an output checksum, a view publish) are not in it.
    pub cells_gathered: u64,
    /// Wall time of each node's kernel (same indexing as the graph arena):
    /// real time on this host, unlike the simulated `exclusive_cpu`.
    pub node_wall: Vec<Duration>,
    /// Wall time spent building gathers, eager copies included (in `node_wall`).
    pub gather_wall: Duration,
    /// Output columns those gathers built.
    pub gather_columns: u64,
}

impl ExecOutcome {
    /// Total exclusive CPU across all nodes.
    pub fn total_cpu(&self) -> SimDuration {
        self.node_stats.iter().map(|s| s.exclusive_cpu).sum()
    }

    /// Cumulative CPU of the subgraph rooted at `root`.
    pub fn subgraph_cpu(&self, graph: &QueryGraph, root: NodeId) -> SimDuration {
        graph
            .subgraph_nodes(root)
            .map(|ids| {
                ids.iter()
                    .map(|id| self.node_stats[id.index()].exclusive_cpu)
                    .sum()
            })
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Executes `graph` against `storage`, charging costs with `model`.
///
/// `now` is the simulated time at which view reads are checked for expiry.
pub fn execute_plan(
    graph: &QueryGraph,
    storage: &StorageManager,
    model: &CostModel,
    now: SimTime,
) -> Result<ExecOutcome> {
    let mut tables: Vec<Table> = Vec::with_capacity(graph.len());
    let mut stats: Vec<NodeRuntimeStats> = Vec::with_capacity(graph.len());
    let mut node_wall: Vec<Duration> = Vec::with_capacity(graph.len());
    let mut outputs = HashMap::new();
    let schemas = graph.validate()?;
    let gathered_before = cells_gathered();
    let (gather_wall_before, gather_columns_before) = gathers();

    for node in graph.nodes() {
        let child_tables: Vec<&Table> = node.children.iter().map(|c| &tables[c.index()]).collect();
        let in_rows: u64 = child_tables.iter().map(|t| t.num_rows() as u64).sum();
        let out_schema = &schemas[node.id.index()];
        let started = Instant::now();
        let (table, scanned) = exec_node(&node.op, &child_tables, out_schema, storage, now)?;
        node_wall.push(started.elapsed());
        let out_rows = table.num_rows() as u64;
        // A node that only moves rows emits the bytes it was given.
        let child_bytes = |c: &NodeId| stats[c.index()].out_bytes;
        let out_bytes = match &node.op {
            Operator::Exchange { .. }
            | Operator::Sort { .. }
            | Operator::Spool
            | Operator::Nop
            | Operator::Output { .. } => child_bytes(&node.children[0]),
            Operator::Sequence => node.children.last().map_or(0, child_bytes),
            Operator::UnionAll => node.children.iter().map(child_bytes).sum(),
            _ => table.num_bytes(),
        };
        let effective_in = if node.children.is_empty() {
            scanned
        } else {
            in_rows
        };
        let cpu = model.op_cpu(&node.op, effective_in, out_rows, out_bytes);
        if let Operator::Output { name, .. } = &node.op {
            // The Output kernel already gathered; a clone shares the batch
            // buffers instead of re-materializing the table.
            outputs.insert(name.as_str().to_string(), table.clone());
        }
        stats.push(NodeRuntimeStats {
            in_rows: effective_in,
            out_rows,
            out_bytes,
            exclusive_cpu: cpu,
        });
        tables.push(table);
    }

    let (gather_wall, gather_columns) = gathers();
    Ok(ExecOutcome {
        node_tables: tables,
        node_stats: stats,
        outputs,
        cells_gathered: cells_gathered() - gathered_before,
        node_wall,
        gather_wall: gather_wall - gather_wall_before,
        gather_columns: gather_columns - gather_columns_before,
    })
}

/// Applies an optional predicate to one batch: selection vector, then
/// `take` (or a zero-copy pass-through when every row survives).
fn filter_batch(
    batch: &Arc<RecordBatch>,
    predicate: Option<&Expr>,
) -> Result<Option<Arc<RecordBatch>>> {
    let Some(pred) = predicate else {
        return Ok(Some(batch.clone()));
    };
    let (sel, stopped) = vexpr::eval_predicate_selection(pred, batch);
    stopped?;
    Ok(match sel.len() {
        0 => None,
        n if n == batch.num_rows() => Some(batch.clone()),
        _ => Some(Arc::new(batch.take(&sel))),
    })
}

/// Runs `kernel` over every non-empty batch of `input`, partition by
/// partition and in order; `None` drops the batch.
fn map_batches(
    input: &Table,
    mut kernel: impl FnMut(&Arc<RecordBatch>) -> Result<Option<Arc<RecordBatch>>>,
) -> Result<Vec<Vec<Arc<RecordBatch>>>> {
    let mut parts = Vec::with_capacity(input.num_partitions());
    for p in 0..input.num_partitions() {
        let mut out = Vec::new();
        for batch in input.partition_batches(p) {
            if batch.num_rows() > 0 {
                out.extend(kernel(batch)?);
            }
        }
        parts.push(out);
    }
    Ok(parts)
}

/// Runs `kernel` over every partition of `input` as one batch, in partition
/// order; a kernel that emits no row leaves its partition without a batch.
fn map_partitions(
    input: &Table,
    mut kernel: impl FnMut(&RecordBatch) -> Result<Option<RecordBatch>>,
) -> Result<Vec<Vec<Arc<RecordBatch>>>> {
    (0..input.num_partitions())
        .map(|p| {
            let out = kernel(&input.partition_as_batch(p))?;
            Ok(out.map(Arc::new).into_iter().collect())
        })
        .collect()
}

/// Executes one operator. Returns the output table and, for leaves, the
/// number of rows scanned (pre-predicate).
fn exec_node(
    op: &Operator,
    inputs: &[&Table],
    out_schema: &Schema,
    storage: &StorageManager,
    now: SimTime,
) -> Result<(Table, u64)> {
    let one = || -> Result<&Table> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| ScopeError::Execution(format!("{} executed without input", op.kind())))
    };
    // The table a per-partition operator emits: its parts under the
    // properties it delivers over `input`.
    let delivered = |input: &Table, parts| {
        let props = op.delivered_props(std::slice::from_ref(&input.props));
        Table::from_batches(out_schema.clone(), parts, props)
    };
    match op {
        Operator::Get {
            dataset,
            kind,
            predicate,
            extractor,
            ..
        } => {
            let stored = storage.dataset(*dataset)?;
            let scanned = stored.num_rows() as u64;
            let parts = if matches!(kind, scope_plan::ScanKind::Extract) {
                let udo = extractor.as_ref().ok_or_else(|| {
                    ScopeError::Execution("extract scan without extractor".into())
                })?;
                map_batches(&stored, |batch| {
                    Ok(extract_batch(udo, predicate.as_ref(), batch)?.map(Arc::new))
                })?
            } else {
                map_batches(&stored, |batch| filter_batch(batch, predicate.as_ref()))?
            };
            Ok((
                Table::from_batches(out_schema.clone(), parts, stored.props.clone()),
                scanned,
            ))
        }
        Operator::ViewGet { view_sig, .. } => {
            // Integrity-verified read: a lost or corrupted file surfaces as
            // ViewUnavailable, which the CloudViews runtime absorbs by
            // falling back to recomputation. The clone is batch-buffer
            // sharing, not a data copy.
            let file = storage.open_view(*view_sig, now)?;
            let scanned = file.table.num_rows() as u64;
            Ok(((*file.table).clone(), scanned))
        }
        Operator::Filter { predicate } => {
            let input = one()?;
            let parts = map_batches(input, |batch| filter_batch(batch, Some(predicate)))?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Project { exprs } => {
            let input = one()?;
            let parts = map_batches(input, |batch| {
                let cols = vexpr::eval_exprs(exprs, batch)?;
                Ok(Some(Arc::new(RecordBatch::new(cols, batch.num_rows()))))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Remap { cols, .. } => {
            let input = one()?;
            // Pure column shuffle: Arc bumps, deferred columns unread.
            let parts = map_batches(input, |batch| {
                let picked = cols.iter().map(|&c| batch.columns()[c].clone()).collect();
                Ok(Some(Arc::new(RecordBatch::new(picked, batch.num_rows()))))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Sort { order } => {
            let input = one()?;
            Ok((input.sort_partitions(order), 0))
        }
        Operator::Exchange { scheme } => {
            let input = one()?;
            let out = match scheme {
                Partitioning::Hash { cols, parts } => input.hash_repartition(cols, *parts)?,
                Partitioning::Range { col, parts } => input.range_repartition(*col, *parts)?,
                Partitioning::RoundRobin { parts } => input.round_robin_repartition(*parts)?,
                Partitioning::Single => input.gather(),
                Partitioning::Any => input.clone(),
            };
            Ok((out, 0))
        }
        Operator::Aggregate {
            keys,
            aggs,
            implementation,
        } => {
            let input = one()?;
            let mut parts = map_partitions(input, |batch| {
                Ok(match implementation {
                    AggImpl::Hash => hash_aggregate_batch(batch, keys, aggs),
                    AggImpl::Stream => stream_aggregate_batch(batch, keys, aggs),
                })
            })?;
            // Global aggregate over an empty input emits exactly one row.
            if keys.is_empty() && parts.iter().all(Vec::is_empty) {
                if let Some(first) = parts.first_mut() {
                    let empty = aggs.iter().map(|a| {
                        ColumnVector::from_values(vec![Acc::default().finish(a.func)]).into()
                    });
                    first.push(Arc::new(RecordBatch::new(empty.collect(), 1)));
                }
            }
            Ok((delivered(input, parts), 0))
        }
        Operator::Top { n, order } => {
            let input = one()?;
            let gathered = input.gather();
            // Deterministic top-N: ties under the requested order are broken
            // by full-row comparison, so the result is independent of the
            // physical arrival order (and hence of view reuse).
            let props = PhysicalProps {
                partitioning: Partitioning::Single,
                sort: order.clone(),
            };
            let batch = gathered.partition_as_batch(0);
            let mut idx: Vec<u32> = (0..batch.num_rows() as u32).collect();
            sort_indices(&batch, &mut idx, order);
            idx.truncate(*n);
            let out = if idx.is_empty() {
                Vec::new()
            } else {
                vec![Arc::new(batch.take(&idx))]
            };
            Ok((Table::from_batches(out_schema.clone(), vec![out], props), 0))
        }
        Operator::Window {
            func,
            partition,
            order,
        } => {
            let input = one()?;
            let parts = map_partitions(input, |batch| {
                Ok((batch.num_rows() > 0).then(|| window_batch(batch, func, partition, order)))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Process { udo } => {
            let input = one()?;
            let parts = map_partitions(input, |batch| process_batch(udo, batch))?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Reduce { udo, keys } | Operator::GbApply { udo, keys } => {
            let input = one()?;
            let parts = map_partitions(input, |batch| reduce_batch(udo, batch, keys))?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Spool | Operator::Nop => Ok((one()?.clone(), 0)),
        Operator::Sequence => {
            let last = inputs.last().copied().ok_or_else(|| {
                ScopeError::Execution("Sequence executed without children".into())
            })?;
            Ok((last.clone(), 0))
        }
        Operator::Join {
            kind,
            implementation,
            left_keys,
            right_keys,
        } => {
            let left = inputs[0];
            let right = inputs[1];
            let table = exec_join(
                left,
                right,
                *kind,
                *implementation,
                left_keys,
                right_keys,
                out_schema,
            )?;
            Ok((table, 0))
        }
        Operator::UnionAll => {
            let mut parts = Vec::new();
            for t in inputs {
                for p in 0..t.num_partitions() {
                    parts.push(t.partition_batches(p).to_vec());
                }
            }
            Ok((
                Table::from_batches(out_schema.clone(), parts, PhysicalProps::any()),
                0,
            ))
        }
        Operator::Combine { udo } => {
            // Both sides gathered single (enforced).
            let merged = merge_streams(udo, inputs[0], inputs[1])?;
            Ok((
                Table::from_batches(out_schema.clone(), vec![merged], PhysicalProps::single()),
                0,
            ))
        }
        Operator::Output { .. } => {
            let input = one()?;
            Ok((input.gather(), 0))
        }
    }
}

// ---------------------------------------------------------------------------
// Runs and windows
// ---------------------------------------------------------------------------

/// Maximal runs of adjacent rows with equal `keys` (`cmp_cell`, which
/// mirrors `Value::cmp`): the groups of the stream aggregate, Window and
/// Reduce/GbApply. Unsorted input still groups only *adjacent* equal keys;
/// the optimizer's enforcers sort first.
fn key_runs(batch: &RecordBatch, keys: &[usize]) -> Vec<Range<usize>> {
    let rows = batch.num_rows();
    if rows == 0 {
        // An empty partition may be a zero-width batch: no key column to read.
        return Vec::new();
    }
    let key_cols: Vec<&ColumnVector> = keys.iter().map(|&k| batch.column(k)).collect();
    let same = |a: usize, b: usize| {
        key_cols
            .iter()
            .all(|c| c.cell(a).cmp_cell(c.cell(b)).is_eq())
    };
    let mut runs = Vec::new();
    let mut start = 0;
    while start < rows {
        let mut end = start + 1;
        while end < rows && same(end, start) {
            end += 1;
        }
        runs.push(start..end);
        start = end;
    }
    runs
}

/// Sorts row indices of `batch` by `order`, ties broken by the full row: the
/// deterministic order of Top, Window and TopPerGroup, which no arrival
/// order (and hence no view reuse) can change.
fn sort_indices(batch: &RecordBatch, idx: &mut [u32], order: &SortOrder) {
    idx.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        compare_batch_rows(batch, a, b, order).then_with(|| compare_batch_rows_full(batch, a, b))
    });
}

/// One window function over a non-empty partition. Each run of equal
/// `partition` keys is put in `order`, ties broken by the full row (running
/// sums would otherwise depend on arrival order, as in `Top`); the rows move
/// in that order and the function's value is appended as one more column.
fn window_batch(
    batch: &RecordBatch,
    func: &WindowFunc,
    partition: &[usize],
    order: &SortOrder,
) -> RecordBatch {
    let runs = key_runs(batch, partition);
    let mut idx: Vec<u32> = (0..batch.num_rows() as u32).collect();
    for run in &runs {
        sort_indices(batch, &mut idx[run.clone()], order);
    }
    let value = match func {
        WindowFunc::RunningSum(c) => {
            let col = batch.column(*c);
            let mut data = Vec::with_capacity(idx.len());
            for run in &runs {
                let mut sum = 0.0;
                for &i in &idx[run.clone()] {
                    sum += col.cell(i as usize).as_f64().unwrap_or(0.0);
                    data.push(sum);
                }
            }
            ColumnVector::Float { data, nulls: None }
        }
        WindowFunc::RowNumber | WindowFunc::Rank => {
            let numbers_ties = matches!(func, WindowFunc::RowNumber);
            let mut data = Vec::with_capacity(idx.len());
            for run in &runs {
                let group = &idx[run.clone()];
                let mut rank = 0;
                for (n, &i) in group.iter().enumerate() {
                    let tied = n > 0
                        && compare_batch_rows(batch, group[n - 1] as usize, i as usize, order)
                            .is_eq();
                    if numbers_ties || !tied {
                        rank = n as i64 + 1;
                    }
                    data.push(rank);
                }
            }
            ColumnVector::Int { data, nulls: None }
        }
    };
    // Input already in window order (a sort below enforced it) moves whole.
    let mut columns = if idx.windows(2).all(|w| w[0] < w[1]) {
        batch.columns().to_vec()
    } else {
        RecordBatch::gather_columns(&[(batch, Some(&idx))])
    };
    columns.push(value.into());
    RecordBatch::new(columns, idx.len())
}

// ---------------------------------------------------------------------------
// User-defined operators
// ---------------------------------------------------------------------------

/// An Extract scan over one stored batch: the predicate selects rows and
/// the extractor processes the selection. As in the row engine, a predicate
/// error stops the scan at its row only after the extractor has seen every
/// earlier row, so an extractor error on an earlier row surfaces first.
fn extract_batch(
    udo: &Udo,
    predicate: Option<&Expr>,
    batch: &RecordBatch,
) -> Result<Option<RecordBatch>> {
    let Some(pred) = predicate else {
        return process_batch(udo, batch);
    };
    let (sel, stopped) = vexpr::eval_predicate_selection(pred, batch);
    let out = if sel.len() == batch.num_rows() {
        process_batch(udo, batch)?
    } else {
        process_batch(udo, &batch.take(&sel))?
    };
    stopped.map(|()| out)
}

/// A processor over one batch: the rows it emits for each input row, in
/// input order (`None` when it emits none). Tokenize emits its input row
/// once per whitespace-separated token with the token appended (none for
/// NULL text); ClampOutliers and ScoreModel emit each row once, clamping
/// one column or appending the score.
fn process_batch(udo: &Udo, batch: &RecordBatch) -> Result<Option<RecordBatch>> {
    let rows = batch.num_rows();
    if rows == 0 {
        return Ok(None);
    }
    match &udo.kind {
        UdoKind::Tokenize { col } => {
            let text = batch.column(*col);
            let (mut from, mut data) = (Vec::new(), StrVec::with_capacity(rows));
            for i in 0..rows {
                match text.cell(i) {
                    Cell::Str(s) => {
                        for token in s.split_whitespace() {
                            from.push(i as u32);
                            data.push(token);
                        }
                    }
                    Cell::Null => {}
                    other => {
                        let other = other.to_value();
                        return Err(ScopeError::Execution(format!("tokenize on {other}")));
                    }
                }
            }
            if from.is_empty() {
                return Ok(None);
            }
            let mut columns = RecordBatch::gather_columns(&[(batch, Some(&from))]);
            columns.push(ColumnVector::Str { data, nulls: None }.into());
            Ok(Some(RecordBatch::new(columns, from.len())))
        }
        UdoKind::ClampOutliers { col, lo, hi } => {
            // Through `f64`: an `Int` stays `Int`, and a `Float`, `Date` or
            // `Bool` becomes `Float`; NULLs and strings pass.
            let (cells, clamp) = (batch.column(*col), |v: f64| v.clamp(*lo as f64, *hi as f64));
            let clamped = (0..rows).map(|i| match cells.cell(i) {
                Cell::Int(x) => Value::Int(clamp(x as f64) as i64),
                c => c
                    .as_f64()
                    .map_or_else(|| c.to_value(), |v| Value::Float(clamp(v))),
            });
            let mut columns = batch.columns().to_vec();
            columns[*col] = ColumnVector::from_values(clamped.collect()).into();
            Ok(Some(RecordBatch::new(columns, rows)))
        }
        UdoKind::ScoreModel { cols, seed } => {
            let features: Vec<&ColumnVector> = cols.iter().map(|&c| batch.column(c)).collect();
            let score = |i| {
                let mut h = SipHasher24::new_with_keys(*seed, !*seed);
                for f in &features {
                    f.cell(i).stable_hash_into(&mut h);
                }
                (h.finish() >> 11) as f64 / (1u64 << 53) as f64
            };
            let data = (0..rows).map(score).collect();
            let mut columns = batch.columns().to_vec();
            columns.push(ColumnVector::Float { data, nulls: None }.into());
            Ok(Some(RecordBatch::new(columns, rows)))
        }
        other => Err(ScopeError::Execution(format!(
            "{} is not a row processor",
            other.name()
        ))),
    }
}

/// A reducer or per-group apply over one partition, each run of equal `keys`
/// one group (`None` when it emits no row). TrimBand keeps the rows whose
/// numeric cell lies in the group's `[min + gap, max - gap]`; CountRows
/// emits the group's smallest row (the first of equals) with the group's row
/// count appended; TopPerGroup keeps the group's first `n` rows by the
/// column descending, ties broken by the full row.
fn reduce_batch(udo: &Udo, batch: &RecordBatch, keys: &[usize]) -> Result<Option<RecordBatch>> {
    let runs = key_runs(batch, keys);
    if runs.is_empty() {
        return Ok(None);
    }
    let mut keep: Vec<u32> = Vec::new();
    match &udo.kind {
        UdoKind::TrimBand { col, gap } => {
            let value = |i: usize| batch.column(*col).cell(i).as_f64();
            for run in runs {
                let (mut min, mut max, mut any) = (f64::INFINITY, f64::NEG_INFINITY, false);
                for v in run.clone().filter_map(value) {
                    (min, max, any) = (min.min(v), max.max(v), true);
                }
                if any {
                    let (lo, hi) = (min + *gap as f64, max - *gap as f64);
                    let inside = |&i: &usize| value(i).is_some_and(|v| v >= lo && v <= hi);
                    keep.extend(run.filter(inside).map(|i| i as u32));
                }
            }
        }
        UdoKind::CountRows => {
            let data = runs.iter().map(|run| run.len() as i64).collect();
            // `min_by` keeps the first of equal rows.
            let smallest =
                |run: Range<usize>| run.min_by(|&a, &b| compare_batch_rows_full(batch, a, b));
            keep.extend(runs.into_iter().filter_map(smallest).map(|i| i as u32));
            let mut columns = RecordBatch::gather_columns(&[(batch, Some(&keep))]);
            columns.push(ColumnVector::Int { data, nulls: None }.into());
            return Ok(Some(RecordBatch::new(columns, keep.len())));
        }
        UdoKind::TopPerGroup { col, n } => {
            let order = SortOrder(vec![SortKey::desc(*col)]);
            for run in runs {
                let mut group: Vec<u32> = run.map(|i| i as u32).collect();
                sort_indices(batch, &mut group, &order);
                keep.extend(group.into_iter().take(*n));
            }
        }
        other => {
            return Err(ScopeError::Execution(format!(
                "{} is not a group reducer",
                other.name()
            )))
        }
    }
    Ok((!keep.is_empty()).then(|| batch.take(&keep)))
}

/// The MergeStreams combiner: each side gathered and stably sorted on column
/// 0, then the left side's rows followed by the right's, as one partition.
fn merge_streams(udo: &Udo, left: &Table, right: &Table) -> Result<Vec<Arc<RecordBatch>>> {
    if udo.kind != UdoKind::MergeStreams {
        return Err(ScopeError::Execution(format!(
            "{} is not a combiner",
            udo.kind.name()
        )));
    }
    let order = SortOrder::asc(&[0]);
    let sorted = |side: &Table| {
        let batch = side.gather().partition_as_batch(0);
        let mut idx: Vec<u32> = (0..batch.num_rows() as u32).collect();
        idx.sort_by(|&a, &b| compare_batch_rows(&batch, a as usize, b as usize, &order));
        (batch, idx)
    };
    // An empty side may be a zero-width batch: it contributes no run.
    let sides = [sorted(left), sorted(right)];
    let runs: Vec<Rows<'_>> = sides
        .iter()
        .filter(|(_, idx)| !idx.is_empty())
        .map(|(batch, idx)| (&**batch, Some(idx.as_slice())))
        .collect();
    let merged = (!runs.is_empty()).then(|| Arc::new(RecordBatch::gather(&runs)));
    Ok(merged.into_iter().collect())
}

// ---------------------------------------------------------------------------
// Vectorized aggregation
// ---------------------------------------------------------------------------

/// Aggregate accumulator for one group.
///
/// Float inputs are added in a *deterministic order* once all are seen
/// ([`Acc::settle_floats`]): IEEE addition is not associative, so summing in
/// physical arrival order would make results depend on partitioning — and a
/// view-fed plan (different partition order) could differ from the baseline
/// in the last ulp. The caller keeps the inputs, one buffer per partition or
/// run, not one per group. Integer sums stay incremental.
#[derive(Default)]
struct Acc {
    count: u64,
    int_sum: i64,
    /// The float inputs' total in IEEE total order; 0 when there are none.
    float_sum: f64,
    sum_is_float: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<Value>,
    non_null: u64,
}

impl Acc {
    /// Feeds one borrowed cell: only MIN/MAX/COUNT DISTINCT ever
    /// materialize a [`Value`]. A float input of SUM/AVG is handed back for
    /// the caller to keep until [`Acc::settle_floats`].
    #[must_use]
    fn update_cell(&mut self, func: AggFunc, c: Cell<'_>) -> Option<f64> {
        self.count += 1;
        if c.is_null() {
            return None;
        }
        self.non_null += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match c {
                Cell::Float(f) => return Some(f),
                other => {
                    if let Some(x) = other.as_i64() {
                        self.add_int(x);
                    }
                }
            },
            AggFunc::Min => {
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| c.cmp_cell(Cell::of(m)).is_lt())
                {
                    self.min = Some(c.to_value());
                }
            }
            AggFunc::Max => {
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| c.cmp_cell(Cell::of(m)).is_gt())
                {
                    self.max = Some(c.to_value());
                }
            }
            AggFunc::CountDistinct => {
                self.distinct.insert(c.to_value());
            }
        }
        None
    }

    // Typed bulk helpers for the monomorphized hash-aggregate loops. Each
    // mirrors a slice of `update_cell`'s effect on the fields that the
    // corresponding `finish` arm reads; callers must feed every group row
    // through `bump_rows` exactly once and only non-null values into the
    // value-carrying updates.

    /// COUNT/SUM/AVG bookkeeping: `rows` cells seen, `non_null` of them non-NULL.
    fn bump_rows(&mut self, rows: u64, non_null: u64) {
        self.count += rows;
        self.non_null += non_null;
    }

    /// One non-null integer into a SUM/AVG (wrapping).
    fn add_int(&mut self, x: i64) {
        self.int_sum = self.int_sum.wrapping_add(x);
    }

    /// Every non-null float input of the group as its [`total_key`], in any
    /// order: sorted, mapped back, then added — in IEEE total order. Two keys
    /// are equal only when the floats' bits are, so an unstable sort adds
    /// them in one order too.
    fn settle_floats(&mut self, keys: &mut [i64]) {
        if keys.is_empty() {
            return;
        }
        keys.sort_unstable();
        self.sum_is_float = true;
        self.float_sum = keys
            .iter()
            .map(|&k| f64::from_bits(total_key(k) as u64))
            .sum();
    }

    /// Order-insensitive SUM/AVG total.
    fn float_total(&self) -> f64 {
        self.float_sum + self.int_sum as f64
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum | AggFunc::Avg if self.non_null == 0 => Value::Null,
            AggFunc::Sum if self.sum_is_float => Value::Float(self.float_total()),
            AggFunc::Sum => Value::Int(self.int_sum),
            AggFunc::Avg => Value::Float(self.float_total() / self.non_null as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::CountDistinct => Value::Int(self.distinct.len() as i64),
        }
    }
}

/// `(group, item)` pairs laid out by group in one buffer — counts, prefix
/// sums, then a fill in input order: group `g`'s items are
/// `items[start[g]..start[g + 1]]`. Returns `(start, items)`.
fn by_group<T: Copy + Default>(
    groups: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut start = vec![0usize; groups + 1];
    for (g, _) in pairs.clone() {
        start[g as usize + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut items = vec![T::default(); start[groups]];
    for (g, item) in pairs {
        items[next[g as usize]] = item;
        next[g as usize] += 1;
    }
    (start, items)
}

/// `f64::total_cmp` as an `i64` order on a float's bits: the magnitude
/// flipped when the sign is set. The map is its own inverse.
fn total_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64 >> 1) as i64)
}

/// Settles the float inputs of every group at once, their keys laid out by
/// group in one buffer: each group's slice goes to [`Acc::settle_floats`].
fn settle_group_floats(accs: &mut [Acc], inputs: impl Iterator<Item = (u32, f64)> + Clone) {
    let keyed = inputs.map(|(g, f)| (g, total_key(f.to_bits() as i64)));
    let (start, mut keys) = by_group(accs.len(), keyed);
    for (g, acc) in accs.iter_mut().enumerate() {
        acc.settle_floats(&mut keys[start[g]..start[g + 1]]);
    }
}

/// Null-test closure over a typed column's optional mask.
fn null_at(nulls: &Option<NullMask>) -> impl Fn(usize) -> bool + '_ {
    move |i| nulls.as_ref().is_some_and(|m| m[i])
}

/// `(lo, hi, span)` of the non-NULL keys; span 0 when there are none. The
/// span is taken in `i128`: `i64::MIN` and `i64::MAX` may share a column.
fn key_range(
    rows: usize,
    key_at: impl Fn(usize) -> i64,
    is_null: impl Fn(usize) -> bool,
) -> (i64, i64, u128) {
    let (mut lo, mut hi, mut any) = (i64::MAX, i64::MIN, false);
    for i in 0..rows {
        if !is_null(i) {
            let v = key_at(i);
            lo = lo.min(v);
            hi = hi.max(v);
            any = true;
        }
    }
    let span = if any {
        (hi as i128 - lo as i128) as u128 + 1
    } else {
        0
    };
    (lo, hi, span)
}

/// True when a key span is small enough, relative to the rows that carry
/// it, for a direct-address table instead of a hash map.
fn is_dense(span: u128, rows: usize) -> bool {
    span <= (rows as u128) * 4 + 1024 && span <= 1 << 21
}

/// Single-key grouping over a hashable key borrowed from the column (`None`
/// = NULL, its own group). Group ids are assigned in first-seen row order,
/// matching the generic `HashMap<Vec<Value>>` kernel exactly.
fn group_by_key<K: std::hash::Hash + Eq>(
    rows: usize,
    key_at: impl Fn(usize) -> Option<K>,
) -> (Vec<u32>, Vec<u32>) {
    let mut group_of = Vec::with_capacity(rows);
    let mut firsts = Vec::new();
    let mut map: WordMap<Option<K>, u32> = WordMap::default();
    for i in 0..rows {
        let gid = *map.entry(key_at(i)).or_insert_with(|| {
            firsts.push(i as u32);
            (firsts.len() - 1) as u32
        });
        group_of.push(gid);
    }
    (group_of, firsts)
}

/// Monomorphized single-key grouping over an i64-valued key accessor, with
/// the group-id contract of [`group_by_key`]. Small key ranges get a
/// direct-address table instead of a hash map.
fn group_typed_ints(
    rows: usize,
    key_at: impl Fn(usize) -> i64,
    is_null: impl Fn(usize) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let (lo, _, span) = key_range(rows, &key_at, &is_null);
    if !is_dense(span, rows) {
        return group_by_key(rows, |i| (!is_null(i)).then(|| key_at(i)));
    }
    let mut group_of = Vec::with_capacity(rows);
    let mut firsts = Vec::new();
    let mut table = vec![u32::MAX; span as usize];
    let mut null_gid = u32::MAX;
    for i in 0..rows {
        let slot = if is_null(i) {
            &mut null_gid
        } else {
            &mut table[(key_at(i) - lo) as usize]
        };
        if *slot == u32::MAX {
            *slot = firsts.len() as u32;
            firsts.push(i as u32);
        }
        group_of.push(*slot);
    }
    (group_of, firsts)
}

/// Group index per input row, plus each group's first row in first-seen
/// order — the seed hash aggregate's grouping, computed column-wise with a
/// typed fast path for single integer-like keys.
fn group_rows(batch: &RecordBatch, keys: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let rows = batch.num_rows();

    if let [k] = keys {
        // Typed single-key grouping: one i64 or borrowed `&str` (or NULL)
        // per row. Valid because a typed column never mixes types, so key
        // equality coincides with Value equality.
        match batch.column(*k) {
            ColumnVector::Int { data, nulls } => {
                return group_typed_ints(rows, |i| data[i], null_at(nulls));
            }
            ColumnVector::Date { data, nulls } => {
                return group_typed_ints(rows, |i| data[i] as i64, null_at(nulls));
            }
            ColumnVector::Str { data, nulls } => {
                let is_null = null_at(nulls);
                return group_by_key(rows, |i| (!is_null(i)).then(|| data.get(i)));
            }
            _ => {}
        }
    }

    let mut group_of = Vec::with_capacity(rows);
    let mut firsts = Vec::new();
    let mut map: WordMap<Vec<Value>, u32> = WordMap::default();
    for i in 0..rows {
        let key: Vec<Value> = keys.iter().map(|&k| batch.cell(i, k).to_value()).collect();
        let gid = *map.entry(key).or_insert_with(|| {
            firsts.push(i as u32);
            (firsts.len() - 1) as u32
        });
        group_of.push(gid);
    }
    (group_of, firsts)
}

/// The aggregate's output over one partition: per group, the key cells of
/// its row `firsts[g]`, then `finished[j][g]` for each aggregate `j`.
fn aggregate_output(
    batch: &RecordBatch,
    keys: &[usize],
    firsts: &[u32],
    finished: Vec<Vec<Value>>,
) -> RecordBatch {
    let key_columns = keys.iter().map(|&k| batch.columns()[k].clone()).collect();
    let key_batch = RecordBatch::new(key_columns, batch.num_rows());
    let mut columns = RecordBatch::gather_columns(&[(&key_batch, Some(firsts))]);
    let aggregates = finished
        .into_iter()
        .map(|v| ColumnVector::from_values(v).into());
    columns.extend(aggregates);
    RecordBatch::new(columns, firsts.len())
}

fn hash_aggregate_batch(
    batch: &RecordBatch,
    keys: &[usize],
    aggs: &[AggExpr],
) -> Option<RecordBatch> {
    let rows = batch.num_rows();
    if rows == 0 {
        return None;
    }
    let (group_of, firsts) = group_rows(batch, keys);
    let ngroups = firsts.len();
    let mut group_sizes = vec![0u64; ngroups];
    for &g in &group_of {
        group_sizes[g as usize] += 1;
    }

    // Column-wise accumulation: one pass per aggregate over its input
    // column. COUNT/SUM/AVG over typed numeric columns run monomorphized
    // loops feeding the exact `Acc` fields their `finish` arm reads;
    // everything else falls back to the borrowed-cell update.
    let mut finished = Vec::with_capacity(aggs.len());
    for a in aggs {
        let mut accs: Vec<Acc> = (0..ngroups).map(|_| Acc::default()).collect();
        if a.func == AggFunc::Count {
            // finish(Count) reads only the row count: no cell, no column.
            for (acc, &n) in accs.iter_mut().zip(&group_sizes) {
                acc.bump_rows(n, 0);
            }
            finished.push(accs.iter().map(|acc| acc.finish(a.func)).collect());
            continue;
        }
        let col = batch.column(a.input);
        match (a.func, col) {
            (AggFunc::Sum | AggFunc::Avg, ColumnVector::Int { data, nulls }) => {
                accumulate_sums(&mut accs, &group_of, &group_sizes, nulls, |acc, i| {
                    acc.add_int(data[i])
                });
            }
            (AggFunc::Sum | AggFunc::Avg, ColumnVector::Float { data, nulls }) => {
                accumulate_sums(&mut accs, &group_of, &group_sizes, nulls, |_, _| {});
                let null = null_at(nulls);
                let rows = group_of.iter().enumerate().filter(|&(i, _)| !null(i));
                settle_group_floats(&mut accs, rows.map(|(i, &g)| (g, data[i])));
            }
            _ => {
                let mut floats = Vec::new();
                for (i, &g) in group_of.iter().enumerate() {
                    floats.extend(
                        accs[g as usize]
                            .update_cell(a.func, col.cell(i))
                            .map(|f| (g, f)),
                    );
                }
                settle_group_floats(&mut accs, floats.iter().copied());
            }
        }
        finished.push(accs.iter().map(|acc| acc.finish(a.func)).collect());
    }
    Some(aggregate_output(batch, keys, &firsts, finished))
}

/// SUM/AVG inner loop shared by the typed numeric columns: `add` feeds one
/// non-null value into its group's accumulator; row/non-null counts are
/// bulk-applied afterwards so the per-row work is a single indexed update.
fn accumulate_sums(
    accs: &mut [Acc],
    group_of: &[u32],
    group_sizes: &[u64],
    nulls: &Option<NullMask>,
    mut add: impl FnMut(&mut Acc, usize),
) {
    match nulls {
        None => {
            for (i, &g) in group_of.iter().enumerate() {
                add(&mut accs[g as usize], i);
            }
            for (acc, &n) in accs.iter_mut().zip(group_sizes) {
                acc.bump_rows(n, n);
            }
        }
        Some(mask) => {
            let mut non_null = vec![0u64; accs.len()];
            for (i, &g) in group_of.iter().enumerate() {
                if !mask[i] {
                    non_null[g as usize] += 1;
                    add(&mut accs[g as usize], i);
                }
            }
            for ((acc, &n), &nn) in accs.iter_mut().zip(group_sizes).zip(&non_null) {
                acc.bump_rows(n, nn);
            }
        }
    }
}

fn stream_aggregate_batch(
    batch: &RecordBatch,
    keys: &[usize],
    aggs: &[AggExpr],
) -> Option<RecordBatch> {
    let runs = key_runs(batch, keys);
    if runs.is_empty() {
        return None;
    }
    let finished = aggs
        .iter()
        .map(|a| {
            if a.func == AggFunc::Count {
                // A group's row count: no cell, no column.
                return runs
                    .iter()
                    .map(|run| Value::Int(run.len() as i64))
                    .collect();
            }
            let col = batch.column(a.input);
            let mut floats = Vec::new();
            let mut finish = |run: &Range<usize>| {
                let mut acc = Acc::default();
                floats.clear();
                for i in run.clone() {
                    let float = acc.update_cell(a.func, col.cell(i));
                    floats.extend(float.map(|f| total_key(f.to_bits() as i64)));
                }
                acc.settle_floats(&mut floats);
                acc.finish(a.func)
            };
            runs.iter().map(&mut finish).collect()
        })
        .collect();
    let firsts: Vec<u32> = runs.iter().map(|run| run.start as u32).collect();
    Some(aggregate_output(batch, keys, &firsts, finished))
}

// ---------------------------------------------------------------------------
// Vectorized hash join
// ---------------------------------------------------------------------------

fn exec_join(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    implementation: JoinImpl,
    left_keys: &[usize],
    right_keys: &[usize],
    out_schema: &Schema,
) -> Result<Table> {
    // Hash and merge joins pair co-partitions. A loops join's right side is
    // gathered single (enforced), and every left partition probes it: the
    // same output, left-row-major with matches in right arrival order.
    let broadcast = implementation == JoinImpl::Loops;
    let paired = if broadcast {
        right.num_partitions() > 0
    } else {
        left.num_partitions() == right.num_partitions()
    };
    if !paired {
        return Err(ScopeError::Execution(format!(
            "join partition mismatch: {} vs {}",
            left.num_partitions(),
            right.num_partitions()
        )));
    }
    let rwidth = right.schema.len();
    // The broadcast side is concatenated, and its key read, once.
    let one = broadcast.then(|| right.partition_as_batch(0));
    let parts = (0..left.num_partitions())
        .map(|p| {
            let rb = one.clone().unwrap_or_else(|| right.partition_as_batch(p));
            hash_join_batch(
                &left.partition_as_batch(p),
                &rb,
                kind,
                left_keys,
                right_keys,
                rwidth,
            )
        })
        .collect();
    let props = PhysicalProps {
        partitioning: left.props.partitioning.clone(),
        sort: SortOrder::none(),
    };
    Ok(Table::from_batches(out_schema.clone(), parts, props))
}

/// Right-side groups of row indices plus, per left row, the matching group.
/// Group `g` holds the right rows `rows[start[g]..start[g + 1]]` in arrival
/// order: one buffer for all groups, not one per distinct key.
struct BuildProbe {
    start: Vec<usize>,
    rows: Vec<u32>,
    lgroup: Vec<Option<u32>>,
}

/// A right row whose key joins nothing (NULL).
const NO_GROUP: u32 = u32::MAX;

impl BuildProbe {
    /// Lays out the right rows by group from each right row's group id
    /// among `groups`.
    fn new(rgroup: &[u32], groups: usize, lgroup: Vec<Option<u32>>) -> BuildProbe {
        let joining = rgroup.iter().enumerate().filter(|&(_, &g)| g != NO_GROUP);
        let (start, rows) = by_group(groups, joining.map(|(i, &g)| (g, i as u32)));
        BuildProbe {
            start,
            rows,
            lgroup,
        }
    }

    /// The right rows of group `g`, in arrival order.
    fn matches(&self, g: u32) -> &[u32] {
        &self.rows[self.start[g as usize]..self.start[g as usize + 1]]
    }
}

/// Build/probe grouping: distinct non-NULL right keys get a group of right
/// row indices (arrival order); each left row resolves to its group or none.
fn build_probe<K: std::hash::Hash + Eq>(
    rrows: usize,
    lrows: usize,
    rkey: impl Fn(usize) -> Option<K>,
    lkey: impl Fn(usize) -> Option<K>,
) -> BuildProbe {
    let mut map: WordMap<K, u32> = WordMap::default();
    let rgroup: Vec<u32> = (0..rrows)
        .map(|i| match rkey(i) {
            Some(k) => {
                let next = map.len() as u32;
                *map.entry(k).or_insert(next)
            }
            None => NO_GROUP,
        })
        .collect();
    let lgroup = (0..lrows)
        .map(|i| lkey(i).and_then(|k| map.get(&k).copied()))
        .collect();
    BuildProbe::new(&rgroup, map.len(), lgroup)
}

/// Monomorphized i64 build/probe with the same group-id contract as
/// [`build_probe`] (build groups in right arrival order, NULL keys never
/// match). Small build-key ranges use a direct-address table so the probe
/// is an array lookup per left row instead of a hash.
fn build_probe_ints(
    rrows: usize,
    lrows: usize,
    rkey: impl Fn(usize) -> i64,
    rnull: impl Fn(usize) -> bool,
    lkey: impl Fn(usize) -> Option<i64>,
) -> BuildProbe {
    let (lo, hi, span) = key_range(rrows, &rkey, &rnull);
    if is_dense(span, rrows) {
        let mut table = vec![u32::MAX; span as usize];
        let mut groups = 0;
        let rgroup: Vec<u32> = (0..rrows)
            .map(|i| {
                if rnull(i) {
                    return NO_GROUP;
                }
                let slot = &mut table[(rkey(i) - lo) as usize];
                if *slot == u32::MAX {
                    *slot = groups;
                    groups += 1;
                }
                *slot
            })
            .collect();
        let lgroup = (0..lrows)
            .map(|i| {
                let k = lkey(i).filter(|k| (lo..=hi).contains(k))?;
                let g = table[(k - lo) as usize];
                (g != u32::MAX).then_some(g)
            })
            .collect();
        BuildProbe::new(&rgroup, groups as usize, lgroup)
    } else {
        build_probe(rrows, lrows, |i| (!rnull(i)).then(|| rkey(i)), lkey)
    }
}

/// Joins one left partition against one right partition: build on the
/// right (NULL keys never join), probe the left in arrival order. LeftOuter
/// pads unmatched rows to `rwidth`, the right *schema* width.
fn hash_join_batch(
    lb: &RecordBatch,
    rb: &RecordBatch,
    kind: JoinKind,
    left_keys: &[usize],
    right_keys: &[usize],
    rwidth: usize,
) -> Vec<Arc<RecordBatch>> {
    let lrows = lb.num_rows();
    if lrows == 0 {
        return Vec::new();
    }
    let rrows = rb.num_rows();

    // Typed single-key fast path: both sides must be the *same* concrete
    // type — Value equality is cross-type for numerics, but a typed column
    // never mixes types, so same-variant i64 equality is exact. An empty
    // right side may be a zero-width batch whose key columns don't exist;
    // the row kernel never touches right keys then, so neither may we.
    let typed: Option<BuildProbe> = if let (true, [lk], [rk]) = (rrows > 0, left_keys, right_keys) {
        // The left key is probed where it lies, through its picks: the join
        // copies no probe key. `lkey` finds a non-NULL key's source and row.
        let (lsources, at) = lb.columns()[*lk].locate();
        let lkey = |i| Some(at(i)).filter(|&(s, r)| !lsources[s].is_null(r));
        macro_rules! left {
            ($variant:ident) => {
                lsources
                    .iter()
                    .map(|c| match c {
                        ColumnVector::$variant { data, .. } => Some(data),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
            };
        }
        match rb.column(*rk) {
            ColumnVector::Int { data: rd, nulls } => left!(Int).map(|ld| {
                let lkey = |i| lkey(i).map(|(s, r)| ld[s][r]);
                build_probe_ints(rrows, lrows, |i| rd[i], null_at(nulls), lkey)
            }),
            ColumnVector::Date { data: rd, nulls } => left!(Date).map(|ld| {
                let lkey = |i| lkey(i).map(|(s, r)| ld[s][r] as i64);
                build_probe_ints(rrows, lrows, |i| rd[i] as i64, null_at(nulls), lkey)
            }),
            // Strings probe on `&str` keys borrowed from the two columns.
            ColumnVector::Str { data: rd, nulls } => left!(Str).map(|ld| {
                let (rnull, lkey) = (null_at(nulls), |i| lkey(i).map(|(s, r)| ld[s].get(r)));
                build_probe(rrows, lrows, |i| (!rnull(i)).then(|| rd.get(i)), lkey)
            }),
            _ => None,
        }
    } else {
        None
    };
    let built = typed.unwrap_or_else(|| {
        // NULL keys never join: test before materializing the key.
        let key_of = |b: &RecordBatch, keys: &[usize], i: usize| -> Option<Vec<Value>> {
            if keys.iter().any(|&k| b.column(k).is_null(i)) {
                return None;
            }
            Some(keys.iter().map(|&k| b.cell(i, k).to_value()).collect())
        };
        build_probe(
            rrows,
            lrows,
            |i| key_of(rb, right_keys, i),
            |i| key_of(lb, left_keys, i),
        )
    });

    // Emit phase: index pairs, then recipes over both inputs — no copy.
    let batch = match kind {
        JoinKind::LeftSemi => {
            let sel: Vec<u32> = (0..lrows as u32)
                .filter(|&i| built.lgroup[i as usize].is_some())
                .collect();
            if sel.is_empty() {
                return Vec::new();
            }
            lb.take(&sel)
        }
        JoinKind::Inner => {
            let mut lidx: Vec<u32> = Vec::with_capacity(lrows);
            let mut ridx: Vec<u32> = Vec::with_capacity(lrows);
            for (i, g) in built.lgroup.iter().enumerate() {
                if let Some(g) = g {
                    let matches = built.matches(*g);
                    lidx.resize(lidx.len() + matches.len(), i as u32);
                    ridx.extend_from_slice(matches);
                }
            }
            if lidx.is_empty() {
                return Vec::new();
            }
            let mut cols = RecordBatch::gather_columns(&[(lb, Some(&lidx))]);
            cols.extend(RecordBatch::gather_columns(&[(rb, Some(&ridx))]));
            RecordBatch::new(cols, lidx.len())
        }
        JoinKind::LeftOuter => {
            let mut lidx: Vec<u32> = Vec::with_capacity(lrows);
            let mut ridx: Vec<Option<u32>> = Vec::with_capacity(lrows);
            for (i, g) in built.lgroup.iter().enumerate() {
                match g {
                    Some(g) => {
                        let matches = built.matches(*g);
                        lidx.resize(lidx.len() + matches.len(), i as u32);
                        ridx.extend(matches.iter().copied().map(Some));
                    }
                    None => {
                        lidx.push(i as u32);
                        ridx.push(None);
                    }
                }
            }
            // The padded side has holes no pick can name: gathered here. An
            // empty right partition may have no columns at all; its padding
            // is all-NULL columns, the shape `from_values` gives them.
            let mut cols = RecordBatch::gather_columns(&[(lb, Some(&lidx))]);
            cols.extend((0..rwidth).map(|j| match rrows {
                0 => ColumnVector::Mixed(vec![Value::Null; lidx.len()]).into(),
                _ => rb.column(j).take_opt(&ridx).into(),
            }));
            RecordBatch::new(cols, lidx.len())
        }
    };
    vec![Arc::new(batch)]
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{multiset_checksum, Row};
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::op::WindowFunc;
    use scope_plan::{DataType, Expr, PlanBuilder, SortKey, Udo, UdoKind};
    use std::cell::Cell as Counter;

    fn storage_with(rows: Vec<Row>, schema: Schema) -> StorageManager {
        let s = StorageManager::new();
        s.put_dataset(DatasetId::new(1), Table::single(schema, rows));
        s
    }

    fn kv_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn kv_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect()
    }

    fn run(graph: &QueryGraph, storage: &StorageManager) -> ExecOutcome {
        execute_plan(graph, storage, &CostModel, SimTime::ZERO).unwrap()
    }

    #[test]
    fn scan_filter_output() {
        let storage = storage_with(kv_rows(100), kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let f = b.filter(s, Expr::col(0).eq(Expr::lit(2i64)));
        let g = b.output(f, "o").build().unwrap();
        let out = run(&g, &storage);
        assert_eq!(out.outputs["o"].num_rows(), 20);
        assert_eq!(out.node_stats[0].in_rows, 100);
        assert_eq!(out.node_stats[1].out_rows, 20);
        assert!(out.total_cpu() > SimDuration::ZERO);
    }

    #[test]
    fn count_reads_no_column() {
        // 300 rows through a take: every column a recipe. The second COUNT
        // names no column of the batch at all.
        let count = [
            AggExpr::new("n", AggFunc::Count, 1),
            AggExpr::new("m", AggFunc::Count, 9),
        ];
        let reversed: Vec<u32> = (0..300).rev().collect();
        let gathered = |kernel: fn(&RecordBatch, &[usize], &[AggExpr]) -> _, aggs| {
            let batch = Table::single(kv_schema(), kv_rows(300))
                .partition_as_batch(0)
                .take(&reversed);
            let before = cells_gathered();
            let out: Option<RecordBatch> = kernel(&batch, &[0], aggs);
            (out.unwrap(), cells_gathered() - before)
        };
        for kernel in [hash_aggregate_batch, stream_aggregate_batch] {
            // The group key is read either way; neither COUNT reads a cell.
            let (out, cells) = gathered(kernel, &count);
            assert_eq!(cells, gathered(kernel, &[]).1);
            let total: i64 = (0..out.num_rows())
                .map(|g| out.cell(g, 1).as_i64().unwrap())
                .sum();
            assert_eq!(total, 300);
            assert_eq!(out.row(0)[1], out.row(0)[2]);
        }
    }

    #[test]
    fn hash_aggregate_groups() {
        let storage = storage_with(kv_rows(100), kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let a = b.aggregate(
            s,
            vec![0],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 1),
                AggExpr::new("sum", AggFunc::Sum, 1),
                AggExpr::new("mx", AggFunc::Max, 1),
            ],
        );
        let g = b.output(a, "o").build().unwrap();
        let out = run(&g, &storage);
        let result = &out.outputs["o"];
        assert_eq!(result.num_rows(), 5);
        for row in result.all_rows() {
            assert_eq!(row[1], Value::Int(20)); // 20 rows per key
            let k = row[0].as_i64().unwrap();
            // sum of k, k+5, ..., k+95 = 20k + 5*(0+..+19)*? -> compute:
            let expect: i64 = (0..100).filter(|i| i % 5 == k).sum();
            assert_eq!(row[2], Value::Int(expect));
            assert_eq!(row[3], Value::Int(95 + k)); // max element ≡ k mod 5
        }
    }

    #[test]
    fn stream_vs_hash_aggregate_agree_on_sorted_input() {
        let rows = kv_rows(60);
        let storage = storage_with(rows, kv_schema());
        let aggs = vec![
            AggExpr::new("cnt", AggFunc::Count, 1),
            AggExpr::new("avg", AggFunc::Avg, 1),
            AggExpr::new("cd", AggFunc::CountDistinct, 1),
        ];
        let build = |implementation| {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
            let sorted = b.sort(s, SortOrder::asc(&[0]));
            let a = b.aggregate(sorted, vec![0], aggs.clone());
            let g = b.output(a, "o").build().unwrap();
            // Patch implementation.
            let mut g2 = g.clone();
            if let Operator::Aggregate {
                implementation: impl_,
                ..
            } = &mut g2.node_mut(a).unwrap().op
            {
                *impl_ = implementation;
            }
            g2
        };
        let hash_out = run(&build(AggImpl::Hash), &storage);
        let stream_out = run(&build(AggImpl::Stream), &storage);
        assert_eq!(
            multiset_checksum(&hash_out.outputs["o"]),
            multiset_checksum(&stream_out.outputs["o"])
        );
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let storage = storage_with(vec![], kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let a = b.aggregate(
            s,
            vec![],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 0),
                AggExpr::new("sum", AggFunc::Sum, 1),
            ],
        );
        let g = b.output(a, "o").build().unwrap();
        let out = run(&g, &storage);
        let rows = out.outputs["o"].all_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
    }

    #[test]
    fn exchange_then_aggregate_partitioned() {
        let storage = storage_with(kv_rows(100), kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let ex = b.exchange(
            s,
            Partitioning::Hash {
                cols: vec![0],
                parts: 4,
            },
        );
        let a = b.aggregate(ex, vec![0], vec![AggExpr::new("cnt", AggFunc::Count, 1)]);
        let g = b.output(a, "o").build().unwrap();
        let out = run(&g, &storage);
        // Co-partitioned: aggregate per-partition is globally correct.
        assert_eq!(out.outputs["o"].num_rows(), 5);
        for row in out.outputs["o"].all_rows() {
            assert_eq!(row[1], Value::Int(20));
        }
    }

    #[test]
    fn joins_inner_outer_semi() {
        let storage = StorageManager::new();
        storage.put_dataset(
            DatasetId::new(1),
            Table::single(
                kv_schema(),
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                    vec![Value::Int(3), Value::Int(30)],
                ],
            ),
        );
        storage.put_dataset(
            DatasetId::new(2),
            Table::single(
                kv_schema(),
                vec![
                    vec![Value::Int(2), Value::Int(200)],
                    vec![Value::Int(2), Value::Int(201)],
                    vec![Value::Int(3), Value::Int(300)],
                ],
            ),
        );
        let build = |kind| {
            let mut b = PlanBuilder::new();
            let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
            let r = b.table_scan(DatasetId::new(2), "r", kv_schema());
            let j = b.join(l, r, kind, vec![0], vec![0]);
            b.output(j, "o").build().unwrap()
        };
        let inner = run(&build(JoinKind::Inner), &storage);
        assert_eq!(inner.outputs["o"].num_rows(), 3); // k=2 x2, k=3 x1
        let outer = run(&build(JoinKind::LeftOuter), &storage);
        assert_eq!(outer.outputs["o"].num_rows(), 4); // + unmatched k=1
        let padded: Vec<_> = outer.outputs["o"]
            .all_rows()
            .into_iter()
            .filter(|r| r[2].is_null())
            .collect();
        assert_eq!(padded.len(), 1);
        let semi = run(&build(JoinKind::LeftSemi), &storage);
        assert_eq!(semi.outputs["o"].num_rows(), 2); // k=2 and k=3 once
        assert_eq!(semi.outputs["o"].schema.len(), 2);
    }

    #[test]
    fn null_keys_never_join() {
        let storage = StorageManager::new();
        storage.put_dataset(
            DatasetId::new(1),
            Table::single(kv_schema(), vec![vec![Value::Null, Value::Int(1)]]),
        );
        storage.put_dataset(
            DatasetId::new(2),
            Table::single(kv_schema(), vec![vec![Value::Null, Value::Int(2)]]),
        );
        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
        let r = b.table_scan(DatasetId::new(2), "r", kv_schema());
        let j = b.join(l, r, JoinKind::Inner, vec![0], vec![0]);
        let g = b.output(j, "o").build().unwrap();
        assert_eq!(run(&g, &storage).outputs["o"].num_rows(), 0);
    }

    #[test]
    fn keys_spanning_the_whole_i64_range_group_and_join() {
        // `hi - lo` overflows i64 here; the span must be taken wider.
        let keys = [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Null,
            Value::Int(i64::MIN),
        ];
        let rows: Vec<Row> = keys
            .iter()
            .zip(0..)
            .map(|(k, i)| vec![k.clone(), Value::Int(i)])
            .collect();
        let storage = StorageManager::new();
        storage.put_dataset(DatasetId::new(1), Table::single(kv_schema(), rows.clone()));
        storage.put_dataset(DatasetId::new(2), Table::single(kv_schema(), rows));

        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let a = b.aggregate(s, vec![0], vec![AggExpr::new("cnt", AggFunc::Count, 1)]);
        let g = b.output(a, "o").build().unwrap();
        let mut groups = run(&g, &storage).outputs["o"].all_rows();
        groups.sort();
        assert_eq!(
            groups,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(i64::MIN), Value::Int(2)],
                vec![Value::Int(i64::MAX), Value::Int(1)],
            ]
        );

        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
        let r = b.table_scan(DatasetId::new(2), "r", kv_schema());
        let j = b.join(l, r, JoinKind::Inner, vec![0], vec![0]);
        let g = b.output(j, "o").build().unwrap();
        let joined = run(&g, &storage).outputs["o"].all_rows();
        // MIN x MIN = 4 pairs, MAX x MAX = 1, NULL never joins.
        assert_eq!(joined.len(), 5);
        assert!(joined
            .iter()
            .all(|row| row[0] == row[2] && !row[0].is_null()));
    }

    #[test]
    fn top_is_global_and_sorted() {
        let storage = storage_with(kv_rows(50), kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let ex = b.exchange(
            s,
            Partitioning::Hash {
                cols: vec![0],
                parts: 4,
            },
        );
        let gathered = b.exchange(ex, Partitioning::Single);
        let t = b.top(gathered, 3, SortOrder(vec![SortKey::desc(1)]));
        let g = b.output(t, "o").build().unwrap();
        let rows = run(&g, &storage).outputs["o"].all_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][1], Value::Int(49));
        assert_eq!(rows[1][1], Value::Int(48));
        assert_eq!(rows[2][1], Value::Int(47));
    }

    #[test]
    fn window_row_number_and_rank() {
        let schema = kv_schema();
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Int(5)],
        ];
        let storage = storage_with(rows, schema.clone());
        let build = |func| {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
            let sorted = b.sort(s, SortOrder::asc(&[0, 1]));
            let w = b.window(sorted, func, vec![0], SortOrder::asc(&[1]));
            b.output(w, "o").build().unwrap()
        };
        let rn = run(&build(WindowFunc::RowNumber), &storage);
        let rows: Vec<_> = rn.outputs["o"].all_rows();
        assert_eq!(rows[0][2], Value::Int(1));
        assert_eq!(rows[1][2], Value::Int(2));
        assert_eq!(rows[2][2], Value::Int(3));
        assert_eq!(rows[3][2], Value::Int(1)); // new partition
        let rk = run(&build(WindowFunc::Rank), &storage);
        let rows: Vec<_> = rk.outputs["o"].all_rows();
        assert_eq!(rows[0][2], Value::Int(1));
        assert_eq!(rows[1][2], Value::Int(1)); // tie
        assert_eq!(rows[2][2], Value::Int(3)); // gap
    }

    #[test]
    fn process_and_reduce_udos() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("text", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::Str("a b".into())],
            vec![Value::Int(2), Value::Str("c".into())],
        ];
        let storage = storage_with(rows, schema.clone());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", schema);
        let p = b.process(s, Udo::new(UdoKind::Tokenize { col: 1 }, "L", "1"));
        let g = b.output(p, "o").build().unwrap();
        assert_eq!(run(&g, &storage).outputs["o"].num_rows(), 3);
    }

    #[test]
    fn view_get_reads_store_and_respects_expiry() {
        use crate::storage::{ViewFile, ViewMeta};
        use scope_common::sip128;
        use std::sync::Arc;
        let storage = StorageManager::new();
        let table = Table::single(kv_schema(), kv_rows(10));
        let sig = sip128(b"view");
        storage
            .publish_view(ViewFile {
                table: Arc::new(table),
                props: PhysicalProps::single(),
                meta: ViewMeta {
                    precise: sig,
                    normalized: sip128(b"n"),
                    producer: scope_common::ids::JobId::new(1),
                    created_at: SimTime::ZERO,
                    expires_at: SimTime(100),
                    rows: 10,
                    bytes: 100,
                },
            })
            .unwrap();
        let mut g = QueryGraph::new();
        let v = g
            .add(
                Operator::ViewGet {
                    view_sig: sig,
                    schema: kv_schema(),
                    props: PhysicalProps::single(),
                },
                vec![],
            )
            .unwrap();
        let o = g
            .add(
                Operator::Output {
                    name: "o".into(),
                    stored: false,
                },
                vec![v],
            )
            .unwrap();
        g.add_root(o).unwrap();
        let out = execute_plan(&g, &storage, &CostModel, SimTime(50)).unwrap();
        assert_eq!(out.outputs["o"].num_rows(), 10);
        // Past expiry it errors.
        let err = execute_plan(&g, &storage, &CostModel, SimTime(100)).unwrap_err();
        assert_eq!(err.kind(), "view_unavailable");
        assert!(err.is_degradable());
    }

    #[test]
    fn union_all_concats() {
        let storage = storage_with(kv_rows(10), kv_schema());
        let mut b = PlanBuilder::new();
        let s1 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let s2 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let u = b.union_all(vec![s1, s2]);
        let g = b.output(u, "o").build().unwrap();
        assert_eq!(run(&g, &storage).outputs["o"].num_rows(), 20);
    }

    #[test]
    fn combine_merges_streams() {
        let storage = storage_with(kv_rows(6), kv_schema());
        let mut b = PlanBuilder::new();
        let s1 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let s2 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let c = b.combine(s1, s2, Udo::new(UdoKind::MergeStreams, "L", "1"));
        let g = b.output(c, "o").build().unwrap();
        assert_eq!(run(&g, &storage).outputs["o"].num_rows(), 12);
    }

    #[test]
    fn sequence_takes_last() {
        let storage = storage_with(kv_rows(4), kv_schema());
        let mut b = PlanBuilder::new();
        let s1 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let s2 = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let f = b.filter(s2, Expr::col(1).lt(Expr::lit(2i64)));
        let seq = b.sequence(vec![s1, f]);
        let g = b.output(seq, "o").build().unwrap();
        assert_eq!(run(&g, &storage).outputs["o"].num_rows(), 2);
    }

    /// `rows` rows of a key, a string with NULLs and an integer.
    fn mixed_rows(rows: i64) -> (Schema, Vec<Row>) {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Int),
        ]);
        let row = |i: i64| {
            let s = match i % 5 {
                0 => Value::Null,
                n => Value::Str("x".repeat(n as usize)),
            };
            vec![Value::Int(i % 200), s, Value::Int(i)]
        };
        (schema, (0..rows).map(row).collect())
    }

    #[test]
    fn row_moving_nodes_take_their_bytes_from_their_child() {
        let (schema, rows) = mixed_rows(600);
        let storage = storage_with(rows, schema.clone());
        // Scan, a filter keeping 400 rows (a deferred take), then an
        // exchange, a sort and the output, or the output alone.
        let plan = |moves: bool| {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(DatasetId::new(1), "t", schema.clone());
            let mut top = b.filter(s, Expr::col(2).lt(Expr::lit(400i64)));
            if moves {
                let parts = Partitioning::Hash {
                    cols: vec![0],
                    parts: 4,
                };
                top = b.exchange(top, parts);
                top = b.sort(top, SortOrder::asc(&[2]));
            }
            b.output(top, "o").build().unwrap()
        };
        let walks = |graph: &QueryGraph| {
            let before = crate::data::tests::PICK_WALKS.with(Counter::get);
            let out = run(graph, &storage);
            (
                out,
                crate::data::tests::PICK_WALKS.with(Counter::get) - before,
            )
        };
        let (alone, alone_walks) = walks(&plan(false));
        let (moved, moved_walks) = walks(&plan(true));
        // The filter's string column is the one walk; nothing after it walks.
        assert_eq!((alone_walks, moved_walks), (1, 1));
        let filtered = moved.node_stats[1].out_bytes;
        for (i, stats) in moved.node_stats.iter().enumerate().skip(1) {
            assert_eq!(stats.out_bytes, filtered, "node {i}");
            assert_eq!(
                stats.out_bytes,
                moved.node_tables[i].num_bytes(),
                "node {i}"
            );
        }
        assert_eq!(alone.node_stats[2].out_bytes, filtered);
    }

    #[test]
    fn a_loops_join_gathers_its_right_side_once() {
        // 1,600 left rows in 1 or 8 partitions, each row matching one of 200
        // right rows held in four batches of one partition.
        let (schema, rows) = mixed_rows(1_600);
        let right_batches = rows[..200]
            .chunks(50)
            .map(|chunk| Table::single(schema.clone(), chunk.to_vec()).partitions[0][0].clone())
            .collect();
        let right =
            Table::from_batches(schema.clone(), vec![right_batches], PhysicalProps::single());
        let gathered = |parts: usize| {
            let storage = StorageManager::new();
            let split = rows
                .chunks(rows.len() / parts)
                .map(<[Row]>::to_vec)
                .collect();
            let props = PhysicalProps::any();
            storage.put_dataset(
                DatasetId::new(1),
                Table::from_rows(schema.clone(), split, props),
            );
            storage.put_dataset(DatasetId::new(2), right.clone());
            let mut b = PlanBuilder::new();
            let l = b.table_scan(DatasetId::new(1), "l", schema.clone());
            let r = b.table_scan(DatasetId::new(2), "r", schema.clone());
            let j = b.join(l, r, JoinKind::Inner, vec![0], vec![0]);
            let mut g = b.output(j, "o").build().unwrap();
            let Operator::Join { implementation, .. } = &mut g.node_mut(j).unwrap().op else {
                unreachable!("a join")
            };
            *implementation = JoinImpl::Loops;
            let out = run(&g, &storage);
            assert_eq!(out.outputs["o"].num_rows(), 1_600);
            out.cells_gathered
        };
        assert_eq!(gathered(1), gathered(8));
    }

    #[test]
    fn float_sums_settle_in_total_order_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0abc),
            f64::from_bits(0x7ff4_0000_0000_0000),
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            1e300,
            -1e-300,
        ];
        let mut rng = SmallRng::seed_from_u64(38);
        for case in 0..50 {
            let groups = rng.gen_range(1..6);
            let inputs: Vec<(u32, f64)> = (0..rng.gen_range(0..60))
                .map(|_| {
                    let f = match rng.gen_range(0..3) {
                        0 => special[rng.gen_range(0..special.len())],
                        1 => rng.gen_range(-1e6..1e6),
                        _ => rng.gen_range(-1.0..1.0) * 1e-310,
                    };
                    (rng.gen_range(0..groups), f)
                })
                .collect();
            let mut accs: Vec<Acc> = (0..groups).map(|_| Acc::default()).collect();
            settle_group_floats(&mut accs, inputs.iter().copied());
            for (g, acc) in accs.iter().enumerate() {
                let mut floats: Vec<f64> = inputs
                    .iter()
                    .filter(|&&(h, _)| h == g as u32)
                    .map(|&(_, f)| f)
                    .collect();
                floats.sort_unstable_by(f64::total_cmp);
                let want: f64 = floats.iter().sum();
                let got = acc.float_sum;
                assert_eq!(
                    acc.sum_is_float,
                    !floats.is_empty(),
                    "case {case} group {g}"
                );
                // Rust leaves the payload of a NaN that arithmetic returns
                // unspecified: a NaN total is only required to be a NaN.
                if want.is_nan() {
                    assert!(got.is_nan(), "case {case} group {g}");
                } else if acc.sum_is_float {
                    assert_eq!(got.to_bits(), want.to_bits(), "case {case} group {g}");
                }
                // The keys sort as the floats do, and map back to their bits.
                let mut keys: Vec<i64> = floats
                    .iter()
                    .map(|f| total_key(f.to_bits() as i64))
                    .collect();
                keys.sort_unstable();
                let back: Vec<u64> = keys.iter().map(|&k| total_key(k) as u64).collect();
                let bits: Vec<u64> = floats.iter().map(|f| f.to_bits()).collect();
                assert_eq!(back, bits, "case {case} group {g}");
            }
        }
    }

    #[test]
    fn stats_subgraph_cpu_partial() {
        let storage = storage_with(kv_rows(100), kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let f = b.filter(s, Expr::col(0).gt(Expr::lit(0i64)));
        let g = b.output(f, "o").build().unwrap();
        let out = run(&g, &storage);
        let sub = out.subgraph_cpu(&g, NodeId::new(1));
        assert!(sub > SimDuration::ZERO);
        assert!(sub < out.total_cpu());
    }
}
