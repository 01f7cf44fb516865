//! The columnar batch-at-a-time physical executor.
//!
//! [`execute_plan`] runs an optimized plan bottom-up against the
//! [`StorageManager`], producing the output table of every node plus the
//! per-node runtime statistics ([`NodeRuntimeStats`]) that feed the
//! CloudViews feedback loop: rows, bytes, and exclusive CPU from the
//! calibrated [`CostModel`].
//!
//! Operators process whole [`RecordBatch`]es: projections evaluate
//! expressions column-wise (`crate::vexpr`). Hash Aggregate and the join's
//! build and probe assign group ids in one kernel (`group_keys`): it reads
//! each key where it lies, through a recipe's picks, as a typed `i64` or
//! `&str` for one typed key column and as values otherwise, into one table —
//! direct-address for a dense integer range, word-hashed else. Stream
//! Aggregate takes its groups from runs of equal keys and shares hash
//! Aggregate's accumulation loop. Operators that only *move* rows — Filter,
//! Sort, Top, Exchange, the join emit — build recipes, not cells
//! ([`crate::data`], "gather on read"), and Remap, UnionAll, Spool and the
//! gathers to one partition hand columns on untouched; a column is copied
//! when an operator first reads it — a routing, sort or run key, an
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
use std::time::{Duration, Instant};

use scope_common::hash::{SipHasher24, WordMap};
use scope_common::ids::{DatasetId, NodeId};
use scope_common::time::{SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_plan::expr::AggFunc;
use scope_plan::op::{AggImpl, WindowFunc};
use scope_plan::{
    AggExpr, Cell, Expr, JoinImpl, JoinKind, OpKind, Operator, Partitioning, PhysicalProps,
    PlanNode, QueryGraph, ScanKind, Schema, SortDir, SortKey, SortOrder, Udo, UdoKind, Value,
};

use crate::cost::CostModel;
use crate::data::{
    coded, compare_batch_rows_full, cut, gathers, keys_of, row_order, Coded, Column, ColumnVector,
    Few, Lanes, Located, Partition, RecordBatch, Rows, StrVec, Table, Views, BUILD, COPY,
};
use crate::storage::StorageManager;
use crate::vexpr;

/// Observed execution statistics of one plan node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// Cells copied from column to column while the plan ran: small
    /// outputs copied at once, every deferred column some operator read,
    /// and LeftOuter padding. Columns forced later (an output checksum, a
    /// view publish) are not in it.
    pub cells_gathered: u64,
    /// Wall time spent copying those cells (in `node_wall`).
    pub copy_wall: Duration,
    /// Wall time of each node's kernel (same indexing as the graph arena):
    /// real time on this host, unlike the simulated `exclusive_cpu`.
    pub node_wall: Vec<Duration>,
    /// Wall time spent building recipes for deferred outputs (in `node_wall`).
    pub build_wall: Duration,
    /// Output columns those recipes hold.
    pub gather_columns: u64,
    /// Wall time of the whole plan: the kernels plus what runs around
    /// them (schema lookup, byte accounting, costing).
    pub wall: Duration,
    /// Hash exchanges of a dataset scan kept from an earlier plan.
    pub exchange_memo_hits: u64,
    /// Rows of single `Str` keys grouped, built or probed through codes.
    pub coded_key_rows: u64,
}

thread_local! {
    /// `Str` key rows grouped through codes on this thread.
    static CODED_KEY_ROWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
/// The kernels run first, the clock read once per node boundary (a kernel
/// starts when the one before ended); byte accounting and costing follow.
pub fn execute_plan(
    graph: &QueryGraph,
    storage: &StorageManager,
    model: &CostModel,
    now: SimTime,
) -> Result<ExecOutcome> {
    let nodes = graph.nodes();
    let mut tables: Vec<Table> = Vec::with_capacity(nodes.len());
    let mut stats: Vec<NodeRuntimeStats> = Vec::with_capacity(nodes.len());
    let mut node_wall: Vec<Duration> = Vec::with_capacity(nodes.len());
    let mut outputs = HashMap::new();
    let started = Instant::now();
    let (before, coded_before) = (gathers(), CODED_KEY_ROWS.get());
    // The plan's memoized schemas: the optimizer derived them when it
    // validated the plan, so this is a lookup.
    let schemas = graph.schemas()?;
    let mut exchange_memo_hits = 0;
    let mut mark = Instant::now();
    for node in nodes {
        // Most operators have one input, listed in place.
        let inputs: Few<&Table> = node.children.iter().map(|c| &tables[c.index()]).collect();
        let (table, scanned) = match stored_exchange(graph, node) {
            Some((dataset, scheme)) => {
                let (table, hit) = storage.dataset_exchange(dataset, inputs[0], scheme)?;
                exchange_memo_hits += u64::from(hit);
                (table, 0)
            }
            None => exec_node(&node.op, &inputs, &schemas[node.id.index()], storage, now)?,
        };
        let end = Instant::now();
        node_wall.push(end - mark);
        mark = end;
        tables.push(table);
        stats.push(NodeRuntimeStats {
            in_rows: scanned,
            ..NodeRuntimeStats::default()
        });
    }

    for (node, table) in nodes.iter().zip(&tables) {
        // A leaf's rows in are the rows it scanned.
        let in_rows = match &node.children[..] {
            [] => stats[node.id.index()].in_rows,
            children => children
                .iter()
                .map(|c| tables[c.index()].num_rows() as u64)
                .sum(),
        };
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
        if let Operator::Output { name, .. } = &node.op {
            // The Output kernel already gathered; a clone shares the batch
            // buffers instead of re-materializing the table.
            outputs.insert(name.as_str().to_string(), table.clone());
        }
        stats[node.id.index()] = NodeRuntimeStats {
            in_rows,
            out_rows,
            out_bytes,
            exclusive_cpu: model.op_cpu(&node.op, in_rows, out_rows, out_bytes),
        };
    }

    let after = gathers();
    let [(build_wall, gather_columns), (copy_wall, cells_gathered)] =
        [BUILD, COPY].map(|k| (after[k].0 - before[k].0, after[k].1 - before[k].1));
    Ok(ExecOutcome {
        node_tables: tables,
        node_stats: stats,
        outputs,
        cells_gathered,
        copy_wall,
        node_wall,
        build_wall,
        gather_columns,
        wall: started.elapsed(),
        exchange_memo_hits,
        coded_key_rows: CODED_KEY_ROWS.get() - coded_before,
    })
}

/// The dataset and scheme of a hash Exchange whose one input is an
/// unfiltered `Table` scan, which [`StorageManager::dataset_exchange`] keeps.
fn stored_exchange<'g>(
    graph: &'g QueryGraph,
    node: &'g PlanNode,
) -> Option<(DatasetId, &'g Partitioning)> {
    let (Operator::Exchange { scheme }, [c]) = (&node.op, &node.children[..]) else {
        return None;
    };
    match (scheme, &graph.nodes()[c.index()].op) {
        (
            Partitioning::Hash { .. },
            scan @ Operator::Get {
                dataset,
                predicate: None,
                ..
            },
        ) if scan.kind() == OpKind::TableScan => Some((*dataset, scheme)),
        _ => None,
    }
}

/// What a row-wise kernel makes of a whole batch: its output and, unless
/// each output row is the input row at its position, the input row each
/// output row came from (ascending). `None`: no row.
type RowsOut = Option<(RecordBatch, Option<Vec<u32>>)>;

/// The rows of a whole batch where `predicate` holds (all of them without
/// one).
fn filter_rows(batch: &RecordBatch, predicate: Option<&Expr>) -> Result<RowsOut> {
    let Some(pred) = predicate else {
        return Ok(Some((batch.clone(), None)));
    };
    let (sel, stopped) = vexpr::eval_predicate_selection(pred, batch);
    stopped?;
    Ok(match sel.len() {
        0 => None,
        n if n == batch.num_rows() => Some((batch.clone(), None)),
        _ => Some((batch.take(&sel), Some(sel))),
    })
}

/// Runs a row-wise `kernel` once per build the partitions of `input` are
/// cut from, in partition order, and cuts each partition's rows from its
/// output. A partition that holds only some rows of its build is gathered
/// whole and run alone, so no row outside `input` is evaluated.
fn map_rows(
    input: &Table,
    mut kernel: impl FnMut(&RecordBatch) -> Result<RowsOut>,
) -> Result<Vec<Partition>> {
    let views = input.views();
    let mut parts: Vec<Partition> = Vec::new();
    for (b, base) in views.bases.iter().enumerate() {
        let rows_of = |p: usize| match &views.parts[p] {
            Some((k, rows)) if *k == b => Some(rows.clone()),
            _ => None,
        };
        // Every partition, those of other bases empty.
        let mut cuts = if views.tiled(b) {
            let Some((out, from)) = kernel(base)? else {
                continue;
            };
            let mut end = 0;
            let counts = (0..views.parts.len()).map(|p| {
                rows_of(p).map_or(0, |rows| {
                    let start = end;
                    end = from.as_ref().map_or(rows.end, |f| {
                        f.partition_point(|&i| (i as usize) < rows.end)
                    });
                    end - start
                })
            });
            cut(&out, counts)
        } else {
            let mut alone = |rows| {
                let alone = RecordBatch::gather(&[(&base.window(rows), None)]);
                Ok(kernel(&alone)?.map(|(out, _)| out).into())
            };
            let each = (0..views.parts.len())
                .map(|p| rows_of(p).map_or(Ok(Partition::default()), &mut alone));
            each.collect::<Result<Vec<_>>>()?
        };
        if parts.is_empty() {
            parts = cuts;
        } else {
            for p in (0..parts.len()).filter(|&p| rows_of(p).is_some()) {
                parts[p] = std::mem::take(&mut cuts[p]);
            }
        }
    }
    parts.resize(views.parts.len(), Partition::default());
    Ok(parts)
}

/// Runs a per-partition `kernel` over every partition of `input` as rows of
/// its base, in partition order: each returns the base rows its output
/// takes, in order, and the column it appends, if any. The output is
/// gathered once and each partition cut from it.
fn map_views(
    input: &Table,
    mut kernel: impl FnMut(&RecordBatch, Range<usize>) -> Result<(Vec<u32>, Option<ColumnVector>)>,
) -> Result<Vec<Partition>> {
    let views = input.views();
    let (mut runs, mut appended) = (Vec::new(), Vec::new());
    let mut counts = vec![0; views.parts.len()];
    for (p, (b, rows)) in
        (views.parts.iter().enumerate()).filter_map(|(p, v)| Some((p, v.as_ref()?)))
    {
        let (idx, column) = kernel(&views.bases[*b], rows.clone())?;
        counts[p] = idx.len();
        runs.push((*b, idx));
        appended.extend(column);
    }
    let appended = (!appended.is_empty()).then(|| ColumnVector::concat(&appended).into());
    Ok(views.gather(&runs, counts, appended))
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
            let parts = if matches!(kind, ScanKind::Extract) {
                let udo = extractor.as_ref().ok_or_else(|| {
                    ScopeError::Execution("extract scan without extractor".into())
                })?;
                map_rows(&stored, |batch| {
                    extract_batch(udo, predicate.as_ref(), batch)
                })?
            } else if predicate.is_some() {
                map_rows(&stored, |batch| filter_rows(batch, predicate.as_ref()))?
            } else {
                stored.partitions.clone()
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
            let parts = map_rows(input, |batch| filter_rows(batch, Some(predicate)))?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Project { exprs } => {
            let input = one()?;
            let parts = map_rows(input, |batch| {
                let cols = vexpr::eval_exprs(exprs, batch)?;
                Ok(Some((RecordBatch::new(cols, batch.num_rows()), None)))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Remap { cols, .. } => {
            let input = one()?;
            // Pure column shuffle: Arc bumps, deferred columns unread.
            let parts = map_rows(input, |batch| {
                let picked = cols.iter().map(|&c| batch.columns()[c].clone()).collect();
                Ok(Some((RecordBatch::new(picked, batch.num_rows()), None)))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Sort { order } => {
            let input = one()?;
            Ok((input.sort_partitions(order), 0))
        }
        Operator::Exchange { scheme } => Ok((one()?.exchange(scheme)?, 0)),
        Operator::Aggregate {
            keys,
            aggs,
            implementation,
        } => {
            let input = one()?;
            let parts = aggregate(&input.views(), keys, aggs, *implementation);
            Ok((delivered(input, parts), 0))
        }
        Operator::Top { n, order } => {
            let input = one()?;
            // Deterministic top-N: ties under the requested order are broken
            // by full-row comparison, so the result is independent of the
            // physical arrival order (and hence of view reuse).
            let props = PhysicalProps {
                partitioning: Partitioning::Single,
                sort: order.clone(),
            };
            let (batch, mut idx) = gathered(input);
            if idx.len() > 1 {
                idx.sort_by(deterministic(&batch, order, 0..batch.num_rows()));
            }
            idx.truncate(*n);
            let out = (!idx.is_empty()).then(|| batch.take(&idx));
            Ok((
                Table::from_batches(out_schema.clone(), vec![out.into()], props),
                0,
            ))
        }
        Operator::Window {
            func,
            partition,
            order,
        } => {
            let input = one()?;
            let parts = map_views(input, |batch, rows| {
                let (idx, value) = window_rows(batch, rows, func, partition, order);
                Ok((idx, Some(value)))
            })?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Process { udo } => {
            let input = one()?;
            let parts = map_rows(input, |batch| process_batch(udo, batch))?;
            Ok((delivered(input, parts), 0))
        }
        Operator::Reduce { udo, keys } | Operator::GbApply { udo, keys } => {
            let input = one()?;
            let parts = map_views(input, |batch, rows| reduce_rows(udo, batch, rows, keys))?;
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
                    parts.push(t.partitions[p].clone());
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
                Table::from_batches(
                    out_schema.clone(),
                    vec![merged.into()],
                    PhysicalProps::single(),
                ),
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
/// mirrors `Value::cmp`, read where the keys lie): the groups of the stream
/// aggregate, Window and Reduce/GbApply. Unsorted input still groups only
/// *adjacent* equal keys; the optimizer's enforcers sort first.
fn key_runs(batch: &RecordBatch, keys: &[usize], rows: Range<usize>) -> Vec<Range<usize>> {
    if rows.is_empty() {
        // An empty partition may be a zero-width batch: no key column to read.
        return Vec::new();
    }
    let keys = keys.iter().map(|&k| (k, SortDir::Asc));
    let order = row_order(batch, keys, rows.clone());
    let same = |a: usize, b: usize| order(a, b).is_eq();
    let mut runs = Vec::new();
    let (mut start, rows) = (rows.start, rows.end);
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

/// Every row of `input` as rows `idx` of one whole batch, partition after
/// partition: no copy when its partitions are cut from one build.
fn gathered(input: &Table) -> (RecordBatch, Vec<u32>) {
    let mut views = input.gather().views();
    match views.parts.pop().flatten() {
        Some((b, rows)) => (
            views.bases[b].clone(),
            (rows.start as u32..rows.end as u32).collect(),
        ),
        None => (RecordBatch::new(Vec::new(), 0), Vec::new()),
    }
}

/// The order of the indices of `batch`'s rows `rows` under `order`, ties
/// broken by the full row: the deterministic order of Top, Window and
/// TopPerGroup, which no arrival order (and hence no view reuse) can change.
fn deterministic<'a>(
    batch: &'a RecordBatch,
    order: &'a SortOrder,
    rows: Range<usize>,
) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + 'a {
    let by = row_order(batch, keys_of(order), rows);
    move |&a, &b| {
        let (a, b) = (a as usize, b as usize);
        by(a, b).then_with(|| compare_batch_rows_full(batch, a, b))
    }
}

/// One window function over rows `rows` of `batch`, a non-empty partition.
/// Each run of equal `partition` keys is put in `order`, ties broken by the
/// full row (running sums would otherwise depend on arrival order, as in
/// `Top`); the rows move in that order (returned as rows of `batch`) and the
/// function's value is appended as one more column.
fn window_rows(
    batch: &RecordBatch,
    rows: Range<usize>,
    func: &WindowFunc,
    partition: &[usize],
    order: &SortOrder,
) -> (Vec<u32>, ColumnVector) {
    let runs = key_runs(batch, partition, rows.clone());
    let mut idx: Vec<u32> = (rows.start as u32..rows.end as u32).collect();
    let local = |run: &Range<usize>| run.start - rows.start..run.end - rows.start;
    let cmp = deterministic(batch, order, rows.clone());
    for run in &runs {
        idx[local(run)].sort_by(&cmp);
    }
    let value = match func {
        WindowFunc::RunningSum(c) => {
            let col = batch.column(*c);
            let mut data = Vec::with_capacity(idx.len());
            for run in &runs {
                let mut sum = 0.0;
                for &i in &idx[local(run)] {
                    sum += col.cell(i as usize).as_f64().unwrap_or(0.0);
                    data.push(sum);
                }
            }
            ColumnVector::Float { data, nulls: None }
        }
        WindowFunc::RowNumber | WindowFunc::Rank => {
            let numbers_ties = matches!(func, WindowFunc::RowNumber);
            let cmp = row_order(batch, keys_of(order), rows.clone());
            let mut data = Vec::with_capacity(idx.len());
            for run in &runs {
                let group = &idx[local(run)];
                let mut rank = 0;
                for (n, &i) in group.iter().enumerate() {
                    let tied = n > 0 && cmp(group[n - 1] as usize, i as usize).is_eq();
                    if numbers_ties || !tied {
                        rank = n as i64 + 1;
                    }
                    data.push(rank);
                }
            }
            ColumnVector::Int { data, nulls: None }
        }
    };
    (idx, value)
}

// ---------------------------------------------------------------------------
// User-defined operators
// ---------------------------------------------------------------------------

/// An Extract scan over one stored batch: the predicate selects rows and
/// the extractor processes the selection. As in the row engine, a predicate
/// error stops the scan at its row only after the extractor has seen every
/// earlier row, so an extractor error on an earlier row surfaces first.
fn extract_batch(udo: &Udo, predicate: Option<&Expr>, batch: &RecordBatch) -> Result<RowsOut> {
    let Some(pred) = predicate else {
        return process_batch(udo, batch);
    };
    let (sel, stopped) = vexpr::eval_predicate_selection(pred, batch);
    let out = if sel.len() == batch.num_rows() {
        process_batch(udo, batch)?
    } else {
        // Each output row's input row, through the selection.
        let through = |(out, from): (RecordBatch, Option<Vec<u32>>)| {
            let from = from.map_or_else(
                || sel.clone(),
                |f| f.iter().map(|&i| sel[i as usize]).collect(),
            );
            (out, Some(from))
        };
        process_batch(udo, &batch.take(&sel))?.map(through)
    };
    stopped.map(|()| out)
}

/// A processor over one batch: the rows it emits for each input row, in
/// input order (`None` when it emits none). Tokenize emits its input row
/// once per whitespace-separated token with the token appended (none for
/// NULL text); ClampOutliers and ScoreModel emit each row once, clamping
/// one column or appending the score.
fn process_batch(udo: &Udo, batch: &RecordBatch) -> Result<RowsOut> {
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
            let mut columns: Vec<Column> = RecordBatch::gather_columns(&[(batch, Some(&from))]);
            columns.push(ColumnVector::Str { data, nulls: None }.into());
            Ok(Some((RecordBatch::new(columns, from.len()), Some(from))))
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
            Ok(Some((RecordBatch::new(columns, rows), None)))
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
            Ok(Some((RecordBatch::new(columns, rows), None)))
        }
        other => Err(ScopeError::Execution(format!(
            "{} is not a row processor",
            other.name()
        ))),
    }
}

/// A reducer or per-group apply over rows `rows` of `batch`, one partition,
/// each run of equal `keys` one group: the rows it emits, as rows of `batch`,
/// and the column it appends, if any. TrimBand keeps the rows whose
/// numeric cell lies in the group's `[min + gap, max - gap]`; CountRows
/// emits the group's smallest row (the first of equals) with the group's row
/// count appended; TopPerGroup keeps the group's first `n` rows by the
/// column descending, ties broken by the full row.
fn reduce_rows(
    udo: &Udo,
    batch: &RecordBatch,
    rows: Range<usize>,
    keys: &[usize],
) -> Result<(Vec<u32>, Option<ColumnVector>)> {
    let runs = key_runs(batch, keys, rows.clone());
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
            let full = |&a: &usize, &b: &usize| compare_batch_rows_full(batch, a, b);
            let smallest = |run: Range<usize>| run.min_by(full);
            keep.extend(runs.into_iter().filter_map(smallest).map(|i| i as u32));
            return Ok((keep, Some(ColumnVector::Int { data, nulls: None })));
        }
        UdoKind::TopPerGroup { col, n } => {
            let order = SortOrder(vec![SortKey::desc(*col)]);
            let cmp = deterministic(batch, &order, rows);
            for run in runs {
                let mut group: Vec<u32> = run.map(|i| i as u32).collect();
                group.sort_by(&cmp);
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
    Ok((keep, None))
}

/// The MergeStreams combiner: each side gathered and stably sorted on column
/// 0, then the left side's rows followed by the right's, as one partition.
fn merge_streams(udo: &Udo, left: &Table, right: &Table) -> Result<Option<RecordBatch>> {
    if udo.kind != UdoKind::MergeStreams {
        return Err(ScopeError::Execution(format!(
            "{} is not a combiner",
            udo.kind.name()
        )));
    }
    let order = SortOrder::asc(&[0]);
    let sorted = |side: &Table| {
        let (batch, mut idx) = gathered(side);
        if !idx.is_empty() {
            let cmp = row_order(&batch, keys_of(&order), 0..batch.num_rows());
            idx.sort_by(|&a, &b| cmp(a as usize, b as usize));
        }
        (batch, idx)
    };
    // An empty side may be a zero-width batch: it contributes no run.
    let sides = [sorted(left), sorted(right)];
    let runs: Vec<Rows<'_>> = sides
        .iter()
        .filter(|(_, idx)| !idx.is_empty())
        .map(|(batch, idx)| (batch, Some(idx.as_slice())))
        .collect();
    Ok((!runs.is_empty()).then(|| RecordBatch::gather(&runs)))
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
/// in the last ulp. The caller keeps the inputs in one buffer per partition,
/// not one per group. Integer sums stay incremental.
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

    // Typed bulk helpers for the monomorphized aggregate loops. Each
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

/// A row without a group: a NULL join key, or a probe key the build lacks.
const NO_GROUP: u32 = u32::MAX;

/// A batch, its key columns and the rows grouped: one side of a grouping.
type Side<'a> = (&'a RecordBatch, &'a [usize], Range<usize>);

/// One side's keys, read in one loop: `each(f)` calls `f(i, key)` for every
/// row `i` in order, `None` for a key that is its own group in an aggregate
/// and joins nothing.
trait Keys {
    type K: GroupKey;
    fn rows(&self) -> usize;
    fn each(&self, f: impl FnMut(usize, Option<Self::K>));
}

/// One typed key column: its lanes, and how a key is read from a lane.
struct Typed<'a, D: ?Sized, G>(Lanes<'a, D>, G);

impl<'a, D: ?Sized, K: GroupKey, G: Fn(&'a D, usize) -> K + Copy> Keys for Typed<'a, D, G> {
    type K = K;

    fn rows(&self) -> usize {
        self.0.rows
    }

    fn each(&self, f: impl FnMut(usize, Option<K>)) {
        self.0.each(self.1, f)
    }
}

/// Keys read as values, cell by cell: a column of any other type, and
/// every key of two or more columns. A join key with a NULL in it joins
/// nothing.
struct ValueKeys<'a> {
    cols: Vec<Located<'a>>,
    rows: usize,
    join: bool,
}

impl Keys for ValueKeys<'_> {
    type K = Vec<Value>;

    fn rows(&self) -> usize {
        self.rows
    }

    fn each(&self, mut f: impl FnMut(usize, Option<Vec<Value>>)) {
        for i in 0..self.rows {
            let cells = self.cols.iter().map(|c| c.cell(i));
            let joins = !(self.join && cells.clone().any(Cell::is_null));
            f(i, joins.then(|| cells.map(Cell::to_value).collect()));
        }
    }
}

/// A key the grouping table takes: any is hashed, an `i64` may index.
trait GroupKey: std::hash::Hash + Eq {
    /// True for `i64`: a direct-address table may hold it.
    const INT: bool = false;

    /// The key as a direct-address table's index, for `i64` keys.
    fn int(&self) -> Option<i64> {
        None
    }
}

impl GroupKey for i64 {
    const INT: bool = true;

    fn int(&self) -> Option<i64> {
        Some(*self)
    }
}

impl GroupKey for &str {}

impl GroupKey for Vec<Value> {}

/// Key → group id: a direct-address table over a dense range of integer
/// keys, or a word-hashed map.
enum GroupTable<K> {
    Dense { lo: i64, slots: Vec<u32> },
    Hashed(WordMap<K, u32>),
}

/// Key `k`'s index in a direct-address table from `lo`, if it has one.
fn direct<K: GroupKey>(lo: i64, k: &K) -> Option<usize> {
    usize::try_from(k.int()?.checked_sub(lo)?).ok()
}

impl<K: GroupKey> GroupTable<K> {
    /// The table for a build side's keys: direct-address when they are
    /// integers whose span is small for the rows that carry it.
    fn for_keys(keys: &impl Keys<K = K>) -> GroupTable<K> {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        if K::INT {
            keys.each(|_, k| {
                if let Some(v) = k.and_then(|k| k.int()) {
                    (lo, hi) = (lo.min(v), hi.max(v));
                }
            });
        }
        // In i128: `i64::MIN` and `i64::MAX` may share a column.
        let span = hi as i128 - lo as i128 + 1;
        if span > 0 && span <= keys.rows() as i128 * 4 + 1024 && span <= 1 << 21 {
            let slots = vec![NO_GROUP; span as usize];
            return GroupTable::Dense { lo, slots };
        }
        GroupTable::Hashed(WordMap::default())
    }
}

/// The groups of a batch's keys, and of another batch's keys probed into
/// them.
struct Grouping {
    /// Each row's group, numbered in first-seen order.
    of_row: Vec<u32>,
    /// Each group's first row.
    firsts: Vec<u32>,
    /// Each probe row's group.
    probed: Vec<u32>,
}

/// The one key → group-id table, behind Aggregate and Join: `build`'s keys
/// get groups — a NULL key its own when nothing probes (an aggregate), none
/// when something does (a join build, and so no match) — and `probe`'s are
/// looked up afterwards. The table's kind is matched once per side, so each
/// of its loops is one of the keys' typed loops.
fn assign_groups<B: Keys>(build: B, probe: Option<B>) -> Grouping {
    let mut table = GroupTable::for_keys(&build);
    let (joins, mut null_group) = (probe.is_some(), NO_GROUP);
    let mut firsts = Vec::with_capacity(build.rows());
    let mut of_row = Vec::with_capacity(build.rows());
    let mut assign = |i: usize, slot: Option<&mut u32>| {
        let slot = match slot {
            Some(slot) => slot,
            None if !joins => &mut null_group,
            None => return of_row.push(NO_GROUP),
        };
        if *slot == NO_GROUP {
            *slot = firsts.len() as u32;
            firsts.push(i as u32);
        }
        of_row.push(*slot);
    };
    match &mut table {
        GroupTable::Dense { lo, slots } => build.each(|i, k| {
            let index = |k| direct(*lo, &k).expect("a build key lies in its range");
            assign(i, k.map(|k| &mut slots[index(k)]))
        }),
        GroupTable::Hashed(map) => {
            build.each(|i, k| assign(i, k.map(|k| map.entry(k).or_insert(NO_GROUP))))
        }
    }
    let probed = probe.map_or_else(Vec::new, |probe| {
        let mut probed = Vec::with_capacity(probe.rows());
        let mut push = |g: Option<&u32>| probed.push(g.copied().unwrap_or(NO_GROUP));
        match &table {
            GroupTable::Dense { lo, slots } => {
                probe.each(|_, k| push(k.and_then(|k| slots.get(direct(*lo, &k)?))))
            }
            GroupTable::Hashed(map) => probe.each(|_, k| push(k.and_then(|k| map.get(&k)))),
        }
        probed
    });
    Grouping {
        of_row,
        firsts,
        probed,
    }
}

/// Groups `build`'s keys and probes `probe`'s into them, reading both where
/// they lie (`Column::locate`): no key column is copied. A single key
/// column reads typed — an `i64` from `Int` and `Date`, a `&str` from
/// `Str` — when every source of both sides has that variant; otherwise
/// both read values, so `Int(1)` still joins `Float(1.0)` and an `Int`
/// never joins a `Date`. Both batches have rows.
fn group_keys<'a>(build: Side<'a>, probe: Option<Side<'a>>) -> Grouping {
    let one = |(batch, keys, rows): &Side<'a>| match keys {
        [k] => Some(batch.locate(*k, rows.clone())),
        _ => None,
    };
    let (b, p) = (one(&build), probe.as_ref().map(one));
    macro_rules! typed {
        ($lane:expr, $get:expr) => {
            let lanes = |l: &Option<Located<'a>>| l.as_ref().and_then(|l| l.lanes($lane));
            if let Some(build) = lanes(&b) {
                let get = $get;
                // No probe, or a probe read the same way.
                if let Some(probe) = p.as_ref().map_or(Some(None), |p| lanes(p).map(Some)) {
                    return assign_groups(Typed(build, get), probe.map(|p| Typed(p, get)));
                }
            }
        };
    }
    typed!(ColumnVector::ints, |d: &[i64], r: usize| d[r]);
    typed!(ColumnVector::dates, |d: &[i32], r: usize| d[r] as i64);
    // A `Str` key reads codes when coding costs no more than hashing would.
    if let (Some(b), Some(p)) = (&b, p.as_ref().map_or(Some(None), |p| p.as_ref().map(Some))) {
        if let Some(grouping) = coded_groups(b, p, b.rows() + p.map_or(0, Located::rows)) {
            return grouping;
        }
    }
    typed!(ColumnVector::strs, StrVec::get);
    let join = probe.is_some();
    let values = |(batch, keys, rows): Side<'a>| ValueKeys {
        cols: keys
            .iter()
            .map(|&k| batch.locate(k, rows.clone()))
            .collect(),
        rows: rows.len(),
        join,
    };
    assign_groups(values(build), probe.map(values))
}

/// The groups of a single `Str` key read as its sources' codes ([`coded`]),
/// or `None` when coding them would walk more than `budget` rows.
fn coded_groups<'a>(b: &Located<'a>, p: Option<&Located<'a>>, budget: usize) -> Option<Grouping> {
    let sides: Few<&Located<'a>> = [Some(b), p].into_iter().flatten().collect();
    let codes = coded(&sides, budget)?;
    let rows: usize = sides.iter().map(|l| l.rows()).sum();
    CODED_KEY_ROWS.set(CODED_KEY_ROWS.get() + rows as u64);
    let mut keys =
        (sides.iter().zip(&codes)).map(|(l, c)| Typed(l.lanes_of(c.iter().collect()), Coded::get));
    Some(assign_groups(keys.next()?, keys.next()))
}

/// The aggregate over every partition, built once: the key columns taken
/// from each group's first row in one gather, then one column per
/// aggregate; each partition's groups are cut from it. Groups are formed
/// and accumulated once per base, over the rows of all its partitions.
fn aggregate(
    views: &Views,
    keys: &[usize],
    aggs: &[AggExpr],
    implementation: AggImpl,
) -> Vec<Partition> {
    let mut counts = vec![0usize; views.parts.len()];
    let (mut key_bases, mut firsts) = (Vec::new(), Vec::new());
    let mut finished: Vec<Vec<Value>> = vec![Vec::new(); aggs.len()];
    for (b, base) in views.bases.iter().enumerate() {
        let (all, parts) = (views.span(b), views.of_base(b));
        let (group_of, mine) = groups_of(base, all.clone(), parts.clone(), keys, implementation);
        for (p, rows) in parts {
            let before = |end: usize| mine.partition_point(|&f| (f as usize) < end);
            counts[p] = before(rows.end) - before(rows.start);
        }
        let values = accumulate(base, all, &group_of, mine.len(), aggs);
        finished
            .iter_mut()
            .zip(values)
            .for_each(|(all, v)| all.extend(v));
        let key_columns = keys.iter().map(|&k| base.columns()[k].clone()).collect();
        key_bases.push(RecordBatch::new(key_columns, base.num_rows()));
        firsts.push(mine);
    }
    // A global aggregate over an empty input emits exactly one row.
    if keys.is_empty() && firsts.is_empty() && !counts.is_empty() {
        counts[0] = 1;
        finished = aggs
            .iter()
            .map(|a| vec![Acc::default().finish(a.func)])
            .collect();
    }
    let runs: Vec<Rows<'_>> = (key_bases.iter().zip(&firsts))
        .map(|(b, f)| (b, Some(f.as_slice())))
        .collect();
    let mut columns: Vec<Column> = RecordBatch::gather_columns(&runs);
    let aggregates = finished
        .into_iter()
        .map(|v| ColumnVector::from_values(v).into());
    columns.extend(aggregates);
    cut(&RecordBatch::new(columns, counts.iter().sum()), counts)
}

/// The groups of rows `all` of `batch`, which `parts` (each partition and
/// its rows) divide: each row's group, numbered partition by partition in
/// first-seen order, and each group's first row. Hash groups by key
/// ([`group_keys`]) over all the rows at once when no key is in two
/// partitions, as after an exchange on the keys, and partition by partition
/// otherwise; stream takes each run of equal keys within a partition as a
/// group ([`key_runs`]).
fn groups_of(
    batch: &RecordBatch,
    all: Range<usize>,
    parts: impl Iterator<Item = (usize, Range<usize>)> + Clone,
    keys: &[usize],
    implementation: AggImpl,
) -> (Vec<u32>, Vec<u32>) {
    let at = |rows: &Range<usize>| {
        let start = rows.start as u32;
        move |f: u32| f + start
    };
    if implementation == AggImpl::Hash {
        let grouping = group_keys((batch, keys, all.clone()), None);
        let firsts: Vec<u32> = grouping.firsts.into_iter().map(at(&all)).collect();
        let own = |(_, rows): (usize, Range<usize>)| {
            let groups = &grouping.of_row[rows.start - all.start..rows.end - all.start];
            groups
                .iter()
                .all(|&g| rows.contains(&(firsts[g as usize] as usize)))
        };
        if parts.clone().all(own) {
            return (grouping.of_row, firsts);
        }
    }
    let (mut group_of, mut firsts) = (Vec::with_capacity(all.len()), Vec::new());
    for (_, rows) in parts {
        let offset = firsts.len() as u32;
        if implementation == AggImpl::Hash {
            let grouping = group_keys((batch, keys, rows.clone()), None);
            group_of.extend(grouping.of_row.iter().map(|g| g + offset));
            firsts.extend(grouping.firsts.into_iter().map(at(&rows)));
        } else {
            for (g, run) in (offset..).zip(key_runs(batch, keys, rows.clone())) {
                group_of.extend(std::iter::repeat_n(g, run.len()));
                firsts.push(run.start as u32);
            }
        }
    }
    (group_of, firsts)
}

/// Each aggregate's value per group over rows `rows` of `batch`, whose
/// groups `group_of` gives: one pass per aggregate over its input column,
/// read where it lies. COUNT reads no column; SUM/AVG over `Int` and
/// `Float` columns run typed loops feeding the exact `Acc` fields their
/// `finish` arm reads; everything else falls back to the borrowed-cell
/// update.
fn accumulate(
    batch: &RecordBatch,
    rows: Range<usize>,
    group_of: &[u32],
    ngroups: usize,
    aggs: &[AggExpr],
) -> Vec<Vec<Value>> {
    let mut group_sizes = vec![0u64; ngroups];
    for &g in group_of {
        group_sizes[g as usize] += 1;
    }

    let mut finished = Vec::with_capacity(aggs.len());
    // SUM and AVG of one column fill the same accumulator fields: one pass
    // serves both.
    let mut summed: Vec<(usize, Vec<Acc>)> = Vec::new();
    for a in aggs {
        let sums = matches!(a.func, AggFunc::Sum | AggFunc::Avg);
        if let Some((_, accs)) = summed.iter().find(|(input, _)| sums && *input == a.input) {
            finished.push(accs.iter().map(|acc| acc.finish(a.func)).collect());
            continue;
        }
        let mut accs: Vec<Acc> = (0..ngroups).map(|_| Acc::default()).collect();
        if a.func == AggFunc::Count {
            // finish(Count) reads only the row count: no cell, no column.
            for (acc, &n) in accs.iter_mut().zip(&group_sizes) {
                acc.bump_rows(n, 0);
            }
            finished.push(accs.iter().map(|acc| acc.finish(a.func)).collect());
            continue;
        }
        let col = batch.locate(a.input, rows.clone());
        if let Some(ints) = col.lanes(ColumnVector::ints).filter(|_| sums) {
            int_sums(&mut accs, group_of, &group_sizes, ints);
        } else if let Some(floats) = col.lanes(ColumnVector::floats).filter(|_| sums) {
            float_sums(&mut accs, group_of, &group_sizes, floats);
        } else {
            let mut floats = Vec::new();
            for (i, &g) in group_of.iter().enumerate() {
                let float = accs[g as usize].update_cell(a.func, col.cell(i));
                floats.extend(float.map(|f| (g, f)));
            }
            settle_group_floats(&mut accs, floats.iter().copied());
        }
        finished.push(accs.iter().map(|acc| acc.finish(a.func)).collect());
        if sums {
            summed.push((a.input, accs));
        }
    }
    finished
}

/// SUM/AVG over an `Int` column: each non-NULL value added to its group's
/// accumulator; row and non-NULL counts are applied per group afterwards.
fn int_sums(accs: &mut [Acc], group_of: &[u32], group_sizes: &[u64], input: Lanes<'_, [i64]>) {
    let mut non_null = vec![0u64; accs.len()];
    input.each(
        |d, r| d[r],
        |i, x| {
            if let Some(x) = x {
                let g = group_of[i] as usize;
                non_null[g] += 1;
                accs[g].add_int(x);
            }
        },
    );
    for ((acc, &n), &nn) in accs.iter_mut().zip(group_sizes).zip(&non_null) {
        acc.bump_rows(n, nn);
    }
}

/// SUM/AVG over a `Float` column: each non-NULL value written as its
/// [`total_key`] straight into its group's slice of one buffer, laid out by
/// the groups' row counts, and each slice settled.
fn float_sums(accs: &mut [Acc], group_of: &[u32], group_sizes: &[u64], input: Lanes<'_, [f64]>) {
    let mut start = vec![0usize; accs.len() + 1];
    for (g, &n) in group_sizes.iter().enumerate() {
        start[g + 1] = start[g] + n as usize;
    }
    let (mut next, mut keys) = (start.clone(), vec![0i64; group_of.len()]);
    input.each(
        |d, r| d[r],
        |i, f| {
            if let Some(f) = f {
                let g = group_of[i] as usize;
                keys[next[g]] = total_key(f.to_bits() as i64);
                next[g] += 1;
            }
        },
    );
    for (g, acc) in accs.iter_mut().enumerate() {
        let inputs = &mut keys[start[g]..next[g]];
        acc.bump_rows(group_sizes[g], inputs.len() as u64);
        acc.settle_floats(inputs);
    }
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
    let (lv, rv) = (left.views(), right.views());
    // LeftOuter pads from one right base: holes are no pick.
    let rv = match kind {
        JoinKind::LeftOuter if rv.bases.len() > 1 => one_base(&rv),
        _ => rv,
    };
    let props = PhysicalProps {
        partitioning: left.props.partitioning.clone(),
        sort: SortOrder::none(),
    };
    let parts = join_views(
        &lv,
        &rv,
        kind,
        broadcast,
        [left_keys, right_keys],
        right.schema.len(),
    );
    Ok(Table::from_batches(out_schema.clone(), parts, props))
}

/// Joins each left partition against its right partition (the one right
/// partition when `broadcast`), left row by left row in arrival order, and
/// builds the output ([`join_output`]). The right rows of a base are grouped
/// once and every left row of a base probes them ([`Matches`]); a pair
/// reads its matches within its right partition, so equal keys in two
/// partitions never meet.
fn join_views(
    lv: &Views,
    rv: &Views,
    kind: JoinKind,
    broadcast: bool,
    [left_keys, right_keys]: [&[usize]; 2],
    rwidth: usize,
) -> Vec<Partition> {
    let mut matches: Vec<((usize, usize), Matches)> = Vec::new();
    let mut pairs = Vec::with_capacity(lv.parts.len());
    for (p, part) in lv.parts.iter().enumerate() {
        let Some((lb, lrows)) = part else { continue };
        let right = rv.parts[if broadcast { 0 } else { p }].as_ref();
        let bases = right.map(|(rb, _)| (*lb, *rb));
        if let Some((lb, rb)) = bases.filter(|b| matches.iter().all(|(k, _)| k != b)) {
            let build = (&rv.bases[rb], right_keys, rv.span(rb));
            let probe = (&lv.bases[lb], left_keys, lv.span(lb));
            matches.push(((lb, rb), Matches::of(build, probe)));
        }
        let grouped = matches.iter().find(|(k, _)| Some(*k) == bases);
        let (mut lidx, mut ridx) = (Vec::with_capacity(lrows.len()), Vec::new());
        for i in lrows.clone() {
            let matched = grouped
                .zip(right)
                .map_or(&[][..], |((_, m), (_, r))| m.within(i, r));
            let i = i as u32;
            match kind {
                JoinKind::LeftSemi if !matched.is_empty() => lidx.push(i),
                JoinKind::LeftOuter if matched.is_empty() => {
                    lidx.push(i);
                    ridx.push(None);
                }
                JoinKind::LeftSemi => {}
                _ => {
                    for &r in matched {
                        lidx.push(i);
                        ridx.push(Some(r));
                    }
                }
            }
        }
        pairs.push((*lb, right.map(|(rb, _)| &rv.bases[*rb]), (lidx, ridx)));
    }
    join_output(lv, rv, kind, &pairs, rwidth)
}

/// One right base's rows grouped by key and one left base's rows probed
/// into them: each left row's group, and each group's right rows in arrival
/// order, laid out by group in one buffer (group `g` holds
/// `rows[start[g]..start[g + 1]]`).
struct Matches {
    lstart: usize,
    probed: Vec<u32>,
    start: Vec<usize>,
    rows: Vec<u32>,
}

impl Matches {
    /// Builds on `build` (NULL keys never join) and probes `probe`.
    fn of(build: Side<'_>, probe: Side<'_>) -> Matches {
        let (rstart, lstart) = (build.2.start as u32, probe.2.start);
        let grouping = group_keys(build, Some(probe));
        let joining = (rstart..)
            .zip(grouping.of_row)
            .filter(|&(_, g)| g != NO_GROUP);
        let (start, rows) = by_group(grouping.firsts.len(), joining.map(|(i, g)| (g, i)));
        Matches {
            lstart,
            probed: grouping.probed,
            start,
            rows,
        }
    }

    /// The right rows among `rrows` that left row `i` matches, in order.
    fn within(&self, i: usize, rrows: &Range<usize>) -> &[u32] {
        let g = self.probed[i - self.lstart];
        if g == NO_GROUP {
            return &[];
        }
        let rows = &self.rows[self.start[g as usize]..self.start[g as usize + 1]];
        let at = |end: usize| rows.partition_point(|&r| (r as usize) < end);
        &rows[at(rrows.start)..at(rrows.end)]
    }
}

/// A table's views gathered into one base, partition after partition.
fn one_base(views: &Views) -> Views {
    let windows: Vec<(usize, RecordBatch)> = (views.parts.iter().enumerate())
        .filter_map(|(p, v)| {
            let (b, rows) = v.as_ref()?;
            Some((p, views.bases[*b].window(rows.clone())))
        })
        .collect();
    let runs: Vec<Rows<'_>> = windows.iter().map(|(_, w)| (w, None)).collect();
    let (mut parts, mut end) = (vec![None; views.parts.len()], 0);
    for (p, w) in &windows {
        parts[*p] = Some((0, end..end + w.num_rows()));
        end += w.num_rows();
    }
    Views {
        bases: Few::One(RecordBatch::gather(&runs)),
        parts,
    }
}

/// The rows one left partition's join emits, as rows of the two bases: the
/// left rows, and each one's right row (`None`: LeftOuter padding; empty
/// for LeftSemi).
type Emitted = (Vec<u32>, Vec<Option<u32>>);

/// The join's output over every partition, built once: the left columns
/// at all left rows in one gather (handed on whole when that is every left
/// row in order, as when each probe key meets one build row), then the right
/// columns in one gather — or, for LeftOuter, taken from the one right base
/// with NULL padding — and each partition cut from it. `pairs` holds each
/// non-empty left partition's base, right base and emitted rows.
fn join_output(
    lv: &Views,
    rv: &Views,
    kind: JoinKind,
    pairs: &[(usize, Option<&RecordBatch>, Emitted)],
    rwidth: usize,
) -> Vec<Partition> {
    let left: Vec<Rows<'_>> = pairs
        .iter()
        .map(|(b, _, (lidx, _))| (&lv.bases[*b], Some(lidx.as_slice())))
        .collect();
    let total = pairs.iter().map(|(_, _, (lidx, _))| lidx.len()).sum();
    let lrows = pairs.iter().flat_map(|(_, _, (lidx, _))| lidx);
    let mut cols: Vec<Column> = match &*lv.bases {
        [one] if one.num_rows() == total && lrows.enumerate().all(|(k, &i)| k == i as usize) => {
            one.columns().to_vec()
        }
        _ => RecordBatch::gather_columns(&left),
    };
    match (kind, rv.bases.first()) {
        (JoinKind::LeftSemi, _) => {}
        (JoinKind::LeftOuter, Some(rb)) => {
            let ridx: Vec<Option<u32>> = pairs.iter().flat_map(|(.., (_, r))| r.clone()).collect();
            cols.extend((0..rwidth).map(|j| rb.column(j).take_opt(&ridx).into()));
        }
        // No right row at all: all-NULL columns, the shape `from_values`
        // gives them.
        (JoinKind::LeftOuter, None) => {
            let nulls = || ColumnVector::Mixed(vec![Value::Null; total]).into();
            cols.extend((0..rwidth).map(|_| nulls()));
        }
        (JoinKind::Inner, _) => {
            let ridx: Vec<Vec<u32>> = pairs
                .iter()
                .map(|(.., (_, r))| r.iter().map(|r| r.expect("an inner pair")).collect())
                .collect();
            let runs: Vec<Rows<'_>> = (pairs.iter().zip(&ridx))
                .filter_map(|((_, rb, _), idx)| Some(((*rb)?, Some(idx.as_slice()))))
                .collect();
            cols.extend(RecordBatch::gather_columns::<Vec<_>>(&runs));
        }
    }
    let mut emitted = pairs.iter().map(|(_, _, (lidx, _))| lidx.len());
    let counts = lv
        .parts
        .iter()
        .map(|p| p.as_ref().map_or(0, |_| emitted.next().unwrap_or(0)));
    cut(&RecordBatch::new(cols, total), counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tests::{cells_gathered, fan_in, partition_as_batch, shares_cells};
    use crate::data::{multiset_checksum, Row};
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::op::WindowFunc;
    use scope_plan::{DataType, Expr, PlanBuilder, SortKey, Udo, UdoKind};
    use std::cell::Cell as Counter;

    /// One partition's aggregate, as the node computes it.
    fn aggregate_batch(
        batch: &RecordBatch,
        keys: &[usize],
        aggs: &[AggExpr],
        implementation: AggImpl,
    ) -> Option<RecordBatch> {
        let parts = aggregate(&view(batch), keys, aggs, implementation);
        parts[0].first().cloned()
    }

    /// One batch as a one-partition node input.
    fn view(batch: &RecordBatch) -> Views {
        let rows = batch.num_rows();
        Views {
            bases: (rows > 0).then(|| batch.clone()).into_iter().collect(),
            parts: vec![(rows > 0).then_some((0, 0..rows))],
        }
    }

    /// One left partition joined against one right partition, as the node
    /// joins them.
    fn hash_join_batch(
        lb: &RecordBatch,
        rb: &RecordBatch,
        kind: JoinKind,
        left_keys: &[usize],
        right_keys: &[usize],
        rwidth: usize,
    ) -> Vec<RecordBatch> {
        let (lv, rv) = (view(lb), view(rb));
        let parts = join_views(&lv, &rv, kind, false, [left_keys, right_keys], rwidth);
        parts.iter().flat_map(|p| p.to_vec()).collect()
    }

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

    /// `t` with every partition rebuilt as a batch of its own: the layout
    /// a per-partition executor builds, with no window shared.
    fn per_partition(t: &Table) -> Table {
        let rows = (0..t.num_partitions())
            .map(|p| t.partition_rows(p))
            .collect();
        Table::from_rows(t.schema.clone(), rows, t.props.clone())
    }

    /// Partition `p` of `t` as a one-partition table.
    fn part(t: &Table, p: usize) -> Table {
        let one = vec![t.partitions[p].clone()];
        Table::from_batches(t.schema.clone(), one, PhysicalProps::any())
    }

    #[test]
    fn a_join_grouped_per_base_meets_no_key_of_another_partition() {
        // `Int(k)` joins `Float(k)`, but the two hash apart: a pair of
        // co-partitions joins only the keys that landed in both.
        let keyed = |key: fn(i64) -> Value, ty| {
            let rows = (0..64).map(|k| vec![key(k % 40), Value::Int(k)]).collect();
            let schema = Schema::from_pairs(&[("k", ty), ("v", DataType::Int)]);
            Table::single(schema, rows)
                .hash_repartition(&[0], 4)
                .unwrap()
        };
        let left = keyed(Value::Int, DataType::Int);
        let right = keyed(|k| Value::Float(k as f64), DataType::Float);
        let matched = |t: &Table| t.num_rows();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::LeftSemi] {
            let op = Operator::Join {
                kind,
                implementation: JoinImpl::Hash,
                left_keys: vec![0],
                right_keys: vec![0],
            };
            let out_schema = op
                .output_schema(&[left.schema.clone(), right.schema.clone()])
                .unwrap();
            let storage = StorageManager::new();
            let join = |l: &Table, r: &Table| {
                exec_node(&op, &[l, r], &out_schema, &storage, SimTime::ZERO)
                    .unwrap()
                    .0
            };
            let got = join(&left, &right);
            let want = join(&per_partition(&left), &per_partition(&right));
            assert!(got == want, "{kind:?}");
            if kind == JoinKind::Inner {
                // Some keys met in their partition, and some did not.
                let global = join(&left.gather(), &right.gather());
                assert!(0 < matched(&got) && matched(&got) < matched(&global));
            }
        }
    }

    #[test]
    fn windowed_outputs_match_a_per_partition_reference() {
        use rand::{Rng, SeedableRng};
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("d", DataType::Date),
        ]);
        let ops = |keys: Vec<usize>| {
            let dop = Partitioning::Hash {
                cols: keys.clone(),
                parts: 4,
            };
            let sum = AggExpr::new("f", AggFunc::Sum, 2);
            let count = AggExpr::new("n", AggFunc::Count, 1);
            let project = vec![
                scope_plan::NamedExpr::new("k2", Expr::col(0).add(Expr::col(0))),
                scope_plan::NamedExpr::new("s", Expr::col(1)),
            ];
            vec![
                Operator::Exchange { scheme: dop },
                Operator::Exchange {
                    scheme: Partitioning::RoundRobin { parts: 3 },
                },
                Operator::Exchange {
                    scheme: Partitioning::Single,
                },
                Operator::Sort {
                    order: SortOrder(vec![SortKey::asc(1), SortKey::desc(2)]),
                },
                Operator::Filter {
                    predicate: Expr::col(2).gt(Expr::lit(0.5)),
                },
                Operator::Project { exprs: project },
                Operator::Aggregate {
                    keys: keys.clone(),
                    aggs: vec![sum, count],
                    implementation: AggImpl::Hash,
                },
                Operator::Aggregate {
                    keys: vec![],
                    aggs: vec![AggExpr::new("n", AggFunc::Count, 0)],
                    implementation: AggImpl::Hash,
                },
            ]
        };
        let joins =
            [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::LeftSemi].map(|kind| Operator::Join {
                kind,
                implementation: JoinImpl::Hash,
                left_keys: vec![0],
                right_keys: vec![0],
            });
        let mut checked = 0;
        for (case, n) in [0usize, 1, 7, 127, 128, 1_000].into_iter().enumerate() {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(47_000 + case as u64);
            let mut rows = |n: usize| -> Vec<Row> {
                (0..n)
                    .map(|_| {
                        let k = rng.gen_range(0..(n as i64 / 3).max(1));
                        let null = rng.gen_range(0..10) == 0;
                        vec![
                            Value::Int(k),
                            Value::Str(format!("s{}", rng.gen_range(0..9))),
                            if null {
                                Value::Null
                            } else {
                                Value::Float(rng.gen_range(0.0..1.0))
                            },
                            Value::Date(rng.gen_range(18_000..18_010)),
                        ]
                    })
                    .collect()
            };
            // Inputs cut from one build, as a node hands them on, and the
            // same rows with a batch per partition.
            let windowed = |rows| {
                let t = Table::single(schema.clone(), rows).hash_repartition(&[0], 4);
                t.unwrap().sort_partitions(&SortOrder::asc(&[0]))
            };
            let (left, right) = (windowed(rows(n)), windowed(rows(n / 2 + 1)));
            // And windows that no longer tile their build: partition 1 is
            // replaced by a batch of its own, as when an exchange hands a
            // destination a whole batch from elsewhere.
            let partial = |t: &Table, rows: Vec<Row>| {
                let mut t = t.clone();
                t.partitions[1] = Table::single(schema.clone(), rows).partitions[0].clone();
                t
            };
            let (pl, pr) = (partial(&left, rows(n % 5)), partial(&right, rows(3)));
            let unary = (ops(vec![0]).into_iter())
                .flat_map(|op| [(op.clone(), vec![&left]), (op, vec![&pl])]);
            let binary = (joins.iter().cloned())
                .flat_map(|op| [(op.clone(), vec![&left, &right]), (op, vec![&pl, &pr])]);
            for (op, inputs) in unary.chain(binary) {
                let split: Vec<Table> = inputs.iter().map(|t| per_partition(t)).collect();
                let schemas: Vec<Schema> = inputs.iter().map(|t| t.schema.clone()).collect();
                let out_schema = op.output_schema(&schemas).unwrap();
                let storage = StorageManager::new();
                let exec = |inputs: &[&Table]| {
                    let (t, _) =
                        exec_node(&op, inputs, &out_schema, &storage, SimTime::ZERO).unwrap();
                    let in_rows = inputs.iter().map(|t| t.num_rows() as u64).sum();
                    let (out_rows, out_bytes) = (t.num_rows() as u64, t.num_bytes());
                    let stats = NodeRuntimeStats {
                        in_rows,
                        out_rows,
                        out_bytes,
                        exclusive_cpu: CostModel.op_cpu(&op, in_rows, out_rows, out_bytes),
                    };
                    (t, stats)
                };
                let (got, got_stats) = exec(&inputs);
                let (want, want_stats) = exec(&split.iter().collect::<Vec<_>>());
                let what = format!("{} on {n} rows", op.describe());
                assert_eq!(got_stats, want_stats, "{what}");
                assert_eq!(got.num_partitions(), want.num_partitions(), "{what}");
                for p in 0..got.num_partitions() {
                    assert_eq!(
                        got.partition_rows(p),
                        want.partition_rows(p),
                        "{what}: partition {p}"
                    );
                    let sums = [&got, &want].map(|t| multiset_checksum(&part(t, p)));
                    assert_eq!(sums[0], sums[1], "{what}: partition {p}");
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 6 * 2 * 11);
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
        let gathered = |implementation, aggs| {
            let batch =
                partition_as_batch(&Table::single(kv_schema(), kv_rows(300)), 0).take(&reversed);
            let before = cells_gathered();
            let out = aggregate_batch(&batch, &[0], aggs, implementation);
            (out.unwrap(), cells_gathered() - before)
        };
        // Hash and stream both read the key where it lies: stream finds its
        // runs through the recipe's picks.
        for implementation in [AggImpl::Hash, AggImpl::Stream] {
            // Neither COUNT reads a cell.
            let (out, cells) = gathered(implementation, &count);
            assert_eq!(cells, 0);
            assert_eq!(gathered(implementation, &[]).1, 0);
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

        // Every function over Int, Float, Date, Str and Mixed inputs, grouped
        // by Int, Date, Str, Float and two-column keys, all with NULLs: the
        // two kernels agree cell for cell (floats bit for bit).
        let floats = [0.0, -0.0, f64::NAN, 2.5, -1e300, 1e-310, f64::INFINITY];
        let rows: Vec<Row> = (0..120i64)
            .map(|i| {
                let or_null = |every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
                let mixed = match i % 4 {
                    0 => Value::Int(i),
                    1 => Value::Float(i as f64 / 2.0),
                    2 => Value::Str(format!("m{}", i % 3)),
                    _ => Value::Null,
                };
                vec![
                    or_null(7, Value::Int(i % 5)),
                    or_null(8, Value::Date((i % 4) as i32 * 1_000)),
                    or_null(9, Value::Str(format!("s{}", i % 6))),
                    or_null(10, Value::Float(floats[i as usize % 4])),
                    or_null(11, Value::Int(i * 7 - 300)),
                    or_null(6, Value::Float(floats[i as usize % floats.len()])),
                    or_null(5, Value::Date(i as i32 - 60)),
                    or_null(4, Value::Str("x".repeat(i as usize % 3))),
                    mixed,
                ]
            })
            .collect();
        let names = ["ki", "kd", "ks", "kf", "vi", "vf", "vd", "vs", "vm"];
        let types = [
            DataType::Int,
            DataType::Date,
            DataType::Str,
            DataType::Float,
            DataType::Int,
            DataType::Float,
            DataType::Date,
            DataType::Str,
            DataType::Str,
        ];
        let fields: Vec<(&str, DataType)> = names.into_iter().zip(types).collect();
        let table = Table::single(Schema::from_pairs(&fields), rows);
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
        ];
        let aggs: Vec<AggExpr> = (4..9)
            .flat_map(|input| funcs.map(|f| AggExpr::new("a", f, input)))
            .collect();
        for keys in [vec![0], vec![1], vec![2], vec![3], vec![0, 2], vec![3, 1]] {
            let sorted = table.sort_partitions(&SortOrder::asc(&keys));
            let batch = partition_as_batch(&sorted, 0);
            let rows = |implementation| {
                let out = aggregate_batch(&batch, &keys, &aggs, implementation).unwrap();
                (0..out.num_rows())
                    .map(|g| out.row(g))
                    .collect::<Vec<Row>>()
            };
            let (hash, stream) = (rows(AggImpl::Hash), rows(AggImpl::Stream));
            assert!(hash.len() > 4, "keys {keys:?}");
            assert_eq!(hash, stream, "keys {keys:?}");
        }
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

    /// `left ⋈ right` on the same key columns of both sides, through a plan.
    fn join_rows(kind: JoinKind, left: Vec<Row>, right: Vec<Row>, keys: &[usize]) -> Vec<Row> {
        let storage = StorageManager::new();
        storage.put_dataset(DatasetId::new(1), Table::single(kv_schema(), left));
        storage.put_dataset(DatasetId::new(2), Table::single(kv_schema(), right));
        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
        let r = b.table_scan(DatasetId::new(2), "r", kv_schema());
        let j = b.join(l, r, kind, keys.to_vec(), keys.to_vec());
        let g = b.output(j, "o").build().unwrap();
        run(&g, &storage).outputs["o"].all_rows()
    }

    /// The groups of a hash aggregate on `keys`, each with its row count,
    /// sorted.
    fn group_counts(rows: Vec<Row>, keys: &[usize]) -> Vec<Row> {
        let storage = storage_with(rows, kv_schema());
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let count = AggExpr::new("cnt", AggFunc::Count, 1);
        let a = b.aggregate(s, keys.to_vec(), vec![count]);
        let g = b.output(a, "o").build().unwrap();
        let mut groups = run(&g, &storage).outputs["o"].all_rows();
        groups.sort();
        groups
    }

    /// Two-column rows, `None` for NULL.
    fn int_rows(pairs: &[(Option<i64>, Option<i64>)]) -> Vec<Row> {
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        pairs.iter().map(|&(a, b)| vec![int(a), int(b)]).collect()
    }

    #[test]
    fn null_keys_never_join() {
        let inner = |left, right, keys: &[usize]| join_rows(JoinKind::Inner, left, right, keys);
        let nulls = int_rows(&[(None, Some(1))]);
        assert!(inner(nulls.clone(), nulls, &[0]).is_empty());

        // NULLs among the keys of a dense range and of a hashed one.
        for scale in [1, 1_000_000_000_000] {
            let keys = |ks: &[Option<i64>]| {
                let pairs: Vec<_> = ks.iter().map(|k| (k.map(|k| k * scale), Some(0))).collect();
                int_rows(&pairs)
            };
            let left = keys(&[Some(0), Some(1), None, Some(2), None]);
            let right = keys(&[None, Some(0), Some(1), None, Some(2), Some(3)]);
            let joined = inner(left, right, &[0]);
            assert_eq!(joined.len(), 3, "scale {scale}");
            assert!(joined
                .iter()
                .all(|row| row[0] == row[2] && !row[0].is_null()));
        }

        // A two-column key with one NULL component: its own group in an
        // aggregate, and no match in a join.
        let rows = int_rows(&[(Some(1), None), (Some(1), Some(2)), (Some(1), None)]);
        assert_eq!(inner(rows.clone(), rows.clone(), &[0, 1]).len(), 1);
        assert_eq!(
            group_counts(rows, &[0, 1]),
            vec![
                vec![Value::Int(1), Value::Null, Value::Int(2)],
                vec![Value::Int(1), Value::Int(2), Value::Int(1)],
            ]
        );

        // Keys of two types join as values: an Int joins the Float that holds
        // it exactly, and never a Date.
        let row = |k: Value| vec![k, Value::Int(0)];
        let ints = || vec![row(Value::Int(1)), row(Value::Int(2))];
        let floats = || vec![row(Value::Float(1.0)), row(Value::Float(1.5))];
        let dates = || vec![row(Value::Date(1)), row(Value::Date(2))];
        let pairs = |rows: Vec<Row>| rows.into_iter().map(|r| (r[0].clone(), r[2].clone()));
        let one = vec![(Value::Int(1), Value::Float(1.0))];
        assert_eq!(
            pairs(inner(ints(), floats(), &[0])).collect::<Vec<_>>(),
            one
        );
        let flipped: Vec<_> = pairs(inner(floats(), ints(), &[0]))
            .map(|(l, r)| (r, l))
            .collect();
        assert_eq!(flipped, one);
        assert!(inner(ints(), dates(), &[0]).is_empty());
        assert!(inner(dates(), ints(), &[0]).is_empty());
    }

    #[test]
    fn keys_spanning_the_whole_i64_range_group_and_join() {
        // `hi - lo` overflows i64 here; the span must be taken wider.
        let rows = int_rows(&[
            (Some(i64::MIN), Some(0)),
            (Some(i64::MAX), Some(1)),
            (None, Some(2)),
            (Some(i64::MIN), Some(3)),
        ]);
        assert_eq!(
            group_counts(rows.clone(), &[0]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(i64::MIN), Value::Int(2)],
                vec![Value::Int(i64::MAX), Value::Int(1)],
            ]
        );

        let joined = join_rows(JoinKind::Inner, rows.clone(), rows, &[0]);
        // MIN x MIN = 4 pairs, MAX x MAX = 1, NULL never joins.
        assert_eq!(joined.len(), 5);
        assert!(joined
            .iter()
            .all(|row| row[0] == row[2] && !row[0].is_null()));

        // The extremes probed into a dense build table below and above zero:
        // `k - lo` overflows for one of them in each.
        for lo in [-3, 5] {
            let build: Vec<_> = (lo..lo + 4).map(|k| (Some(k), Some(k))).collect();
            let probe = [
                (Some(i64::MIN), None),
                (Some(i64::MAX), None),
                (Some(lo + 1), None),
            ];
            let joined = join_rows(JoinKind::Inner, int_rows(&probe), int_rows(&build), &[0]);
            let hit = Value::Int(lo + 1);
            let want = vec![hit.clone(), Value::Null, hit.clone(), hit];
            assert_eq!(joined, vec![want], "lo {lo}");
        }
    }

    /// One key column of `rows` random keys of `kind` (`Int`, `Date` or
    /// `Str`, with NULLs), spread over 1–3 source batches: dense (a batch of
    /// its own, or a gather read once) or picked through a gather's recipe.
    /// `Int` keys are dense in a small range or spread wide, with
    /// `i64::MIN` and `i64::MAX` now and then.
    fn random_keys(rng: &mut rand::rngs::SmallRng, kind: DataType, rows: usize) -> RecordBatch {
        use rand::Rng;
        let (wide, extremes) = (rng.gen_bool(0.5), rng.gen_bool(0.3));
        let key = |rng: &mut rand::rngs::SmallRng| match (kind, rng.gen_range(0..40)) {
            (_, 0..=2) => Value::Null,
            (DataType::Int, 3) if extremes => Value::Int(i64::MIN),
            (DataType::Int, 4) if extremes => Value::Int(i64::MAX),
            (DataType::Int, _) if wide => Value::Int(rng.gen_range(-50..50) << 40),
            (DataType::Int, _) => Value::Int(rng.gen_range(-50..50)),
            (DataType::Date, 3) if extremes => Value::Date(i32::MIN),
            (DataType::Date, _) => Value::Date(rng.gen_range(17_000..17_060)),
            _ => Value::Str(["", "a", "bb", "日本", "a longer key"][rng.gen_range(0..5)].into()),
        };
        let schema = Schema::from_pairs(&[("k", kind)]);
        let sources: Vec<RecordBatch> = (0..rng.gen_range(1..=3))
            .map(|_| {
                let n = rng.gen_range(1..2 * rows);
                let keys = (0..n).map(|_| vec![key(rng)]).collect();
                RecordBatch::clone(&Table::single(schema.clone(), keys).partitions[0][0])
            })
            .collect();
        if sources.len() == 1 && rng.gen_bool(0.3) {
            return sources[0].clone();
        }
        let picks: Vec<(usize, Vec<u32>)> = (0..rows.div_ceil(40))
            .map(|_| {
                let s = rng.gen_range(0..sources.len());
                let n = sources[s].num_rows() as u32;
                (s, (0..40).map(|_| rng.gen_range(0..n)).collect())
            })
            .collect();
        let runs: Vec<Rows<'_>> = picks
            .iter()
            .map(|(s, idx)| (&sources[*s], Some(&idx[..])))
            .collect();
        let batch = RecordBatch::gather(&runs);
        if rng.gen_bool(0.3) {
            batch.column(0);
        }
        batch
    }

    #[test]
    fn typed_key_loops_match_the_value_path() {
        use rand::SeedableRng;
        let (mut typed, mut dense, mut hashed) = (0, 0, 0);
        for case in 0..300 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(45_000 + case);
            let kind = [DataType::Int, DataType::Date, DataType::Str][case as usize % 3];
            let build = random_keys(&mut rng, kind, 200);
            let probe = random_keys(&mut rng, kind, 300);
            let key: &[usize] = &[0];
            let before = cells_gathered();
            let (b, p) = (0..build.num_rows(), 0..probe.num_rows());
            let aggregate = group_keys((&build, key, b.clone()), None);
            let join = group_keys((&build, key, b.clone()), Some((&probe, key, p.clone())));
            assert_eq!(cells_gathered(), before, "case {case}: a key was copied");
            fn values<'a>((batch, keys, rows): Side<'a>, join: bool) -> ValueKeys<'a> {
                let cols = keys
                    .iter()
                    .map(|&k| batch.locate(k, rows.clone()))
                    .collect();
                let rows = rows.len();
                ValueKeys { cols, rows, join }
            }
            let by_value = assign_groups(values((&build, key, b.clone()), false), None);
            let joined = assign_groups(
                values((&build, key, b.clone()), true),
                Some(values((&probe, key, p), true)),
            );
            for (got, want) in [(&aggregate, &by_value), (&join, &joined)] {
                assert_eq!(got.of_row, want.of_row, "case {case}");
                assert_eq!(got.firsts, want.firsts, "case {case}");
                assert_eq!(got.probed, want.probed, "case {case}");
            }
            // The typed loops ran, on both kinds of table.
            let located = build.locate(0, b);
            if let Some(ints) = located.lanes(ColumnVector::ints) {
                match GroupTable::for_keys(&Typed(ints, |d: &[i64], r: usize| d[r])) {
                    GroupTable::Dense { .. } => dense += 1,
                    GroupTable::Hashed(_) => hashed += 1,
                }
            }
            let lanes = [
                located.lanes(ColumnVector::ints).is_some(),
                located.lanes(ColumnVector::dates).is_some(),
                located.lanes(ColumnVector::strs).is_some(),
            ];
            typed += usize::from(lanes.contains(&true));
        }
        assert!(
            typed > 250 && dense > 10 && hashed > 10,
            "{typed} {dense} {hashed}"
        );
    }

    /// The groups of a single `Str` key read as `&str`s from its sources.
    fn str_groups<'a>(build: &Located<'a>, probe: Option<&Located<'a>>) -> Grouping {
        fn strs<'a>(l: &Located<'a>) -> Lanes<'a, StrVec> {
            l.lanes(ColumnVector::strs).expect("a Str key")
        }
        let probe = probe.map(|p| Typed(strs(p), StrVec::get));
        assign_groups(Typed(strs(build), StrVec::get), probe)
    }

    #[test]
    fn coded_str_keys_group_like_their_strings() {
        use rand::SeedableRng;
        let (mut several, mut same, mut apart) = (0, 0, 0);
        for case in 0..240 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(49_000 + case);
            let build = random_keys(&mut rng, DataType::Str, 200);
            let other = random_keys(&mut rng, DataType::Str, 300);
            let n = build.num_rows();
            // Build and probe from one column (two halves of its rows), or
            // from two columns; an aggregate over the build alone.
            let (b, half) = (build.locate(0, 0..n), build.locate(0, n / 2..n));
            let p = other.locate(0, 0..other.num_rows());
            for probe in [None, Some(&half), Some(&p)] {
                let got = coded_groups(&b, probe, usize::MAX).expect("a Str key");
                let want = str_groups(&b, probe);
                assert_eq!(got.of_row, want.of_row, "case {case}");
                assert_eq!(got.firsts, want.firsts, "case {case}");
                assert_eq!(got.probed, want.probed, "case {case}");
            }
            several += usize::from(fan_in(&b) > 1);
            same += usize::from(fan_in(&b) == 1);
            apart += usize::from(!shares_cells(&build.columns()[0], &other.columns()[0]));
        }
        assert!(
            several > 50 && same > 50 && apart > 200,
            "{several} {same} {apart}"
        );
    }

    #[test]
    fn a_dataset_exchange_is_built_once_and_dropped_with_its_rows() {
        let plan = || {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
            let ex = b.exchange(
                s,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 4,
                },
            );
            b.output(ex, "o").build().unwrap()
        };
        let storage = storage_with(kv_rows(100), kv_schema());
        let (first, second) = (run(&plan(), &storage), run(&plan(), &storage));
        assert_eq!(
            (first.exchange_memo_hits, second.exchange_memo_hits),
            (0, 1)
        );
        // The second run's exchange is the first's batches, not a rebuild.
        assert!(second.node_tables[1].holds_batches_of(&first.node_tables[1]));
        assert_eq!(first.node_tables, second.node_tables);
        assert_eq!(first.node_stats, second.node_stats);
        let sum = |o: &ExecOutcome| multiset_checksum(&o.outputs["o"]);
        assert_eq!(sum(&first), sum(&second));
        // New rows under the same id get their own exchange.
        let rows: Vec<Row> = kv_rows(60).into_iter().rev().collect();
        storage.put_dataset(DatasetId::new(1), Table::single(kv_schema(), rows.clone()));
        let (third, fourth) = (run(&plan(), &storage), run(&plan(), &storage));
        assert_eq!(
            (third.exchange_memo_hits, fourth.exchange_memo_hits),
            (0, 1)
        );
        let want = Table::single(kv_schema(), rows)
            .hash_repartition(&[0], 4)
            .unwrap();
        for out in [&third, &fourth] {
            for p in 0..4 {
                assert_eq!(out.node_tables[1].partition_rows(p), want.partition_rows(p));
            }
        }
    }

    #[test]
    fn a_join_against_an_empty_right_side_reads_no_left_key() {
        let reversed: Vec<u32> = (0..300).rev().collect();
        let empty = RecordBatch::new(Vec::new(), 0);
        let padding = format!("{:?}", ColumnVector::from_values(vec![Value::Null; 300]));
        for keys in [&[0][..], &[0, 1]] {
            for kind in [JoinKind::Inner, JoinKind::LeftSemi, JoinKind::LeftOuter] {
                // A fresh take each time: none of its columns has been read.
                let left = partition_as_batch(&Table::single(kv_schema(), kv_rows(300)), 0)
                    .take(&reversed);
                let before = cells_gathered();
                let out = hash_join_batch(&left, &empty, kind, keys, keys, 2);
                assert_eq!(cells_gathered() - before, 0, "{kind:?} on {keys:?}");
                if kind != JoinKind::LeftOuter {
                    assert!(out.is_empty(), "{kind:?}");
                    continue;
                }
                let [padded] = out.as_slice() else {
                    panic!("one batch")
                };
                assert_eq!(padded.num_rows(), 300);
                for j in 2..4 {
                    assert_eq!(format!("{:?}", padded.columns()[j].dense()), padding);
                }
            }
        }
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
            .collect::<Vec<_>>();
        let right = Table::from_batches(
            schema.clone(),
            vec![right_batches.into_iter().collect()],
            PhysicalProps::single(),
        );
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
