//! The seed row-at-a-time executor, kept as the test oracle.
//!
//! `tests/properties.rs` runs plans through both the columnar executor and
//! [`execute_plan_rows`] and asserts identical tables and
//! [`NodeRuntimeStats`]. The kernels here are the seed executor's, built on
//! the engine's public API only: they share no kernel (and no accumulator)
//! with `scope-engine/src/exec.rs`, so a bug there is something this
//! differential can catch. The seven user-defined operators' row code
//! ([`process_row`], [`reduce_group`]) lives only here: the library runs
//! them as batch kernels. Every kernel builds its output rows anew, so
//! [`RowExecOutcome::cells_gathered`] is also what a plan costs when nothing
//! is deferred.

use std::collections::{HashMap, HashSet};

use scope_common::hash::SipHasher24;
use scope_common::time::SimTime;
use scope_common::{Result, ScopeError};
use scope_engine::cost::CostModel;
use scope_engine::data::{Row, Table};
use scope_engine::exec::NodeRuntimeStats;
use scope_engine::storage::StorageManager;
use scope_plan::op::{AggImpl, WindowFunc};
use scope_plan::{
    AggExpr, AggFunc, JoinImpl, JoinKind, Operator, Partitioning, PhysicalProps, QueryGraph,
    Schema, SortOrder, Udo, UdoKind, Value,
};

// ---------------------------------------------------------------------------
// Row kernels
// ---------------------------------------------------------------------------

/// The seed aggregate accumulator for one group. Float sums are added in
/// IEEE total order at finish time, so the result does not depend on
/// arrival order; integer sums wrap.
#[derive(Default)]
struct Acc {
    count: u64,
    int_sum: i64,
    float_values: Vec<f64>,
    sum_is_float: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<Value>,
    non_null: u64,
}

impl Acc {
    fn update(&mut self, func: AggFunc, v: &Value) {
        self.count += 1;
        if v.is_null() {
            return;
        }
        self.non_null += 1;
        match (func, v) {
            (AggFunc::Sum | AggFunc::Avg, Value::Float(f)) => {
                self.sum_is_float = true;
                self.float_values.push(*f);
            }
            (AggFunc::Sum | AggFunc::Avg, other) => {
                if let Some(x) = other.as_i64() {
                    self.int_sum = self.int_sum.wrapping_add(x);
                }
            }
            (AggFunc::Min, _) if self.min.as_ref().is_none_or(|m| v < m) => {
                self.min = Some(v.clone());
            }
            (AggFunc::Max, _) if self.max.as_ref().is_none_or(|m| v > m) => {
                self.max = Some(v.clone());
            }
            (AggFunc::CountDistinct, _) => {
                self.distinct.insert(v.clone());
            }
            _ => {}
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        let float_total = || {
            let mut vals = self.float_values.clone();
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.iter().sum::<f64>() + self.int_sum as f64
        };
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum | AggFunc::Avg if self.non_null == 0 => Value::Null,
            AggFunc::Sum if self.sum_is_float => Value::Float(float_total()),
            AggFunc::Sum => Value::Int(self.int_sum),
            AggFunc::Avg => Value::Float(float_total() / self.non_null as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::CountDistinct => Value::Int(self.distinct.len() as i64),
        }
    }
}

/// Stable in-place sort of rows by a sort order.
fn sort_rows(rows: &mut [Row], order: &SortOrder) {
    rows.sort_by(|a, b| compare_rows(a, b, order));
}

/// Compares two rows under a sort order.
fn compare_rows(a: &Row, b: &Row, order: &SortOrder) -> std::cmp::Ordering {
    for key in &order.0 {
        let ord = a[key.col].cmp(&b[key.col]);
        let ord = match key.dir {
            scope_plan::SortDir::Asc => ord,
            scope_plan::SortDir::Desc => ord.reverse(),
        };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn agg_row(key: &[Value], accs: &[Acc], aggs: &[AggExpr]) -> Row {
    let mut row: Row = key.to_vec();
    for (acc, a) in accs.iter().zip(aggs) {
        row.push(acc.finish(a.func));
    }
    row
}

fn hash_aggregate(rows: &[Row], keys: &[usize], aggs: &[AggExpr]) -> Result<Vec<Row>> {
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            aggs.iter().map(|_| Acc::default()).collect()
        });
        for (acc, a) in accs.iter_mut().zip(aggs) {
            acc.update(a.func, &row[a.input.min(row.len() - 1)]);
        }
    }
    Ok(order
        .into_iter()
        .map(|key| {
            let accs = &groups[&key];
            agg_row(&key, accs, aggs)
        })
        .collect())
}

fn stream_aggregate(rows: &[Row], keys: &[usize], aggs: &[AggExpr]) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for group in key_runs(rows, keys) {
        let mut accs: Vec<Acc> = aggs.iter().map(|_| Acc::default()).collect();
        for row in group {
            for (acc, a) in accs.iter_mut().zip(aggs) {
                acc.update(a.func, &row[a.input.min(row.len() - 1)]);
            }
        }
        let key: Vec<Value> = keys.iter().map(|&k| group[0][k].clone()).collect();
        out.push(agg_row(&key, &accs, aggs));
    }
    Ok(out)
}

/// Splits sorted rows into maximal runs of equal keys. For unsorted input
/// this still groups *adjacent* equal keys only — callers needing full
/// grouping must sort first (the optimizer's enforcers do).
fn key_runs<'a>(rows: &'a [Row], keys: &'a [usize]) -> impl Iterator<Item = &'a [Row]> + 'a {
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= rows.len() {
            return None;
        }
        let mut end = start + 1;
        while end < rows.len() && keys.iter().all(|&k| rows[end][k] == rows[start][k]) {
            end += 1;
        }
        let run = &rows[start..end];
        start = end;
        Some(run)
    })
}

/// Executes `udo` as a *processor* over one input row, appending
/// output rows to `out`. Only valid for processor kinds.
fn process_row(udo: &Udo, row: &[Value], out: &mut Vec<Vec<Value>>) -> Result<()> {
    match &udo.kind {
        UdoKind::Tokenize { col } => {
            let text = match &row[*col] {
                Value::Str(s) => s.clone(),
                Value::Null => return Ok(()),
                other => {
                    return Err(ScopeError::Execution(format!("tokenize on {other}")));
                }
            };
            for token in text.split_whitespace() {
                let mut r = row.to_vec();
                r.push(Value::Str(token.to_string()));
                out.push(r);
            }
            Ok(())
        }
        UdoKind::ClampOutliers { col, lo, hi } => {
            let mut r = row.to_vec();
            if let Some(v) = r[*col].as_f64() {
                let clamped = v.clamp(*lo as f64, *hi as f64);
                r[*col] = match &r[*col] {
                    Value::Int(_) => Value::Int(clamped as i64),
                    _ => Value::Float(clamped),
                };
            }
            out.push(r);
            Ok(())
        }
        UdoKind::ScoreModel { cols, seed } => {
            let mut h = SipHasher24::new_with_keys(*seed, !*seed);
            for c in cols {
                row[*c].stable_hash_into(&mut h);
            }
            let score = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
            let mut r = row.to_vec();
            r.push(Value::Float(score));
            out.push(r);
            Ok(())
        }
        other => Err(ScopeError::Execution(format!(
            "{} is not a row processor",
            other.name()
        ))),
    }
}

/// Executes `udo` as a *reducer/apply* over one whole group of rows.
/// Only valid for group-wise kinds.
fn reduce_group(udo: &Udo, group: &[Vec<Value>], out: &mut Vec<Vec<Value>>) -> Result<()> {
    match &udo.kind {
        UdoKind::TrimBand { col, gap } => {
            let vals: Vec<f64> = group.iter().filter_map(|r| r[*col].as_f64()).collect();
            if vals.is_empty() {
                return Ok(());
            }
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let (lo, hi) = (min + *gap as f64, max - *gap as f64);
            for r in group {
                if let Some(v) = r[*col].as_f64() {
                    if v >= lo && v <= hi {
                        out.push(r.clone());
                    }
                }
            }
            Ok(())
        }
        UdoKind::CountRows => {
            // Deterministic representative: the lexicographically
            // smallest row of the group (not "the first", which would
            // depend on physical arrival order).
            if let Some(rep) = group.iter().min() {
                let mut r = rep.clone();
                r.push(Value::Int(group.len() as i64));
                out.push(r);
            }
            Ok(())
        }
        UdoKind::TopPerGroup { col, n } => {
            let mut rows: Vec<&Vec<Value>> = group.iter().collect();
            // Ties broken by full-row order for determinism.
            rows.sort_by(|a, b| b[*col].cmp(&a[*col]).then_with(|| a.cmp(b)));
            for r in rows.into_iter().take(*n) {
                out.push(r.clone());
            }
            Ok(())
        }
        other => Err(ScopeError::Execution(format!(
            "{} is not a group reducer",
            other.name()
        ))),
    }
}

fn exec_window(
    rows: &[Row],
    func: &WindowFunc,
    partition: &[usize],
    order: &SortOrder,
) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for group in key_runs(rows, partition) {
        // Deterministic in-group order: the requested order, ties broken by
        // full-row comparison (running sums would otherwise depend on
        // physical arrival order).
        let mut group: Vec<&Row> = group.iter().collect();
        group.sort_by(|a, b| compare_rows(a, b, order).then_with(|| a.cmp(b)));
        let group: Vec<Row> = group.into_iter().cloned().collect();
        let group = &group[..];
        let mut running_sum = 0.0;
        let mut rank = 0usize;
        let mut seen = 0usize;
        let mut prev: Option<&Row> = None;
        for row in group {
            seen += 1;
            let tied = prev
                .map(|p| compare_rows(p, row, order).is_eq())
                .unwrap_or(false);
            if !tied {
                rank = seen;
            }
            let v = match func {
                WindowFunc::RowNumber => Value::Int(seen as i64),
                WindowFunc::Rank => Value::Int(rank as i64),
                WindowFunc::RunningSum(c) => {
                    running_sum += row[*c].as_f64().unwrap_or(0.0);
                    Value::Float(running_sum)
                }
            };
            let mut r = row.clone();
            r.push(v);
            out.push(r);
            prev = Some(row);
        }
    }
    Ok(out)
}

/// Hash/merge join of one co-partition pair, row at a time: build on right
/// (skipping NULL keys), probe left in arrival order.
fn hash_join_rows(
    lp: &[Row],
    rp: &[Row],
    kind: JoinKind,
    left_keys: &[usize],
    right_keys: &[usize],
    rwidth: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    let mut built: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in rp {
        let key: Vec<Value> = right_keys.iter().map(|&k| row[k].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue; // NULL keys never join
        }
        built.entry(key).or_default().push(row);
    }
    for lrow in lp {
        let key: Vec<Value> = left_keys.iter().map(|&k| lrow[k].clone()).collect();
        let matches = if key.iter().any(Value::is_null) {
            None
        } else {
            built.get(&key)
        };
        emit_join_rows(lrow, matches.map(|v| v.as_slice()), kind, rwidth, &mut out);
    }
    out
}

/// Nested-loops join of one left partition against the gathered right side.
fn loops_join_rows(
    lp: &[Row],
    rp: &[Row],
    kind: JoinKind,
    left_keys: &[usize],
    right_keys: &[usize],
    rwidth: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    for lrow in lp {
        let matches: Vec<&Row> = rp
            .iter()
            .filter(|rrow| {
                left_keys
                    .iter()
                    .zip(right_keys)
                    .all(|(&lk, &rk)| !lrow[lk].is_null() && lrow[lk] == rrow[rk])
            })
            .collect();
        let m = if matches.is_empty() {
            None
        } else {
            Some(matches.as_slice())
        };
        emit_join_rows(lrow, m, kind, rwidth, &mut out);
    }
    out
}

fn emit_join_rows(
    lrow: &Row,
    matches: Option<&[&Row]>,
    kind: JoinKind,
    rwidth: usize,
    out: &mut Vec<Row>,
) {
    match (kind, matches) {
        (JoinKind::LeftSemi, Some(m)) if !m.is_empty() => out.push(lrow.clone()),
        (JoinKind::LeftSemi, _) => {}
        (_, Some(m)) if !m.is_empty() => {
            for rrow in m {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                out.push(row);
            }
        }
        (JoinKind::LeftOuter, _) => {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Value::Null, rwidth));
            out.push(row);
        }
        (JoinKind::Inner, _) => {}
    }
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference executor
// ---------------------------------------------------------------------------

/// A partitioned table stored as plain row vectors — the seed executor's
/// physical layout, kept as the reference/baseline representation.
#[derive(Clone, Debug, PartialEq)]
pub struct RowTable {
    /// Column schema.
    pub schema: Schema,
    /// Rows per partition.
    pub parts: Vec<Vec<Row>>,
    /// Physical properties the data satisfies.
    pub props: PhysicalProps,
}

impl RowTable {
    /// Converts a columnar table by materializing every row.
    pub fn from_table(t: &Table) -> RowTable {
        RowTable {
            schema: t.schema.clone(),
            parts: (0..t.num_partitions())
                .map(|p| t.partition_rows(p))
                .collect(),
            props: t.props.clone(),
        }
    }

    /// Converts back to the columnar representation (same partitioning).
    pub fn to_table(&self) -> Table {
        Table::from_rows(self.schema.clone(), self.parts.clone(), self.props.clone())
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Total byte size, recomputed per call exactly like the seed
    /// `Table::num_bytes` (this is what the satellite fix caches in the
    /// columnar layout).
    pub fn num_bytes(&self) -> u64 {
        self.parts
            .iter()
            .flatten()
            .map(|r| r.iter().map(Value::byte_size).sum::<usize>() as u64)
            .sum()
    }

    /// All rows across partitions.
    pub fn all_rows(&self) -> Vec<Row> {
        self.parts.iter().flatten().cloned().collect()
    }

    fn gather(&self) -> RowTable {
        RowTable {
            schema: self.schema.clone(),
            parts: vec![self.all_rows()],
            props: PhysicalProps::single(),
        }
    }

    fn sort_partitions(&self, order: &SortOrder) -> RowTable {
        let mut parts = self.parts.clone();
        for p in &mut parts {
            sort_rows(p, order);
        }
        RowTable {
            schema: self.schema.clone(),
            parts,
            props: PhysicalProps {
                partitioning: self.props.partitioning.clone(),
                sort: order.clone(),
            },
        }
    }

    fn hash_repartition(&self, cols: &[usize], parts: usize) -> Result<RowTable> {
        if parts == 0 {
            return Err(ScopeError::Execution(
                "hash_repartition with 0 parts".into(),
            ));
        }
        for &c in cols {
            self.schema.column(c)?;
        }
        let mut out: Vec<Vec<Row>> = vec![Vec::new(); parts];
        for row in self.parts.iter().flatten() {
            let mut h =
                scope_common::hash::SipHasher24::new_with_keys(0x9e3779b97f4a7c15, 0x85ebca6b);
            for &c in cols {
                row[c].stable_hash_into(&mut h);
            }
            out[(h.finish() % parts as u64) as usize].push(row.clone());
        }
        Ok(RowTable {
            schema: self.schema.clone(),
            parts: out,
            props: PhysicalProps {
                partitioning: Partitioning::Hash {
                    cols: cols.to_vec(),
                    parts,
                },
                sort: SortOrder::none(),
            },
        })
    }

    fn range_repartition(&self, col: usize, parts: usize) -> Result<RowTable> {
        if parts == 0 {
            return Err(ScopeError::Execution(
                "range_repartition with 0 parts".into(),
            ));
        }
        self.schema.column(col)?;
        let mut keys: Vec<Value> = self
            .parts
            .iter()
            .flatten()
            .map(|r| r[col].clone())
            .collect();
        keys.sort();
        let boundaries: Vec<Value> = (1..parts)
            .map(|i| {
                keys.get(i * keys.len() / parts)
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect();
        let mut out: Vec<Vec<Row>> = vec![Vec::new(); parts];
        for row in self.parts.iter().flatten() {
            let p = boundaries.partition_point(|b| *b <= row[col]);
            out[p].push(row.clone());
        }
        Ok(RowTable {
            schema: self.schema.clone(),
            parts: out,
            props: PhysicalProps {
                partitioning: Partitioning::Range { col, parts },
                sort: SortOrder::none(),
            },
        })
    }

    fn round_robin_repartition(&self, parts: usize) -> Result<RowTable> {
        if parts == 0 {
            return Err(ScopeError::Execution("round_robin with 0 parts".into()));
        }
        let mut out: Vec<Vec<Row>> = vec![Vec::new(); parts];
        for (i, row) in self.parts.iter().flatten().enumerate() {
            out[i % parts].push(row.clone());
        }
        Ok(RowTable {
            schema: self.schema.clone(),
            parts: out,
            props: PhysicalProps {
                partitioning: Partitioning::RoundRobin { parts },
                sort: SortOrder::none(),
            },
        })
    }
}

/// Result of a reference (row-at-a-time) plan execution.
#[derive(Debug)]
pub struct RowExecOutcome {
    /// Output table per node.
    pub node_tables: Vec<RowTable>,
    /// Runtime statistics per node — must match the columnar executor's
    /// byte for byte.
    pub node_stats: Vec<NodeRuntimeStats>,
    /// Terminal outputs by name (gathered).
    pub outputs: HashMap<String, RowTable>,
    /// Cells copied: Σ rows × width over all nodes, each built anew — what
    /// `ExecOutcome::cells_gathered` is measured against.
    pub cells_gathered: u64,
}

/// Executes `graph` row at a time — the seed executor, preserved as the
/// reference implementation and benchmark baseline.
pub fn execute_plan_rows(
    graph: &QueryGraph,
    storage: &StorageManager,
    model: &CostModel,
    now: SimTime,
) -> Result<RowExecOutcome> {
    let mut tables: Vec<RowTable> = Vec::with_capacity(graph.len());
    let mut stats: Vec<NodeRuntimeStats> = Vec::with_capacity(graph.len());
    let mut outputs = HashMap::new();
    let mut cells_gathered = 0;
    let schemas = graph.validate()?;

    for node in graph.nodes() {
        let child_tables: Vec<&RowTable> =
            node.children.iter().map(|c| &tables[c.index()]).collect();
        let in_rows: u64 = child_tables.iter().map(|t| t.num_rows() as u64).sum();
        let out_schema = &schemas[node.id.index()];
        let (table, scanned) = exec_node_rows(&node.op, &child_tables, out_schema, storage, now)?;
        let out_rows = table.num_rows() as u64;
        let out_bytes = table.num_bytes();
        cells_gathered += out_rows * out_schema.len() as u64;
        let effective_in = if node.children.is_empty() {
            scanned
        } else {
            in_rows
        };
        let cpu = model.op_cpu(&node.op, effective_in, out_rows, out_bytes);
        if let Operator::Output { name, .. } = &node.op {
            outputs.insert(name.as_str().to_string(), table.gather());
        }
        stats.push(NodeRuntimeStats {
            in_rows: effective_in,
            out_rows,
            out_bytes,
            exclusive_cpu: cpu,
        });
        tables.push(table);
    }

    Ok(RowExecOutcome {
        node_tables: tables,
        node_stats: stats,
        outputs,
        cells_gathered,
    })
}

fn exec_node_rows(
    op: &Operator,
    inputs: &[&RowTable],
    out_schema: &Schema,
    storage: &StorageManager,
    now: SimTime,
) -> Result<(RowTable, u64)> {
    let one = || -> Result<&RowTable> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| ScopeError::Execution(format!("{} executed without input", op.kind())))
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
            let mut parts: Vec<Vec<Row>> = Vec::with_capacity(stored.num_partitions());
            for p in 0..stored.num_partitions() {
                let mut out_part: Vec<Row> = Vec::new();
                for row in stored.partition_rows(p) {
                    if let Some(pred) = predicate {
                        if !pred.eval(&row)?.is_true() {
                            continue;
                        }
                    }
                    match kind {
                        scope_plan::ScanKind::Extract => {
                            let udo = extractor.as_ref().ok_or_else(|| {
                                ScopeError::Execution("extract scan without extractor".into())
                            })?;
                            process_row(udo, &row, &mut out_part)?;
                        }
                        _ => out_part.push(row),
                    }
                }
                parts.push(out_part);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: stored.props.clone(),
                },
                scanned,
            ))
        }
        Operator::ViewGet { view_sig, .. } => {
            let file = storage.open_view(*view_sig, now)?;
            let scanned = file.table.num_rows() as u64;
            Ok((RowTable::from_table(&file.table), scanned))
        }
        Operator::Filter { predicate } => {
            let input = one()?;
            let mut parts = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                let mut out = Vec::new();
                for row in part {
                    if predicate.eval(row)?.is_true() {
                        out.push(row.clone());
                    }
                }
                parts.push(out);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: input.props.clone(),
                },
                0,
            ))
        }
        Operator::Project { exprs } => {
            let input = one()?;
            let mut parts = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                let mut out = Vec::with_capacity(part.len());
                for row in part {
                    let new_row: Result<Row> = exprs.iter().map(|ne| ne.expr.eval(row)).collect();
                    out.push(new_row?);
                }
                parts.push(out);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
        }
        Operator::Remap { cols, .. } => {
            let input = one()?;
            let parts = input
                .parts
                .iter()
                .map(|part| {
                    part.iter()
                        .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
                        .collect()
                })
                .collect();
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
        }
        Operator::Sort { order } => Ok((one()?.sort_partitions(order), 0)),
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
            let mut parts: Vec<Vec<Row>> = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                let rows = match implementation {
                    AggImpl::Hash => hash_aggregate(part, keys, aggs)?,
                    AggImpl::Stream => stream_aggregate(part, keys, aggs)?,
                };
                parts.push(rows);
            }
            if keys.is_empty() {
                let total: usize = parts.iter().map(Vec::len).sum();
                if total == 0 && !parts.is_empty() {
                    let accs: Vec<Acc> = aggs.iter().map(|_| Acc::default()).collect();
                    parts[0].push(agg_row(&[], &accs, aggs));
                }
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
        }
        Operator::Top { n, order } => {
            let input = one()?;
            let mut rows = input.all_rows();
            rows.sort_by(|a, b| compare_rows(a, b, order).then_with(|| a.cmp(b)));
            rows.truncate(*n);
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts: vec![rows],
                    props: PhysicalProps {
                        partitioning: Partitioning::Single,
                        sort: order.clone(),
                    },
                },
                0,
            ))
        }
        Operator::Window {
            func,
            partition,
            order,
        } => {
            let input = one()?;
            let mut parts = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                parts.push(exec_window(part, func, partition, order)?);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
        }
        Operator::Process { udo } => {
            let input = one()?;
            let mut parts = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                let mut out = Vec::new();
                for row in part {
                    process_row(udo, row, &mut out)?;
                }
                parts.push(out);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
        }
        Operator::Reduce { udo, keys } | Operator::GbApply { udo, keys } => {
            let input = one()?;
            let mut parts = Vec::with_capacity(input.parts.len());
            for part in &input.parts {
                let mut out = Vec::new();
                for group in key_runs(part, keys) {
                    reduce_group(udo, group, &mut out)?;
                }
                parts.push(out);
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: op.delivered_props(std::slice::from_ref(&input.props)),
                },
                0,
            ))
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
            let rwidth = right.schema.len();
            let pairs: Vec<(&Vec<Row>, &Vec<Row>)> = match implementation {
                JoinImpl::Loops => {
                    let rp = right.parts.first().ok_or_else(|| {
                        ScopeError::Execution("loops join with no right partition".into())
                    })?;
                    left.parts.iter().map(|lp| (lp, rp)).collect()
                }
                _ => {
                    if left.parts.len() != right.parts.len() {
                        return Err(ScopeError::Execution(format!(
                            "join partition mismatch: {} vs {}",
                            left.parts.len(),
                            right.parts.len()
                        )));
                    }
                    left.parts.iter().zip(&right.parts).collect()
                }
            };
            let mut parts = Vec::with_capacity(pairs.len());
            for (lp, rp) in pairs {
                parts.push(match implementation {
                    JoinImpl::Hash | JoinImpl::Merge => {
                        hash_join_rows(lp, rp, *kind, left_keys, right_keys, rwidth)
                    }
                    JoinImpl::Loops => {
                        loops_join_rows(lp, rp, *kind, left_keys, right_keys, rwidth)
                    }
                });
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: PhysicalProps {
                        partitioning: left.props.partitioning.clone(),
                        sort: SortOrder::none(),
                    },
                },
                0,
            ))
        }
        Operator::UnionAll => {
            let mut parts = Vec::new();
            for t in inputs {
                parts.extend(t.parts.iter().cloned());
            }
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts,
                    props: PhysicalProps::any(),
                },
                0,
            ))
        }
        Operator::Combine { udo } => {
            let mut left = inputs[0].all_rows();
            let mut right = inputs[1].all_rows();
            if !matches!(udo.kind, scope_plan::UdoKind::MergeStreams) {
                return Err(ScopeError::Execution(format!(
                    "{} is not a combiner",
                    udo.kind.name()
                )));
            }
            let order = SortOrder::asc(&[0]);
            sort_rows(&mut left, &order);
            sort_rows(&mut right, &order);
            left.extend(right);
            Ok((
                RowTable {
                    schema: out_schema.clone(),
                    parts: vec![left],
                    props: PhysicalProps::single(),
                },
                0,
            ))
        }
        Operator::Output { .. } => Ok((one()?.gather(), 0)),
    }
}
