//! One byte layout per type, for everything `scope-store` persists and the
//! `scope-net` wire carries — the same bytes in both places, so the
//! loopback acceptance test can compare in-process and over-the-wire
//! `LookupResponse`s by their encodings, and the durable log replays
//! `ReportRequest`s recorded verbatim.
//!
//! A layout is one [`Codec`] impl: [`Codec::put`] appends the value to an
//! [`Enc`], [`Codec::get`] reads it back from a bounds-checked [`Dec`]. The
//! buffer layer and its conventions live in `scope_common::codec`: integers
//! little-endian, `usize` as `u64`, `f64` as IEEE bits, strings as a `u32`
//! length plus UTF-8 (at most [`MAX_STR`]), options as a `0`/`1` byte plus
//! payload, enums as a `u8` tag plus payload.
//!
//! Most layouts are written once, as a list, by one of two macros:
//!
//! * [`codec_record!`](crate::codec_record) — a struct's fields in wire
//!   order; the decoder builds the struct literal, so a field missing from
//!   the list does not compile;
//! * [`codec_tags!`](crate::codec_tags) — a fieldless enum's `u8` tags
//!   (append-only: a tag, once shipped, keeps its meaning).
//!
//! Tagged unions with payloads ([`Value`], [`Expr`], [`Partitioning`],
//! [`SubsumeDetail`], and in their own modules `WalEvent` and the wire
//! frames) keep hand-written arms, but every field inside an arm goes
//! through [`Codec`].
//!
//! Two count rules:
//!
//! * protocol sequences ([`Vec`], [`BTreeMap`], and [`HashMap`]/[`HashSet`]
//!   with their entries sorted by encoded key) carry a `u32` count capped
//!   at [`MAX_SEQ`];
//! * bulk counts are raw, uncapped `u32`s: a view's partition and row counts
//!   here, and the catalog snapshot's three section counts (a long-lived
//!   service registers more than [`MAX_SEQ`] views).
//!
//! Every decoder reserves at most 1,024 elements ahead of the bytes that
//! back them, so a hostile count costs nothing before the payload runs out.
//! [`Symbol`]s travel as their string and are re-interned on decode, and
//! [`Expr`] trees are depth-limited at [`MAX_EXPR_DEPTH`]. Every decode
//! returns [`CodecError`] rather than panicking: the decoder is the first
//! line of defense against hostile network bytes and bit-rotted disk bytes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

pub use scope_common::codec::{malformed, CodecError, Dec, Enc, MAX_EXPR_DEPTH, MAX_SEQ, MAX_STR};
use scope_common::hash::Sig128;
use scope_common::ids::{ClusterId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_engine::data::{ColumnVector, Table};
use scope_engine::optimizer::{Annotation, AvailableView, SubsumedView};
use scope_engine::repo::{JobRecord, SubgraphRun};
use scope_engine::storage::{ViewFile, ViewMeta};
use scope_plan::expr::{AggExpr, AggFunc, BinOp, ScalarFunc, UnaryOp};
use scope_plan::interval::Interval;
use scope_plan::{
    Cell, Column, DataType, Expr, NamedExpr, OpKind, Partitioning, PhysicalProps, Schema, SortDir,
    SortKey, SortOrder, Value,
};
use scope_signature::{SubgraphInfo, SubsumeDescriptor, SubsumeDetail, SubsumeKind};

use crate::analyzer::SelectedView;
use crate::api::{LookupRequest, ProposeRequest, ReportRequest};
use crate::metadata::{LockOutcome, LookupResponse, MetadataStats, PurgeSweep};

type Result<T> = std::result::Result<T, CodecError>;

/// A type's byte layout, stated once for both directions.
pub trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, e: &mut Enc);

    /// Reads one value, failing on truncated or malformed bytes.
    fn get(d: &mut Dec) -> Result<Self>;

    /// The encoding of `self` as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.put(&mut e);
        e.buf
    }

    /// Decodes a whole payload: bytes left over are malformed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let value = Self::get(&mut d)?;
        d.finish()?;
        Ok(value)
    }
}

/// Implements [`Codec`](crate::codec::Codec) for structs from one field list
/// each: the fields are written and read in list order.
#[macro_export]
macro_rules! codec_record {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::codec::Codec for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Codec::put(&self.$field, e);)+
            }
            fn get(
                d: &mut $crate::codec::Dec,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Ok($ty { $($field: $crate::codec::Codec::get(d)?),+ })
            }
        }
    )+};
}

/// Implements [`Codec`](crate::codec::Codec) for fieldless enums from one
/// `Variant = tag` table each; an unknown tag is malformed.
#[macro_export]
macro_rules! codec_tags {
    ($($ty:ident { $($variant:ident = $tag:literal),+ $(,)? })+) => {$(
        impl $crate::codec::Codec for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                e.put_u8(match self { $($ty::$variant => $tag),+ });
            }
            fn get(
                d: &mut $crate::codec::Dec,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                match d.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    t => Err($crate::codec::malformed(format!(
                        concat!(stringify!($ty), " tag {}"),
                        t
                    ))),
                }
            }
        }
    )+};
}

// ---------------------------------------------------------------------------
// Scalars, ids and containers

macro_rules! scalars {
    ($($ty:ty: $put:ident / $get:ident),+) => {$(
        impl Codec for $ty {
            fn put(&self, e: &mut Enc) {
                e.$put(*self);
            }
            fn get(d: &mut Dec) -> Result<Self> {
                d.$get()
            }
        }
    )+};
}

scalars! {
    u8: put_u8 / u8, u32: put_u32 / u32, u64: put_u64 / u64, i32: put_i32 / i32,
    i64: put_i64 / i64, f64: put_f64 / f64, bool: put_bool / bool
}

/// Ids and simulated times travel as their raw `u64`.
macro_rules! newtypes {
    ($($ty:ident),+) => {$(
        impl Codec for $ty {
            fn put(&self, e: &mut Enc) {
                e.put_u64(self.0);
            }
            fn get(d: &mut Dec) -> Result<Self> {
                Ok($ty(d.u64()?))
            }
        }
    )+};
}

newtypes! { JobId, VcId, NodeId, ClusterId, UserId, TemplateId, SimTime, SimDuration }

impl Codec for u128 {
    fn put(&self, e: &mut Enc) {
        (*self as u64, (*self >> 64) as u64).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(d.u64()? as u128 | (d.u64()? as u128) << 64)
    }
}

impl Codec for usize {
    fn put(&self, e: &mut Enc) {
        e.put_usize(*self);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        d.usize_capped(u32::MAX as usize)
    }
}

impl Codec for String {
    fn put(&self, e: &mut Enc) {
        e.put_str(self);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        d.str()
    }
}

impl Codec for Symbol {
    fn put(&self, e: &mut Enc) {
        e.put_str(self.as_str());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Symbol::intern(&d.str()?))
    }
}

impl Codec for Sig128 {
    fn put(&self, e: &mut Enc) {
        e.put_u64(self.hi);
        e.put_u64(self.lo);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Sig128::new(d.u64()?, d.u64()?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.put_seq(self.len());
        for x in self {
            x.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let n = d.seq()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(d)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, e: &mut Enc) {
        e.put_seq(self.len());
        for (k, v) in self {
            k.put(e);
            v.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let mut out = BTreeMap::new();
        for _ in 0..d.seq()? {
            out.insert(K::get(d)?, V::get(d)?);
        }
        Ok(out)
    }
}

/// Orders values by their encodings (reusing two buffers): hashed collections
/// write in this order, so neither iteration nor interning order moves them.
fn by_encoding<T: Codec>() -> impl FnMut(&T, &T) -> std::cmp::Ordering {
    let (mut a, mut b) = (Enc::new(), Enc::new());
    move |x, y| {
        a.buf.clear();
        b.buf.clear();
        x.put(&mut a);
        y.put(&mut b);
        a.buf.cmp(&b.buf)
    }
}

/// A hashed map's entries, sorted by their keys' encodings.
impl<K: Codec + Eq + Hash, V: Codec> Codec for HashMap<K, V> {
    fn put(&self, e: &mut Enc) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        let mut order = by_encoding();
        entries.sort_unstable_by(|x, y| order(x.0, y.0));
        e.put_seq(entries.len());
        for (k, v) in entries {
            k.put(e);
            v.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        (0..d.seq()?).map(|_| <(K, V)>::get(d)).collect()
    }
}

/// A hashed set's elements, sorted by their encodings.
impl<T: Codec + Eq + Hash> Codec for HashSet<T> {
    fn put(&self, e: &mut Enc) {
        let mut elements: Vec<&T> = self.iter().collect();
        let mut order = by_encoding();
        elements.sort_unstable_by(|x, y| order(*x, *y));
        e.put_seq(elements.len());
        elements.iter().for_each(|x| x.put(e));
    }
    fn get(d: &mut Dec) -> Result<Self> {
        (0..d.seq()?).map(|_| T::get(d)).collect()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(x) => {
                e.put_u8(1);
                x.put(e);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            t => Err(malformed(format!("option tag {t}"))),
        }
    }
}

macro_rules! tuples {
    ($(($($t:ident . $i:tt),+))+) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)+
            }
            fn get(d: &mut Dec) -> Result<Self> {
                Ok(($($t::get(d)?,)+))
            }
        }
    )+};
}

tuples! { (A.0, B.1) (A.0, B.1, C.2) }

impl<T: Codec> Codec for Box<T> {
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Box::new(T::get(d)?))
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Arc::new(T::get(d)?))
    }
}

// ---------------------------------------------------------------------------
// Fieldless enums

codec_tags! {
    DataType { Int = 0, Float = 1, Str = 2, Bool = 3, Date = 4 }
    OpKind {
        Sort = 0, Exchange = 1, Range = 2, Scalar = 3, RestrRemap = 4, Filter = 5,
        HashGbAgg = 6, StreamGbAgg = 7, Process = 8, Spool = 9, MergeJoin = 10,
        Sequence = 11, HashJoin = 12, UnionAll = 13, Combine = 14, VirtualDataset = 15,
        Reduce = 16, Extract = 17, GbApply = 18, Top = 19, LoopsJoin = 20, Output = 21,
        TableScan = 22, Window = 23, Nop = 24, Write = 25,
    }
    UnaryOp { Not = 0, Neg = 1, IsNull = 2 }
    BinOp {
        Add = 0, Sub = 1, Mul = 2, Div = 3, Mod = 4, Eq = 5, Ne = 6, Lt = 7, Le = 8,
        Gt = 9, Ge = 10, And = 11, Or = 12,
    }
    ScalarFunc {
        Year = 0, Month = 1, Len = 2, Lower = 3, Upper = 4, Prefix = 5, Abs = 6,
        Hash64 = 7, Concat = 8, If = 9, Least = 10, Greatest = 11,
    }
    AggFunc { Count = 0, Sum = 1, Min = 2, Max = 3, Avg = 4, CountDistinct = 5 }
    SortDir { Asc = 0, Desc = 1 }
    SubsumeKind { Filter = 0, Project = 1, Rollup = 2 }
    LockOutcome { Acquired = 0, AlreadyLocked = 1, AlreadyMaterialized = 2 }
}

// ---------------------------------------------------------------------------
// Records

codec_record! {
    Column { name, dtype }
    NamedExpr { name, expr }
    AggExpr { name, func, input }
    SortKey { col, dir }
    PhysicalProps { partitioning, sort }
    Interval { lo, hi }
    SubsumeDescriptor { kind, child_precise, cols, keys, schema, detail }
    AvailableView { precise, rows, bytes, props }
    Annotation { normalized, props, ttl, avg_cpu, avg_rows, avg_bytes }
    SubsumedView { view, normalized, descriptor, avg_cpu }
    LookupRequest { job, vc, tags, probes, at }
    ProposeRequest { precise, job, vc, lock_ttl, at }
    ReportRequest { view, normalized, producer, vc, available_at, expires_at, descriptor }
    LookupResponse { annotations, tier2, latency, hit_count }
    PurgeSweep { views_purged, annotations_purged }
    MetadataStats {
        lookups, annotations_returned, locks_granted, lock_conflicts, already_materialized,
        views_registered, expired_takeovers, failed_lookups, failed_proposals, failed_reports,
        purged_annotations, tier2_hits, tier2_rejects,
    }
    SubgraphInfo {
        root, precise, normalized, root_kind, num_nodes, input_tags, props, has_user_code,
    }
    SubgraphRun { info, out_rows, out_bytes, exclusive_cpu, cumulative_cpu, finish_offset }
    JobRecord {
        job, cluster, vc, user, template, instance, submitted_at, latency, cpu_time, tags,
        subgraphs,
    }
    SelectedView { annotation, input_tags, utility, frequency, precise_last_seen }
    ViewMeta { precise, normalized, producer, created_at, expires_at, rows, bytes }
    ViewFile { meta, props, table }
}

impl Codec for Schema {
    fn put(&self, e: &mut Enc) {
        e.put_seq(self.len());
        for c in self.columns() {
            c.put(e);
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Schema::new(Codec::get(d)?).map_err(|e| malformed(format!("schema: {e}")))
    }
}

impl Codec for SortOrder {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(SortOrder(Codec::get(d)?))
    }
}

// ---------------------------------------------------------------------------
// Tagged unions

impl Codec for Value {
    fn put(&self, e: &mut Enc) {
        put_cell(Cell::of(self), e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => Value::Null,
            1 => Value::Bool(Codec::get(d)?),
            2 => Value::Int(Codec::get(d)?),
            3 => Value::Float(Codec::get(d)?),
            4 => Value::Str(Codec::get(d)?),
            5 => Value::Date(Codec::get(d)?),
            t => return Err(malformed(format!("value tag {t}"))),
        })
    }
}

/// A [`Value`]'s layout, written from a borrowed cell so a view's columns
/// encode without building a `Value` per cell.
fn put_cell(cell: Cell<'_>, e: &mut Enc) {
    match cell {
        Cell::Null => e.put_u8(0),
        Cell::Bool(b) => {
            e.put_u8(1);
            b.put(e);
        }
        Cell::Int(i) => {
            e.put_u8(2);
            i.put(e);
        }
        Cell::Float(f) => {
            e.put_u8(3);
            f.put(e);
        }
        Cell::Str(s) => {
            e.put_u8(4);
            e.put_str(s);
        }
        Cell::Date(d) => {
            e.put_u8(5);
            d.put(e);
        }
    }
}

impl Codec for Expr {
    fn put(&self, e: &mut Enc) {
        match self {
            Expr::Col(i) => {
                e.put_u8(0);
                i.put(e);
            }
            Expr::Lit(v) => {
                e.put_u8(1);
                v.put(e);
            }
            Expr::RecurringParam { name, value } => {
                e.put_u8(2);
                name.put(e);
                value.put(e);
            }
            Expr::Unary { op, child } => {
                e.put_u8(3);
                op.put(e);
                child.put(e);
            }
            Expr::Binary { op, left, right } => {
                e.put_u8(4);
                op.put(e);
                left.put(e);
                right.put(e);
            }
            Expr::Func { func, args } => {
                e.put_u8(5);
                func.put(e);
                args.put(e);
            }
        }
    }

    /// Depth-limited at [`MAX_EXPR_DEPTH`], so a nesting bomb is refused
    /// instead of overflowing the stack.
    fn get(d: &mut Dec) -> Result<Self> {
        d.descend()?;
        let x = match d.u8()? {
            0 => Expr::Col(Codec::get(d)?),
            1 => Expr::Lit(Codec::get(d)?),
            2 => Expr::RecurringParam {
                name: Codec::get(d)?,
                value: Codec::get(d)?,
            },
            3 => Expr::Unary {
                op: Codec::get(d)?,
                child: Codec::get(d)?,
            },
            4 => Expr::Binary {
                op: Codec::get(d)?,
                left: Codec::get(d)?,
                right: Codec::get(d)?,
            },
            5 => Expr::Func {
                func: Codec::get(d)?,
                args: Codec::get(d)?,
            },
            t => return Err(malformed(format!("expr tag {t}"))),
        };
        d.ascend();
        Ok(x)
    }
}

impl Codec for Partitioning {
    fn put(&self, e: &mut Enc) {
        match self {
            Partitioning::Single => e.put_u8(0),
            Partitioning::Hash { cols, parts } => {
                e.put_u8(1);
                cols.put(e);
                parts.put(e);
            }
            Partitioning::Range { col, parts } => {
                e.put_u8(2);
                col.put(e);
                parts.put(e);
            }
            Partitioning::RoundRobin { parts } => {
                e.put_u8(3);
                parts.put(e);
            }
            Partitioning::Any => e.put_u8(4),
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => Partitioning::Single,
            1 => Partitioning::Hash {
                cols: Codec::get(d)?,
                parts: Codec::get(d)?,
            },
            2 => Partitioning::Range {
                col: Codec::get(d)?,
                parts: Codec::get(d)?,
            },
            3 => Partitioning::RoundRobin {
                parts: Codec::get(d)?,
            },
            4 => Partitioning::Any,
            t => return Err(malformed(format!("partitioning tag {t}"))),
        })
    }
}

impl Codec for SubsumeDetail {
    fn put(&self, e: &mut Enc) {
        match self {
            SubsumeDetail::Filter { intervals } => {
                e.put_u8(0);
                intervals.put(e);
            }
            SubsumeDetail::Project { exprs } => {
                e.put_u8(1);
                exprs.put(e);
            }
            SubsumeDetail::Rollup { keys, aggs } => {
                e.put_u8(2);
                keys.put(e);
                aggs.put(e);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => SubsumeDetail::Filter {
                intervals: Codec::get(d)?,
            },
            1 => SubsumeDetail::Project {
                exprs: Codec::get(d)?,
            },
            2 => SubsumeDetail::Rollup {
                keys: Codec::get(d)?,
                aggs: Codec::get(d)?,
            },
            t => return Err(malformed(format!("subsume detail tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// View bodies (bulk data)

/// A materialized view's rows: schema, physical properties, then per
/// partition a raw `u32` row count and every row's cells in column order.
/// Partition and row counts are bulk counts, not [`MAX_SEQ`]-capped: tables
/// legitimately exceed protocol-message sizes. Cells are written straight
/// from the columns and read back into columns, one batch per partition.
impl Codec for Table {
    fn put(&self, e: &mut Enc) {
        self.schema.put(e);
        self.props.put(e);
        e.put_u32(self.num_partitions() as u32);
        for p in 0..self.num_partitions() {
            e.put_u32(self.partition_num_rows(p) as u32);
            for cell in self.partition_cells(p) {
                put_cell(cell, e);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let schema = Schema::get(d)?;
        let props = PhysicalProps::get(d)?;
        let nparts = d.u32()? as usize;
        if nparts > 1 << 16 {
            return Err(malformed(format!("{nparts} partitions")));
        }
        let mut partitions = Vec::with_capacity(nparts.min(1024));
        for _ in 0..nparts {
            let nrows = d.u32()? as usize;
            // Rows of no columns take no bytes, so no truncation would stop
            // a hostile count of them.
            if schema.is_empty() && nrows > 0 {
                return Err(malformed(format!("{nrows} rows of no columns")));
            }
            let reserve = nrows.min(1024 / schema.len().max(1));
            let mut columns: Vec<Vec<Value>> = (0..schema.len())
                .map(|_| Vec::with_capacity(reserve))
                .collect();
            for _ in 0..nrows {
                for column in &mut columns {
                    column.push(Value::get(d)?);
                }
            }
            partitions.push(columns.into_iter().map(ColumnVector::from_values).collect());
        }
        Table::from_columns(schema, partitions, props).map_err(|e| malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec>(value: &T) -> T {
        let bytes = value.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        // Byte-stability: encoding the decoded value reproduces the bytes.
        assert_eq!(back.to_bytes(), bytes);
        back
    }

    #[test]
    fn job_record_round_trips() {
        let rec = JobRecord {
            job: JobId::new(7),
            cluster: ClusterId::new(1),
            vc: VcId::new(2),
            user: UserId::new(3),
            template: TemplateId::new(4),
            instance: 5,
            submitted_at: SimTime(1000),
            latency: SimDuration::from_micros(2000),
            cpu_time: SimDuration::from_micros(3000),
            tags: vec![Symbol::intern("in1"), Symbol::intern("in2")],
            subgraphs: vec![SubgraphRun {
                info: SubgraphInfo {
                    root: NodeId::new(9),
                    precise: Sig128::new(1, 2),
                    normalized: Sig128::new(3, 4),
                    root_kind: OpKind::HashGbAgg,
                    num_nodes: 11,
                    input_tags: vec![Symbol::intern("in1")],
                    props: Arc::new(PhysicalProps::single()),
                    has_user_code: false,
                },
                out_rows: 100,
                out_bytes: 4096,
                exclusive_cpu: SimDuration::from_micros(10),
                cumulative_cpu: SimDuration::from_micros(90),
                finish_offset: SimDuration::from_micros(70),
            }],
        };
        let back = round_trip(&rec);
        assert_eq!(back.job, rec.job);
        assert_eq!(back.subgraphs.len(), 1);
        assert_eq!(back.subgraphs[0].info.root_kind, OpKind::HashGbAgg);
        assert_eq!(
            back.subgraphs[0].cumulative_cpu,
            rec.subgraphs[0].cumulative_cpu
        );
        assert_eq!(back.tags, rec.tags);
    }

    #[test]
    fn view_file_round_trips_with_rows() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ])
        .unwrap();
        let partitions = vec![
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
            ],
            vec![vec![Value::Int(3), Value::Null]],
        ];
        let table = Table::from_rows(schema, partitions, PhysicalProps::any());
        let vf = ViewFile {
            table: Arc::new(table),
            props: PhysicalProps::any(),
            meta: ViewMeta {
                precise: Sig128::new(10, 20),
                normalized: Sig128::new(30, 40),
                producer: JobId::new(1),
                created_at: SimTime(5),
                expires_at: SimTime(500),
                rows: 3,
                bytes: 64,
            },
        };
        let back = round_trip(&vf);
        assert_eq!(back.meta, vf.meta);
        assert_eq!(back.table.num_partitions(), 2);
        assert_eq!(back.table.num_rows(), 3);
        assert_eq!(back.table.partition_rows(0), vf.table.partition_rows(0));
        assert_eq!(back.table.partition_rows(1), vf.table.partition_rows(1));
    }

    #[test]
    fn expr_depth_guard_still_trips() {
        // A deeply nested unary chain must be rejected, not overflow.
        let mut x = Expr::Col(0);
        for _ in 0..200 {
            x = Expr::Unary {
                op: UnaryOp::Not,
                child: Box::new(x),
            };
        }
        assert!(Expr::from_bytes(&x.to_bytes()).is_err());
    }

    #[test]
    fn selected_view_round_trips() {
        let v = SelectedView {
            annotation: Annotation {
                normalized: Sig128::new(5, 6),
                props: PhysicalProps::single(),
                ttl: SimDuration::from_micros(100),
                avg_cpu: SimDuration::from_micros(200),
                avg_rows: 10,
                avg_bytes: 1000,
            },
            input_tags: vec![Symbol::intern("t")],
            utility: SimDuration::from_micros(300),
            frequency: 4,
            precise_last_seen: Sig128::new(7, 8),
        };
        let back = round_trip(&v);
        assert_eq!(back.annotation.normalized, v.annotation.normalized);
        assert_eq!(back.utility, v.utility);
        assert_eq!(back.frequency, v.frequency);
        assert_eq!(back.precise_last_seen, v.precise_last_seen);
    }

    #[test]
    fn unknown_tags_are_malformed() {
        assert!(OpKind::from_bytes(&[26]).is_err());
        assert!(Option::<u8>::from_bytes(&[2, 0]).is_err());
        assert!(Value::from_bytes(&[6]).is_err());
    }
}
