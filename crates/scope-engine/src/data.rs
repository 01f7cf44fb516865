//! Partitioned in-memory tables, stored columnar.
//!
//! A [`Table`] is a list of partitions; each partition is a list of
//! immutable, reference-counted [`RecordBatch`]es; each batch holds
//! [`Column`]s: typed [`ColumnVector`]s with optional null masks, either
//! dense or **deferred**; a string column is a dictionary of distinct
//! values and one code per row ([`Strs`]). No shipped path reads a table
//! as rows: the executor, the view codec and table equality walk cells.
//! Rows exist for data generators and tests, which build tables with
//! [`Table::from_rows`], and for tests and the row-engine oracle, which
//! read them back with [`Table::partition_rows`], [`Table::all_rows`] and
//! [`RecordBatch::row`].
//!
//! **Gather on read, once per node.** Every operation that moves rows
//! without computing on them — the three repartitions, sort, filter, the
//! aggregate's key columns and the join emit — builds its whole output
//! through `RecordBatch::gather_columns` in one call and cuts each partition
//! from it as a **window** (a batch whose rows are a range of the build's
//! columns); `Table::views` reads a node's partitions back as rows of that
//! one build, so the next kernel also runs once per build, not once per
//! partition. The gather copies no cell: each column is a member of a
//! [`Recipe`], one vector of `(source, row)` picks and one list of source
//! batches shared by every column picked the same way, and per member the
//! column it reads in each source. Gathering from an unread recipe composes
//! the two pick vectors (once per distinct pattern, not per column), so
//! sources are always dense and a column that crosses five shuffles is
//! copied once, by [`Column::dense`], when an operator first reads it — or
//! never. Byte totals are counted on first use and never force a column.
//!
//! **Route once.** A dense column ([`Cells`]) memoises the partition of each
//! of its rows under the first single-key hash exchange that routes on it,
//! and later exchanges route a key column through its recipe's picks into
//! those maps: a dataset's key column is hashed once per process, and no
//! exchange forces its key.
//!
//! Three invariants carry the whole CloudViews reproduction:
//!
//! * **Logical equivalence with the seed row layout.** A batch is exactly a
//!   run of rows, and its cells are [`Cell`]s, the one definition of a
//!   [`Value`]'s ordering, hashing, and byte accounting, so checksums, hash
//!   partitioning, sort orders, and `NodeRuntimeStats.out_bytes` are
//!   unchanged by the columnar move.
//! * **Immutability.** Batches are never mutated after construction, which
//!   is why the per-batch byte size and row-hash sum need no invalidation
//!   and why `gather`/clone/`UnionAll` are `Arc` pointer copies. Forcing a
//!   deferred column fills a `OnceLock`: every reader sees one gather, and a
//!   column held dense stays so.
//! * **Stored views are dense.** A recipe keeps its sources alive, so
//!   [`Table::densified`] drops them before a table outlives its job.

use std::borrow::Cow;
use std::cell::Cell as Counter;
use std::cmp::Ordering;
use std::ops::{Deref, DerefMut, Range};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use scope_common::hash::{sip24_short, sip64, SipHasher24, WordMap};
use scope_common::{Result, ScopeError};
use scope_plan::{Cell, DataType, Partitioning, PhysicalProps, Schema, SortDir, SortOrder, Value};

/// One row of values (the bridge representation).
pub type Row = Vec<Value>;

/// Null mask: `mask[i]` is true when row `i` of the column is NULL.
pub type NullMask = Vec<bool>;

// ---------------------------------------------------------------------------
// ColumnVector
// ---------------------------------------------------------------------------

/// Strings in one allocation: every value's UTF-8 bytes back to back,
/// value `i` the bytes from `offsets[i]` to `offsets[i + 1]` (`offsets`
/// starts at 0 once there is a value). A string column's dictionary
/// ([`Strs`]), built only by an [`Interner`]; no value owns a heap
/// allocation.
#[derive(Clone, Debug, Default)]
pub(crate) struct StrVec {
    bytes: String,
    offsets: Vec<u32>,
}

impl StrVec {
    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Value `i` (panics when out of range, like `v[i]`).
    pub(crate) fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Byte length of value `i`.
    fn len_of(&self, i: usize) -> u32 {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// All values in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends one value.
    fn push(&mut self, s: &str) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.bytes.push_str(s);
        self.offsets
            .push(u32::try_from(self.bytes.len()).expect("string column exceeds 4 GiB"));
    }
}

/// The values of a string column: a dictionary of distinct values, shared
/// by every column gathered from this one, and each row's code in it (0
/// where masked NULL). The dictionary is empty only when there are no rows.
/// Gathering strings copies codes; a computation on strings runs once per
/// dictionary entry and reaches the rows through the codes.
#[derive(Clone, Debug)]
pub struct Strs {
    pub(crate) dict: Arc<StrVec>,
    pub(crate) codes: Vec<u32>,
}

/// A dictionary under construction: each value not met before gets the
/// next code. The one way to build a [`Strs`].
#[derive(Default)]
pub struct Interner<'a> {
    dict: StrVec,
    index: WordMap<&'a str, u32>,
}

impl<'a> Interner<'a> {
    /// The code of `value`.
    pub fn code(&mut self, value: &'a str) -> u32 {
        let dict = &mut self.dict;
        *self.index.entry(value).or_insert_with(|| {
            dict.push(value);
            dict.len() as u32 - 1
        })
    }

    /// A column of `codes` in the dictionary built.
    pub fn strs(self, codes: Vec<u32>) -> Strs {
        let dict = Arc::new(self.dict);
        Strs { dict, codes }
    }
}

/// A dictionary's codes in another space, by code (`None`: the same).
pub(crate) type Recode = Option<Box<[u32]>>;

/// One code space over the dictionaries `dicts`: the first when all are
/// one, else a new dictionary holding the first's values at their codes and
/// every other value after them; and each dictionary's codes there.
/// O(distinct values), once per call.
pub(crate) fn one_space<'a>(dicts: &[&'a Arc<StrVec>]) -> (Arc<StrVec>, Few<Recode>) {
    let first = dicts[0];
    let apart = |d: &&Arc<StrVec>| !Arc::ptr_eq(d, first);
    if !dicts.iter().any(apart) {
        return (first.clone(), dicts.iter().map(|_| None).collect());
    }
    let mut space = Interner::default();
    first.iter().for_each(|v| _ = space.code(v));
    let mut to = |d: &&'a Arc<StrVec>| apart(d).then(|| d.iter().map(|v| space.code(v)).collect());
    let to = dicts.iter().map(&mut to).collect();
    (Arc::new(space.dict), to)
}

/// A typed column with an optional null mask; `Mixed` is the untyped
/// fallback for columns that hold more than one runtime type.
#[derive(Clone, Debug)]
pub enum ColumnVector {
    /// 64-bit integers.
    Int {
        /// Values (undefined where masked null).
        data: Vec<i64>,
        /// Null mask.
        nulls: Option<NullMask>,
    },
    /// 64-bit floats.
    Float {
        /// Values (undefined where masked null).
        data: Vec<f64>,
        /// Null mask.
        nulls: Option<NullMask>,
    },
    /// Booleans.
    Bool {
        /// Values (undefined where masked null).
        data: Vec<bool>,
        /// Null mask.
        nulls: Option<NullMask>,
    },
    /// Dates (days since epoch).
    Date {
        /// Values (undefined where masked null).
        data: Vec<i32>,
        /// Null mask.
        nulls: Option<NullMask>,
    },
    /// UTF-8 strings.
    Str {
        /// Values (code 0 where masked null).
        data: Strs,
        /// Null mask.
        nulls: Option<NullMask>,
    },
    /// Untyped fallback: one [`Value`] per row.
    Mixed(Vec<Value>),
}

/// Typed accessors: `$name` is the values of a `$variant` column.
macro_rules! lanes {
    ($($name:ident: $variant:ident => $t:ty),*) => {$(
        /// The values of a column of this variant, NULL rows included.
        pub(crate) fn $name(&self) -> Option<&$t> {
            match self {
                ColumnVector::$variant { data, .. } => Some(data),
                _ => None,
            }
        }
    )*};
}

fn mask_get(nulls: &Option<NullMask>, i: usize) -> bool {
    nulls.as_ref().map(|m| m[i]).unwrap_or(false)
}

impl ColumnVector {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int { data, .. } => data.len(),
            ColumnVector::Float { data, .. } => data.len(),
            ColumnVector::Bool { data, .. } => data.len(),
            ColumnVector::Date { data, .. } => data.len(),
            ColumnVector::Str { data, .. } => data.codes.len(),
            ColumnVector::Mixed(data) => data.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of row `i` (panics when out of range, like `row[i]`).
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            ColumnVector::Int { data, nulls } => {
                let v = data[i];
                if mask_get(nulls, i) {
                    Cell::Null
                } else {
                    Cell::Int(v)
                }
            }
            ColumnVector::Float { data, nulls } => {
                let v = data[i];
                if mask_get(nulls, i) {
                    Cell::Null
                } else {
                    Cell::Float(v)
                }
            }
            ColumnVector::Bool { data, nulls } => {
                let v = data[i];
                if mask_get(nulls, i) {
                    Cell::Null
                } else {
                    Cell::Bool(v)
                }
            }
            ColumnVector::Date { data, nulls } => {
                let v = data[i];
                if mask_get(nulls, i) {
                    Cell::Null
                } else {
                    Cell::Date(v)
                }
            }
            ColumnVector::Str { data, nulls } => {
                if mask_get(nulls, i) {
                    Cell::Null
                } else {
                    Cell::Str(data.dict.get(data.codes[i] as usize))
                }
            }
            ColumnVector::Mixed(data) => Cell::of(&data[i]),
        }
    }

    /// Owned value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVector::Mixed(data) => data[i].is_null(),
            typed => typed.nulls().is_some_and(|m| m[i]),
        }
    }

    /// The null mask of a typed column (`Mixed` carries its NULLs inline).
    fn nulls(&self) -> Option<&NullMask> {
        match self {
            ColumnVector::Mixed(_) => None,
            ColumnVector::Int { nulls, .. }
            | ColumnVector::Float { nulls, .. }
            | ColumnVector::Bool { nulls, .. }
            | ColumnVector::Date { nulls, .. }
            | ColumnVector::Str { nulls, .. } => nulls.as_ref(),
        }
    }

    /// Total byte size under the [`Value::byte_size`] accounting, cell by
    /// cell: the reference the executor's byte totals are held to.
    pub fn byte_total(&self) -> u64 {
        (0..self.len())
            .map(|i| self.cell(i).byte_size() as u64)
            .sum()
    }

    /// Feeds rows `rows` to one hasher each, `states[k]` taking row
    /// `rows.start + k`, as [`Cell::stable_hash_into`] would: unmasked
    /// `Int`, `Float` and `Date` columns in typed loops, others cell by cell.
    fn hash_rows_into(&self, rows: Range<usize>, states: &mut [SipHasher24]) {
        macro_rules! typed {
            ($data:expr, $cell:path) => {
                for (h, &v) in states.iter_mut().zip(&$data[rows]) {
                    $cell(v).stable_hash_into(h);
                }
            };
        }
        match self {
            ColumnVector::Int { data, nulls: None } => typed!(data, Cell::Int),
            ColumnVector::Float { data, nulls: None } => typed!(data, Cell::Float),
            ColumnVector::Date { data, nulls: None } => typed!(data, Cell::Date),
            _ => {
                for (h, i) in states.iter_mut().zip(rows) {
                    self.cell(i).stable_hash_into(h);
                }
            }
        }
    }

    /// Byte size of every non-NULL cell of a fixed-width column.
    fn fixed_width(&self) -> Option<u64> {
        match self {
            ColumnVector::Int { .. } | ColumnVector::Float { .. } => Some(8),
            ColumnVector::Date { .. } => Some(4),
            ColumnVector::Bool { .. } => Some(1),
            ColumnVector::Str { .. } | ColumnVector::Mixed(_) => None,
        }
    }

    /// The byte size of every cell of a fixed-width column without NULLs.
    fn plain_width(&self) -> Option<u64> {
        self.fixed_width().filter(|_| self.nulls().is_none())
    }

    lanes!(ints: Int => [i64], floats: Float => [f64], dates: Date => [i32], strs: Str => Strs);

    /// Builds a column from owned values: single-typed columns get a typed
    /// vector (with a null mask when needed); anything else stays `Mixed`.
    pub fn from_values(values: Vec<Value>) -> ColumnVector {
        let mut dtype: Option<DataType> = None;
        let mut has_null = false;
        for v in &values {
            match v.data_type() {
                None => has_null = true,
                Some(t) => match dtype {
                    None => dtype = Some(t),
                    Some(prev) if prev == t => {}
                    Some(_) => return ColumnVector::Mixed(values),
                },
            }
        }
        let Some(dtype) = dtype else {
            // All-NULL (or empty) column: Mixed represents it exactly.
            return ColumnVector::Mixed(values);
        };
        let n = values.len();
        let nulls = if has_null {
            Some(values.iter().map(Value::is_null).collect::<NullMask>())
        } else {
            None
        };
        macro_rules! build {
            ($variant:ident, $default:expr, $pat:pat => $val:expr) => {{
                let mut data = Vec::with_capacity(n);
                for v in values {
                    data.push(match v {
                        $pat => $val,
                        _ => $default,
                    });
                }
                ColumnVector::$variant { data, nulls }
            }};
        }
        match dtype {
            DataType::Int => build!(Int, 0, Value::Int(x) => x),
            DataType::Float => build!(Float, 0.0, Value::Float(x) => x),
            DataType::Bool => build!(Bool, false, Value::Bool(x) => x),
            DataType::Date => build!(Date, 0, Value::Date(x) => x),
            DataType::Str => {
                let mut dict = Interner::default();
                let codes = values
                    .iter()
                    .map(|v| v.as_str().map_or(0, |s| dict.code(s)));
                let codes = codes.collect();
                let data = dict.strs(codes);
                ColumnVector::Str { data, nulls }
            }
        }
    }

    /// Builds one column from `picks` over `sources` — with `take_opt`, the
    /// only place cells are copied between columns.
    ///
    /// Same-variant sources copy their typed buffers directly, each source's
    /// buffer and mask resolved once, with a mask only when some source has
    /// one; differing variants fall back to value materialization and
    /// re-typing.
    fn gather(sources: &[&ColumnVector], picks: &[Pick]) -> ColumnVector {
        let source = |p: &Pick| sources[p.src as usize];
        let nulls = sources.iter().any(|c| c.nulls().is_some()).then(|| {
            let masks: Vec<Option<&NullMask>> = sources.iter().map(|c| c.nulls()).collect();
            let null = |p: &Pick| masks[p.src as usize].is_some_and(|m| m[p.row as usize]);
            picks.iter().map(null).collect()
        });
        macro_rules! typed_gather {
            ($variant:ident, $t:ty) => {{
                fn slice<'c>(c: &&'c ColumnVector) -> &'c [$t] {
                    match c {
                        ColumnVector::$variant { data, .. } => data,
                        _ => unreachable!("typed_gather on differing variants"),
                    }
                }
                let data = match sources {
                    [one] => {
                        let one = slice(one);
                        picks.iter().map(|p| one[p.row as usize]).collect()
                    }
                    _ => {
                        let all: Vec<&[_]> = sources.iter().map(slice).collect();
                        let cell = |p: &Pick| all[p.src as usize][p.row as usize];
                        picks.iter().map(cell).collect()
                    }
                };
                ColumnVector::$variant { data, nulls }
            }};
        }

        use ColumnVector::*;
        let same_variant = sources
            .windows(2)
            .all(|w| std::mem::discriminant(w[0]) == std::mem::discriminant(w[1]));
        match sources.first() {
            Some(Int { .. }) if same_variant => typed_gather!(Int, i64),
            Some(Float { .. }) if same_variant => typed_gather!(Float, f64),
            Some(Bool { .. }) if same_variant => typed_gather!(Bool, bool),
            Some(Date { .. }) if same_variant => typed_gather!(Date, i32),
            Some(Str { .. }) if same_variant => {
                // Codes copied, each mapped into one space when the
                // sources' dictionaries differ.
                let strs: Few<&Strs> = sources.iter().filter_map(|c| c.strs()).collect();
                let (dict, to) = one_space(&strs.iter().map(|s| &s.dict).collect::<Few<_>>());
                let code = |p: &Pick| {
                    let c = strs[p.src as usize].codes[p.row as usize];
                    to[p.src as usize].as_ref().map_or(c, |to| to[c as usize])
                };
                let codes = picks.iter().map(code).collect();
                let data = Strs { dict, codes };
                Str { data, nulls }
            }
            _ => ColumnVector::from_values(
                picks
                    .iter()
                    .map(|p| source(p).value(p.row as usize))
                    .collect(),
            ),
        }
    }

    /// The columns `parts` one after another.
    pub(crate) fn concat(parts: &[ColumnVector]) -> ColumnVector {
        let sources: Vec<&ColumnVector> = parts.iter().collect();
        let picks: Vec<Pick> = (0..parts.len() as u32)
            .flat_map(|src| (0..parts[src as usize].len() as u32).map(move |row| Pick { src, row }))
            .collect();
        timed(COPY, picks.len(), || ColumnVector::gather(&sources, &picks))
    }

    /// Gathers rows at `idx`, producing NULL where the index is `None`
    /// (used for the unmatched side of left-outer joins).
    pub fn take_opt(&self, idx: &[Option<u32>]) -> ColumnVector {
        timed(COPY, idx.len(), || self.take_opt_uncounted(idx))
    }

    fn take_opt_uncounted(&self, idx: &[Option<u32>]) -> ColumnVector {
        let nulls = if self.nulls().is_none() && idx.iter().all(Option::is_some) {
            None
        } else {
            Some(
                idx.iter()
                    .map(|i| i.is_none_or(|i| self.is_null(i as usize)))
                    .collect(),
            )
        };
        macro_rules! typed_take {
            ($variant:ident, $data:ident) => {
                ColumnVector::$variant {
                    data: idx
                        .iter()
                        .map(|i| i.map(|i| $data[i as usize]).unwrap_or_default())
                        .collect(),
                    nulls,
                }
            };
        }
        match self {
            ColumnVector::Int { data, .. } => typed_take!(Int, data),
            ColumnVector::Float { data, .. } => typed_take!(Float, data),
            ColumnVector::Bool { data, .. } => typed_take!(Bool, data),
            ColumnVector::Date { data, .. } => typed_take!(Date, data),
            // Nothing to take: every row is NULL, at code 0 of a one-entry
            // dictionary.
            ColumnVector::Str { .. } if self.is_empty() => {
                let mut one = Interner::default();
                let codes = vec![one.code(""); idx.len()];
                let data = one.strs(codes);
                ColumnVector::Str { data, nulls }
            }
            ColumnVector::Str { data, .. } => {
                let code = |i: &Option<u32>| i.map_or(0, |i| data.codes[i as usize]);
                let (dict, codes) = (data.dict.clone(), idx.iter().map(code).collect());
                let data = Strs { dict, codes };
                ColumnVector::Str { data, nulls }
            }
            ColumnVector::Mixed(data) => ColumnVector::Mixed(
                idx.iter()
                    .map(|i| i.map_or(Value::Null, |i| data[i as usize].clone()))
                    .collect(),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Column: dense or deferred
// ---------------------------------------------------------------------------

thread_local! {
    static GATHERS: Counter<[(Duration, u64); 2]> = const { Counter::new([(Duration::ZERO, 0); 2]) };
}

/// Building recipes for deferred outputs: the wall time and the output
/// columns built.
pub(crate) const BUILD: usize = 0;

/// Copying cells between columns (small outputs copied at once, forced
/// columns, LeftOuter padding): the wall time and the cells copied.
pub(crate) const COPY: usize = 1;

/// This thread's [`BUILD`] and [`COPY`] counters so far; the executor
/// reports the difference across one plan.
pub(crate) fn gathers() -> [(Duration, u64); 2] {
    GATHERS.with(Counter::get)
}

/// Runs `work`, which builds or copies (`kind`) `n` columns or cells.
fn timed<T>(kind: usize, n: usize, work: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = work();
    let mut all = gathers();
    all[kind] = (all[kind].0 + started.elapsed(), all[kind].1 + n as u64);
    GATHERS.with(|g| g.set(all));
    out
}

/// The cells of a dense column and the partition of every row under the
/// first single-key hash exchange that routed on it, which lives and dies
/// with the cells it describes.
#[derive(Debug)]
pub struct Cells {
    vector: ColumnVector,
    routes: OnceLock<Routes>,
}

/// A memoised route map: `of_row[i]` is row `i`'s partition among `parts`,
/// or `None` when the column's type is not routed through a map.
#[derive(Debug)]
struct Routes {
    parts: usize,
    of_row: Option<Box<[u8]>>,
}

impl Deref for Cells {
    type Target = ColumnVector;

    fn deref(&self) -> &ColumnVector {
        &self.vector
    }
}

impl From<ColumnVector> for Cells {
    fn from(vector: ColumnVector) -> Cells {
        Cells {
            vector,
            routes: OnceLock::new(),
        }
    }
}

impl Cells {
    /// Every row's partition under `hash` when this column is the only key,
    /// built by the first caller and kept for its partition count; `None`
    /// for another count, more than 256 parts, or a key type other than
    /// `Int`, `Date` or `Str`.
    fn routes(&self, hash: HashParts) -> Option<&[u8]> {
        if hash.parts > 256 {
            return None;
        }
        let routes = self.routes.get_or_init(|| {
            #[cfg(test)]
            tests::ROUTE_MAPS_BUILT.with(|n| n.set(n.get() + 1));
            Routes {
                parts: hash.parts,
                of_row: hash.route_map(&self.vector),
            }
        });
        (routes.parts == hash.parts)
            .then_some(routes.of_row.as_deref())
            .flatten()
    }

    /// [`ColumnVector::byte_total`] of rows `rows`.
    fn bytes_of(&self, rows: Range<usize>) -> u64 {
        match (&self.vector, self.plain_width()) {
            (_, Some(width)) => width * rows.len() as u64,
            _ => Located {
                sources: Few::One(self),
                picks: None,
                start: rows.start,
                rows: rows.len(),
            }
            .byte_total(),
        }
    }
}

/// One row of a deferred column: row `row` of the recipe's `src`-th source.
#[derive(Clone, Copy, Debug)]
struct Pick {
    src: u32,
    row: u32,
}

/// A column of a [`RecordBatch`]: dense cells, or one member of a recipe
/// whose cells are gathered at most once, by whoever first reads them.
#[derive(Clone, Debug)]
pub enum Column {
    /// Materialized cells.
    Dense(Arc<Cells>),
    /// Cells not copied yet: member `.1` of the recipe.
    Deferred(Arc<Recipe>, u32),
}

/// The columns of one batch, shared: what a [`Recipe`] keeps of a source.
type Columns = Arc<[Column]>;

/// The deferred columns of one gather that were picked alike. The recipe
/// lists its sources once for all members: each is the columns of a batch,
/// and member `m` reads column `cols[m * fan_in + s]` of source `s`, a
/// column held dense when the recipe was built. Member `m`'s row `i` is row
/// `picks[i].row` of its source `picks[i].src`. The picks are composed and
/// the sources listed once per distinct pick pattern, so an output column
/// costs a handle and an index.
#[derive(Debug)]
pub struct Recipe {
    picks: Vec<Pick>,
    sources: Few<Columns>,
    cols: Vec<u32>,
    members: Vec<Member>,
}

/// One column of a [`Recipe`]: its byte total and its cells, each once
/// somebody asks for them.
#[derive(Debug, Default)]
struct Member {
    bytes: OnceLock<u64>,
    dense: OnceLock<Arc<Cells>>,
}

impl Recipe {
    /// The recipe of `picks` over `sources`, member `m` reading columns
    /// `cols[m * sources.len()..][..sources.len()]`.
    fn new(picks: Vec<Pick>, sources: Few<Columns>, cols: Vec<u32>) -> Arc<Recipe> {
        let members = (0..cols.len() / sources.len())
            .map(|_| Member::default())
            .collect();
        Arc::new(Recipe {
            picks,
            sources,
            cols,
            members,
        })
    }

    /// The column member `m` reads in each source.
    fn cols(&self, m: u32) -> &[u32] {
        let fan_in = self.sources.len();
        &self.cols[m as usize * fan_in..][..fan_in]
    }

    /// The dense sources of member `m`.
    fn sources(&self, m: u32) -> impl Iterator<Item = &Arc<Cells>> {
        let sources = self.sources.iter().zip(self.cols(m));
        sources.map(|(s, &c)| s[c as usize].held().expect("sources are dense"))
    }
}

impl From<ColumnVector> for Column {
    fn from(cells: ColumnVector) -> Column {
        Column::Dense(Arc::new(cells.into()))
    }
}

impl Column {
    /// True when the column holds cells and no recipe.
    pub fn is_dense(&self) -> bool {
        matches!(self, Column::Dense(_))
    }

    /// Number of rows.
    fn len(&self) -> usize {
        match self {
            Column::Dense(c) => c.len(),
            Column::Deferred(r, _) => r.picks.len(),
        }
    }

    /// The cells, gathered now if nobody has read the column before;
    /// concurrent first readers get the same cells and one gather.
    pub fn dense(&self) -> &ColumnVector {
        self.cells()
    }

    fn cells(&self) -> &Arc<Cells> {
        match self {
            Column::Dense(c) => c,
            Column::Deferred(r, m) => r.members[*m as usize].dense.get_or_init(|| {
                let sources: Few<&ColumnVector> = r.sources(*m).map(|c| &c.vector).collect();
                timed(COPY, r.picks.len(), || {
                    Arc::new(ColumnVector::gather(&sources, &r.picks).into())
                })
            }),
        }
    }

    /// The cells if the column holds them already: dense, or read before.
    fn held(&self) -> Option<&Arc<Cells>> {
        match self {
            Column::Dense(c) => Some(c),
            Column::Deferred(r, m) => r.members[*m as usize].dense.get(),
        }
    }

    /// The cells of rows `rows` where they lie, without reading the column.
    pub(crate) fn locate(&self, rows: Range<usize>) -> Located<'_> {
        match self.through() {
            Some((r, m)) => Located {
                sources: r.sources(m).map(|c| &**c).collect(),
                picks: Some(&r.picks[rows.clone()]),
                start: 0,
                rows: rows.len(),
            },
            None => Located {
                sources: Few::One(self.cells()),
                picks: None,
                start: rows.start,
                rows: rows.len(),
            },
        }
    }

    /// The recipe and member a gather over this column picks through, or
    /// `None` when the column holds its cells.
    fn through(&self) -> Option<(&Arc<Recipe>, u32)> {
        match self {
            Column::Deferred(r, m) if self.held().is_none() => Some((r, *m)),
            _ => None,
        }
    }

    /// [`ColumnVector::byte_total`] of rows `rows`, counted through the
    /// picks if the column has not been read; never forces the column. The
    /// whole column's total is counted once.
    fn byte_total(&self, rows: Range<usize>) -> u64 {
        let count = || match (self.held(), self) {
            (Some(c), _) => c.bytes_of(rows.clone()),
            (None, Column::Deferred(r, m)) => {
                // Every source fixed-width alike and without NULLs: no walk.
                let mut widths = r.sources(*m).map(|c| c.plain_width());
                let width = widths
                    .next()
                    .flatten()
                    .filter(|&w| widths.all(|v| v == Some(w)));
                width.map_or_else(
                    || self.locate(rows.clone()).byte_total(),
                    |w| w * rows.len() as u64,
                )
            }
            (None, Column::Dense(_)) => unreachable!("a dense column holds its cells"),
        };
        match self {
            Column::Deferred(r, m) if rows.len() == r.picks.len() => {
                *r.members[*m as usize].bytes.get_or_init(count)
            }
            _ => count(),
        }
    }
}

/// Some rows of a column where they lie, resolved once: its dense sources
/// and, for an unread recipe member, the picks naming each row's source and
/// row (`None`: the one source, row for row from row `start`).
pub(crate) struct Located<'a> {
    sources: Few<&'a Cells>,
    picks: Option<&'a [Pick]>,
    start: usize,
    rows: usize,
}

impl<'a> Located<'a> {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The cell of row `i`, looked up on its own: the untyped path.
    pub(crate) fn cell(&self, i: usize) -> Cell<'a> {
        match self.picks {
            Some(p) => self.sources[p[i].src as usize].cell(p[i].row as usize),
            None => self.sources[0].cell(self.start + i),
        }
    }

    /// The column as typed lanes when `lane` reads every source: each
    /// source's values and, only when some source has one, its null mask.
    pub(crate) fn lanes<D: ?Sized>(
        &self,
        lane: impl Fn(&'a ColumnVector) -> Option<&'a D>,
    ) -> Option<Lanes<'a, D>> {
        let data = self
            .sources
            .iter()
            .map(|&c| lane(c))
            .collect::<Option<_>>()?;
        Some(self.lanes_of(data))
    }

    /// The column as lanes of `data`, one per source, under its null masks.
    pub(crate) fn lanes_of<'b, D: ?Sized>(&self, data: Few<&'b D>) -> Lanes<'b, D>
    where
        'a: 'b,
    {
        let masks = || {
            self.sources
                .iter()
                .map(|c| c.nulls().map(Vec::as_slice))
                .collect()
        };
        Lanes {
            data,
            nulls: self.sources.iter().any(|c| c.nulls().is_some()).then(masks),
            picks: self.picks,
            start: self.start,
            rows: self.rows,
        }
    }

    /// [`ColumnVector::byte_total`] of the cells without building them, in
    /// one typed loop over the rows (a NULL is 1 byte, a string 8 plus its
    /// length).
    fn byte_total(&self) -> u64 {
        let width = self.sources[0].fixed_width();
        let fixed = |c: &'a ColumnVector| (c.fixed_width() == width).then_some(c);
        let fixed = width.zip(self.lanes(fixed));
        #[cfg(test)]
        if self.picks.is_some() {
            tests::PICK_WALKS.with(|n| n.set(n.get() + 1));
        }
        let mut total = 0;
        let add = |_, bytes: Option<u64>| total += bytes.unwrap_or(1);
        if let Some((w, cells)) = fixed {
            cells.each(|_, _| w, add);
        } else if let Some(strs) = self.lanes(ColumnVector::strs) {
            let size = |s: &Strs, r: usize| 8 + s.dict.len_of(s.codes[r] as usize) as u64;
            strs.each(size, add);
        } else {
            return (0..self.rows())
                .map(|i| self.cell(i).byte_size() as u64)
                .sum();
        }
        total
    }
}

/// A column's typed values where they lie: per source its values and, when
/// some source has one, its null mask; the picks, or `None` for one source
/// read row for row from row `start`.
pub(crate) struct Lanes<'a, D: ?Sized> {
    /// Each source's values.
    pub(crate) data: Few<&'a D>,
    nulls: Option<Few<Option<&'a [bool]>>>,
    picks: Option<&'a [Pick]>,
    start: usize,
    /// Number of rows.
    pub(crate) rows: usize,
}

impl<'a, D: ?Sized> Lanes<'a, D> {
    /// Calls `f(i, value)` for every row `i` in order, `value` read by `get`
    /// from the row's source and row (`None` where NULL). The case — picks
    /// or not, one source or several, masks or none — is matched once, and
    /// one loop runs per case.
    #[inline]
    pub(crate) fn each<T>(
        &self,
        get: impl Fn(&'a D, usize) -> T,
        mut f: impl FnMut(usize, Option<T>),
    ) {
        let null = |m: Option<&[bool]>, r: usize| m.is_some_and(|m| m[r]);
        let picked = self.picks.unwrap_or_default().iter().enumerate();
        let rows = (0..self.rows).map(|i| (i, self.start + i));
        match (self.picks, self.nulls.as_deref(), &*self.data) {
            (None, None, &[d]) => rows.for_each(|(i, r)| f(i, Some(get(d, r)))),
            (None, Some(&[m]), &[d]) => {
                rows.for_each(|(i, r)| f(i, (!null(m, r)).then(|| get(d, r))))
            }
            (Some(_), None, &[d]) => picked.for_each(|(i, p)| f(i, Some(get(d, p.row as usize)))),
            (Some(_), None, ds) => {
                picked.for_each(|(i, p)| f(i, Some(get(ds[p.src as usize], p.row as usize))))
            }
            (Some(_), Some(ms), ds) => picked.for_each(|(i, p)| {
                let (s, r) = (p.src as usize, p.row as usize);
                f(i, (!null(ms[s], r)).then(|| get(ds[s], r)))
            }),
            (None, ..) => unreachable!("a column read row for row is its one source"),
        }
    }
}

/// One source of a gather: a batch and the rows to take from it, in output
/// order (`None` = all of it).
pub(crate) type Rows<'a> = (&'a RecordBatch, Option<&'a [u32]>);

fn total_rows(runs: &[Rows<'_>]) -> usize {
    let rows = |(b, idx): &Rows<'_>| idx.map_or(b.num_rows(), <[u32]>::len);
    runs.iter().map(rows).sum()
}

// ---------------------------------------------------------------------------
// RecordBatch
// ---------------------------------------------------------------------------

/// An immutable batch of rows stored column-wise. A batch carries its byte
/// size and its row-hash sum, each counted at first use; immutability is the
/// cache-invalidation strategy for both.
///
/// A batch may be a **window** of its columns: its rows are rows
/// `start..start + rows` of them. A node builds its output once and cuts
/// each partition from it as a window; kernels read a node's partitions
/// back as rows of that one build.
#[derive(Clone, Debug)]
pub struct RecordBatch {
    columns: Columns,
    start: usize,
    rows: usize,
    bytes: OnceLock<u64>,
    row_hash_sum: OnceLock<u64>,
}

impl RecordBatch {
    /// Builds a batch from columns; all columns must share `rows` length.
    pub fn new(columns: Vec<Column>, rows: usize) -> RecordBatch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        // Row indices within a batch are `u32` everywhere (selections,
        // picks, join pairs).
        assert!(rows <= u32::MAX as usize, "batch exceeds u32 row indices");
        RecordBatch::window_of(columns.into(), 0..rows)
    }

    fn window_of(columns: Columns, rows: Range<usize>) -> RecordBatch {
        RecordBatch {
            columns,
            start: rows.start,
            rows: rows.len(),
            bytes: OnceLock::new(),
            row_hash_sum: OnceLock::new(),
        }
    }

    /// Rows `rows` of a whole batch, sharing its columns.
    pub(crate) fn window(&self, rows: Range<usize>) -> RecordBatch {
        debug_assert!(self.is_whole() && rows.end <= self.rows);
        RecordBatch::window_of(Arc::clone(&self.columns), rows)
    }

    /// The whole batch this one is a window of.
    fn whole(&self) -> RecordBatch {
        let rows = self
            .columns
            .first()
            .map_or(self.start + self.rows, Column::len);
        RecordBatch::window_of(Arc::clone(&self.columns), 0..rows)
    }

    /// True when the batch holds every row of its columns.
    pub(crate) fn is_whole(&self) -> bool {
        self.start == 0 && self.columns.first().is_none_or(|c| c.len() == self.rows)
    }

    /// The batch's rows in its columns.
    fn span(&self) -> Range<usize> {
        self.start..self.start + self.rows
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the physical row width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Byte size (sum of [`Value::byte_size`] over all cells), counted on
    /// first use.
    pub fn bytes(&self) -> u64 {
        *self.bytes.get_or_init(|| {
            let bytes = |c: &Column| c.byte_total(self.span());
            self.columns.iter().map(bytes).sum()
        })
    }

    /// All columns as held, dense or deferred, to hand on without reading.
    /// A window's rows are rows `start..start + rows` of them.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The cells of column `i` of a whole batch, gathered on first read
    /// (panics when out of range, like `row[i]`).
    pub fn column(&self, i: usize) -> &ColumnVector {
        debug_assert!(self.is_whole(), "a window reads its cells through `cell`");
        self.columns[i].dense()
    }

    /// Rows `rows` of column `i` where they lie.
    pub(crate) fn locate(&self, i: usize, rows: Range<usize>) -> Located<'_> {
        let at = self.start + rows.start..self.start + rows.end;
        self.columns[i].locate(at)
    }

    /// Cell at (`row`, `col`); panics like `row[col]` on a bad column.
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        self.columns[col].dense().cell(self.start + row)
    }

    /// Materializes row `i` (a test and oracle helper).
    pub fn row(&self, i: usize) -> Row {
        (0..self.width())
            .map(|c| self.cell(i, c).to_value())
            .collect()
    }

    /// The rows at `idx` as a new batch.
    pub fn take(&self, idx: &[u32]) -> RecordBatch {
        RecordBatch::gather(&[(self, Some(idx))])
    }

    /// One batch from `runs` in order; see [`RecordBatch::gather_columns`].
    pub(crate) fn gather(runs: &[Rows<'_>]) -> RecordBatch {
        // Gathered straight into shared columns; picks are `u32` rows.
        RecordBatch::window_of(RecordBatch::gather_columns(runs), 0..total_rows(runs))
    }

    /// The columns of `runs` in order as recipes: no cell is copied. A source
    /// column that is itself an unread recipe is picked *through* (its picks
    /// composed with the new ones, its sources adopted), never forced, and
    /// the columns whose sources were picked alike share one [`Recipe`].
    /// This is the one way rows move: a node gathers its whole output in one
    /// call and cuts its partitions from it.
    pub(crate) fn gather_columns<C: FromIterator<Column>>(runs: &[Rows<'_>]) -> C {
        let width = runs.first().map_or(0, |(b, _)| b.width());
        debug_assert!(runs.iter().all(|(b, _)| b.width() == width));
        timed(BUILD, width, || match one_holder(runs) {
            Some(r) => (0..r.members.len() as u32)
                .map(|m| Column::Deferred(Arc::clone(&r), m))
                .collect(),
            None => Layout::of(runs, width).columns(runs),
        })
    }

    /// Wrapping sum of the per-row stable hashes (each row hashed cell by
    /// cell with [`Cell::stable_hash_into`]), computed at most once per batch:
    /// a block of rows at a time, one hasher per row fed column by column.
    fn row_hash_sum(&self) -> u64 {
        const BLOCK: usize = 256;
        *self.row_hash_sum.get_or_init(|| {
            let columns: Vec<&ColumnVector> = self.columns.iter().map(Column::dense).collect();
            let mut states = Vec::with_capacity(self.rows.min(BLOCK));
            let mut sum = 0u64;
            let end = self.start + self.rows;
            for start in self.span().step_by(BLOCK) {
                let rows = start..end.min(start + BLOCK);
                states.clear();
                states.resize(rows.len(), SipHasher24::new_with_keys(0xc0ffee, 0xdecaf));
                for col in &columns {
                    col.hash_rows_into(rows.clone(), &mut states);
                }
                sum = states.iter().fold(sum, |s, h| s.wrapping_add(h.finish()));
            }
            sum
        })
    }
}

/// How a gather's columns are picked, whatever rows its runs take: per run
/// and column the batch or recipe that holds it, the patterns, each
/// column's pattern and member, and the patterns' source maps back to back
/// (one scratch set for all of them).
struct Layout<'a> {
    class: Vec<(Part<'a>, u32)>,
    patterns: Vec<Pattern>,
    members: Vec<(usize, u32)>,
    /// Per pattern, per flat source, its index among the recipe's sources.
    remap: Vec<u32>,
    /// Per pattern, per recipe source, the flat position it is first named at.
    firsts: Vec<u32>,
}

impl<'a> Layout<'a> {
    /// The layout of `runs`, one pattern per set of columns picked alike.
    /// Each run's columns are classified once by the batch or recipe that
    /// holds them; a column is then tried only against the patterns of
    /// columns held alike in every run.
    fn of(runs: &[Rows<'a>], width: usize) -> Layout<'a> {
        // Per run and column: the batch or recipe that holds it, and the
        // column (held) or recipe member it is.
        let classify = |&(batch, _): &Rows<'a>| {
            let holder = move |(j, column): (usize, &'a Column)| match column.through() {
                None => (Part::held(batch), j as u32),
                Some((recipe, m)) => (Part(Some(recipe), &recipe.sources[..]), m),
            };
            batch.columns.iter().enumerate().map(holder)
        };
        let mut layout = Layout {
            class: runs.iter().flat_map(classify).collect(),
            patterns: Vec::new(),
            members: Vec::with_capacity(width),
            remap: Vec::new(),
            firsts: Vec::new(),
        };
        let at = |class: &[(Part<'a>, u32)], r: usize, j: usize| class[r * width + j];
        let mut cols: Vec<u32> = Vec::new();
        for j in 0..width {
            cols.clear();
            for r in 0..runs.len() {
                let (part, m) = at(&layout.class, r, j);
                match part.0 {
                    None => cols.push(m),
                    Some(recipe) => cols.extend_from_slice(recipe.cols(m)),
                }
            }
            let class = &layout.class;
            let alike =
                |j0: usize| (0..runs.len()).all(|r| at(class, r, j).0 == at(class, r, j0).0);
            // Adjacent columns mostly share a pattern: the latest first.
            let (remap, firsts) = (&layout.remap, &layout.firsts);
            let known = (layout.patterns.iter()).rposition(|p| {
                alike(p.column)
                    && p.admits(&remap[p.flat.clone()], &firsts[p.firsts.clone()], &cols)
            });
            let k = known.unwrap_or_else(|| {
                let flat = (0..runs.len()).flat_map(|r| at(&layout.class, r, j).0 .1);
                let pattern = Pattern::new(j, flat, &cols, &mut layout.remap, &mut layout.firsts);
                layout.patterns.push(pattern);
                layout.patterns.len() - 1
            });
            let firsts = &layout.firsts[layout.patterns[k].firsts.clone()];
            let m = layout.patterns[k].add_member(firsts, &cols);
            layout.members.push((k, m));
        }
        layout
    }

    /// The columns of `runs`, which name this layout's batches: one recipe
    /// per pattern, its picks composed from the runs' rows.
    fn columns<C: FromIterator<Column>>(self, runs: &[Rows<'_>]) -> C {
        let width = self.members.len();
        let recipes: Vec<Arc<Recipe>> = (self.patterns.into_iter())
            .map(|p| {
                let mut remap = &self.remap[p.flat];
                let parts = (0..runs.len()).map(|r| {
                    let (part, mine) = (self.class[r * width + p.column].0, remap);
                    remap = &remap[part.1.len()..];
                    (part, Some(mine))
                });
                let picks = compose_picks(runs, parts);
                Recipe::new(picks, p.sources, p.cols)
            })
            .collect();
        let member = |&(k, m): &(usize, u32)| Column::Deferred(Arc::clone(&recipes[k]), m);
        self.members.iter().map(member).collect()
    }
}

/// Where one run's column comes from in a gather: the run's own columns,
/// which hold it dense, or the unread recipe it is picked through and whose
/// sources it adopts. Equal when the batch or recipe is the same one, not
/// merely alike.
#[derive(Clone, Copy)]
struct Part<'a>(Option<&'a Arc<Recipe>>, &'a [Columns]);

impl<'a> Part<'a> {
    fn held(batch: &'a RecordBatch) -> Part<'a> {
        Part(None, std::slice::from_ref(&batch.columns))
    }
}

impl PartialEq for Part<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.1, other.1)
    }
}

/// The output columns of one gather that share a pick pattern: the first
/// column that has it (whose runs' batches or recipes it is picked from),
/// its source maps in the layout's scratch, and the recipe's sources and
/// every member's column in each.
struct Pattern {
    column: usize,
    flat: Range<usize>,
    firsts: Range<usize>,
    sources: Few<Columns>,
    cols: Vec<u32>,
}

impl Pattern {
    /// The pattern of column `column` reading `cols` of its flat sources: a
    /// flat source is one recipe source per distinct batch and column, so a
    /// source batch named by eight runs is one source. Its source maps are
    /// appended to `remap` and `firsts`.
    fn new<'s>(
        column: usize,
        flat: impl Iterator<Item = &'s Columns>,
        cols: &[u32],
        remap: &mut Vec<u32>,
        firsts: &mut Vec<u32>,
    ) -> Pattern {
        let (flat_at, firsts_at) = (remap.len(), firsts.len());
        let mut sources: Few<Columns> = Few::default();
        // Runs mostly name their sources in one order: the one after the
        // last match is tried first.
        let mut next = 0;
        for (k, (s, &c)) in flat.zip(cols).enumerate() {
            let mine = &firsts[firsts_at..];
            let same = |f: usize| cols[mine[f] as usize] == c && Arc::ptr_eq(&sources[f], s);
            let known = (next < mine.len() && same(next))
                .then_some(next)
                .or_else(|| (0..mine.len()).position(same));
            let f = known.unwrap_or_else(|| {
                firsts.push(k as u32);
                sources.push(Arc::clone(s));
                sources.len() - 1
            });
            remap.push(f as u32);
            next = f + 1;
        }
        Pattern {
            column,
            flat: flat_at..remap.len(),
            firsts: firsts_at..firsts.len(),
            cols: Vec::with_capacity(4 * sources.len()),
            sources,
        }
    }

    /// True when a column reading `cols` of the same flat sources can use
    /// the pattern's picks: every flat source the pattern merges with another
    /// is read at the same column. (Sources it keeps apart may coincide: a
    /// member may then list one source twice, which costs nothing but a slot.)
    fn admits(&self, remap: &[u32], firsts: &[u32], cols: &[u32]) -> bool {
        let first = |r: u32| cols[firsts[r as usize] as usize];
        cols.iter().zip(remap).all(|(&c, &r)| first(r) == c)
    }

    /// Adds the column reading `cols` of the flat sources as the next member.
    fn add_member(&mut self, firsts: &[u32], cols: &[u32]) -> u32 {
        let member = self.cols.len() / firsts.len();
        self.cols.extend(firsts.iter().map(|&f| cols[f as usize]));
        member as u32
    }
}

/// The picks of one output column: per run, the selected rows looked up
/// through the recipe the run is picked through, renumbered onto the
/// output's sources by the run's map (`None`: a held run is the first
/// source, a recipe's sources keep their numbers).
fn compose_picks<'p>(
    runs: &[Rows<'_>],
    parts: impl Iterator<Item = (Part<'p>, Option<&'p [u32]>)>,
) -> Vec<Pick> {
    let mut out = Vec::with_capacity(total_rows(runs));
    for (&(batch, idx), (part, remap)) in runs.iter().zip(parts) {
        // A window's rows are rows `start..` of its columns.
        let start = batch.start as u32;
        macro_rules! each_row {
            ($pick:expr) => {
                match idx {
                    Some(idx) => out.extend(idx.iter().map(|&i| $pick(start + i))),
                    None => out.extend((start..start + batch.rows as u32).map($pick)),
                }
            };
        }
        let same = |r: &[u32]| (0..part.1.len()).all(|s| r[s] as usize == s);
        match (part.0, remap) {
            (None, remap) => {
                let src = remap.map_or(0, |r| r[0]);
                each_row!(|row| Pick { src, row })
            }
            (Some(recipe), Some(remap)) if !same(remap) => each_row!(|i: u32| {
                let through = recipe.picks[i as usize];
                Pick {
                    src: remap[through.src as usize],
                    row: through.row,
                }
            }),
            // Picked from the recipe's sources in their order: its picks as
            // they are.
            (Some(recipe), _) => each_row!(|i: u32| recipe.picks[i as usize]),
        }
    }
    out
}

/// The recipe of a gather whose runs are windows of one build and whose
/// columns are all held alike: dense in that build, or unread members of
/// one recipe that names no source twice. It is what [`Layout::of`] finds
/// for such runs — one pattern over the holder's sources in their order —
/// built without classifying each run's columns.
fn one_holder(runs: &[Rows<'_>]) -> Option<Arc<Recipe>> {
    let (first, _) = runs.first()?;
    let recipe = first.columns.first()?.through().map(|(r, _)| r);
    let sources = recipe.map_or(std::slice::from_ref(&first.columns), |r| &r.sources[..]);
    let twice = |(k, s): (usize, &Columns)| sources[..k].iter().any(|t| Arc::ptr_eq(s, t));
    let one_build = |(b, _): &Rows<'_>| Arc::ptr_eq(&b.columns, &first.columns);
    if sources.iter().enumerate().any(twice) || !runs.iter().all(one_build) {
        return None;
    }
    let mut cols = Vec::with_capacity(first.width() * sources.len());
    for (j, column) in first.columns.iter().enumerate() {
        match (column.through(), recipe) {
            (None, None) => cols.push(j as u32),
            (Some((r, m)), Some(recipe)) if Arc::ptr_eq(r, recipe) => cols.extend(r.cols(m)),
            _ => return None,
        }
    }
    let part = Part(recipe, sources);
    let picks = compose_picks(runs, runs.iter().map(|_| (part, None)));
    Some(Recipe::new(picks, sources.iter().cloned().collect(), cols))
}

/// One item held in place, or any number in a vector: most lists the
/// engine keeps per column or per partition hold one, which then costs no
/// allocation.
#[derive(Clone, Debug)]
pub(crate) enum Few<T> {
    One(T),
    Many(Vec<T>),
}

/// The batches of one partition: most hold one (a window of their node's
/// build) or none.
pub(crate) type Partition = Few<RecordBatch>;

impl<T> Few<T> {
    /// Appends `item`: a second one moves both into a vector.
    pub(crate) fn push(&mut self, item: T) {
        *self = match std::mem::take(self) {
            Few::Many(mut items) if !items.is_empty() => {
                items.push(item);
                Few::Many(items)
            }
            Few::Many(_) => Few::One(item),
            Few::One(first) => Few::Many(vec![first, item]),
        };
    }
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few::Many(Vec::new())
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::One(b) => std::slice::from_ref(b),
            Few::Many(v) => v,
        }
    }
}

impl<T> DerefMut for Few<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::One(b) => std::slice::from_mut(b),
            Few::Many(v) => v,
        }
    }
}

impl<'a, T> IntoIterator for &'a Few<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Few<T> {
        let mut items = items.into_iter();
        match (items.next(), items.next()) {
            (Some(one), None) => Few::One(one),
            (first, second) => Few::Many(first.into_iter().chain(second).chain(items).collect()),
        }
    }
}

impl<T> From<Option<T>> for Few<T> {
    fn from(item: Option<T>) -> Few<T> {
        item.map_or_else(Few::default, Few::One)
    }
}

/// A partitioned table: the unit flowing between operators and stored in
/// the storage manager. Each partition is an ordered list of batches.
#[derive(Clone, Debug)]
pub struct Table {
    /// Column schema.
    pub schema: Schema,
    /// Batches per partition. Private to the engine: external callers go
    /// through the batch/row APIs so the physical layout can evolve.
    pub(crate) partitions: Vec<Partition>,
    /// Physical properties the data actually satisfies.
    pub props: PhysicalProps,
}

impl Table {
    /// An empty single-partition table.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            partitions: vec![Partition::default()],
            props: PhysicalProps::single(),
        }
    }

    /// A single-partition table from rows.
    pub fn single(schema: Schema, rows: Vec<Row>) -> Self {
        Table::from_rows(schema, vec![rows], PhysicalProps::single())
    }

    /// A table from per-partition row lists: one batch per partition that
    /// has rows, its uniform-width rows transposed into columns built by
    /// [`ColumnVector::from_values`].
    pub fn from_rows(schema: Schema, partitions: Vec<Vec<Row>>, props: PhysicalProps) -> Self {
        let mut batches = Vec::with_capacity(partitions.len());
        for rows in partitions {
            let (n, width) = (rows.len(), rows.first().map_or(0, Vec::len));
            let mut cols: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
            for row in rows {
                assert_eq!(row.len(), width, "ragged rows in one partition");
                for (col, v) in cols.iter_mut().zip(row) {
                    col.push(v);
                }
            }
            let columns = cols
                .into_iter()
                .map(|c| ColumnVector::from_values(c).into());
            batches.push(match n {
                0 => Partition::default(),
                n => Partition::One(RecordBatch::new(columns.collect(), n)),
            });
        }
        Table::from_batches(schema, batches, props)
    }

    /// A table from per-partition column lists: one batch per partition that
    /// has rows. Fails when a partition's columns differ in length.
    pub fn from_columns(
        schema: Schema,
        partitions: Vec<Vec<ColumnVector>>,
        props: PhysicalProps,
    ) -> Result<Self> {
        let mut batches = Vec::with_capacity(partitions.len());
        for columns in partitions {
            let rows = columns.first().map_or(0, ColumnVector::len);
            if columns.iter().any(|c| c.len() != rows) {
                let msg = "from_columns: a partition's columns differ in length";
                return Err(ScopeError::Execution(msg.into()));
            }
            let columns = columns.into_iter().map(Column::from);
            batches.push(match rows {
                0 => Partition::default(),
                rows => Partition::One(RecordBatch::new(columns.collect(), rows)),
            });
        }
        Ok(Table::from_batches(schema, batches, props))
    }

    /// A table from per-partition batch lists (engine-internal).
    pub(crate) fn from_batches(
        schema: Schema,
        partitions: Vec<Partition>,
        props: PhysicalProps,
    ) -> Self {
        debug_assert!(
            partitions
                .iter()
                .flatten()
                .all(|b| b.width() == schema.len()),
            "a batch's width differs from the schema's ({})",
            schema.len()
        );
        Table {
            schema,
            partitions,
            props,
        }
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().flatten().map(|b| b.num_rows()).sum()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Approximate total byte size (counted per batch at first use).
    pub fn num_bytes(&self) -> u64 {
        self.spans().map(|b| b.bytes()).sum()
    }

    /// The table's batches in order, adjacent windows of one build merged
    /// into one window: what a repartition or byte count reads. A batch
    /// merged with none is lent as it is, so its memoised counts stay on it.
    fn spans(&self) -> impl Iterator<Item = Cow<'_, RecordBatch>> {
        let mut batches = self.partitions.iter().flatten().peekable();
        std::iter::from_fn(move || {
            let first = batches.next()?;
            let mut end = first.span().end;
            let same = |b: &RecordBatch| Arc::ptr_eq(&first.columns, &b.columns);
            while let Some(next) = batches.next_if(|b| same(b) && b.start == end) {
                end = next.span().end;
            }
            Some(match end == first.span().end {
                true => Cow::Borrowed(first),
                false => Cow::Owned(RecordBatch::window_of(
                    Arc::clone(&first.columns),
                    first.start..end,
                )),
            })
        })
    }

    /// True when `self` holds `other`'s batches: a clone or unfiltered scan.
    pub(crate) fn holds_batches_of(&self, other: &Table) -> bool {
        let same = |(a, b): (&RecordBatch, &RecordBatch)| {
            Arc::ptr_eq(&a.columns, &b.columns) && a.span() == b.span()
        };
        let (mine, theirs) = (self.partitions.iter(), other.partitions.iter());
        mine.clone()
            .map(|p| p.len())
            .eq(theirs.clone().map(|p| p.len()))
            && mine.flatten().zip(theirs.flatten()).all(same)
    }

    /// Row count of partition `p`.
    pub fn partition_num_rows(&self, p: usize) -> usize {
        self.partitions[p].iter().map(|b| b.num_rows()).sum()
    }

    /// Largest per-partition row count (skew input for the simulator).
    pub fn max_partition_rows(&self) -> usize {
        (0..self.num_partitions())
            .map(|p| self.partition_num_rows(p))
            .max()
            .unwrap_or(0)
    }

    /// Batches of partition `p`.
    pub fn partition_batches(&self, p: usize) -> &[RecordBatch] {
        &self.partitions[p]
    }

    /// Every partition as rows of a whole batch, so that a kernel reads a
    /// node's output where it was built: consecutive partitions cut from one
    /// build share it as their base, and a partition of batches from several
    /// builds is gathered into a base of its own.
    pub(crate) fn views(&self) -> Views {
        let mut bases: Few<RecordBatch> = Few::default();
        let mut parts = Vec::with_capacity(self.partitions.len());
        let mut end = 0;
        for batches in &self.partitions {
            let (Some(first), Some(last)) = (batches.first(), batches.last()) else {
                parts.push(None);
                continue;
            };
            let one_build = batches.windows(2).all(|w| {
                Arc::ptr_eq(&w[0].columns, &w[1].columns) && w[0].span().end == w[1].start
            });
            let rows = first.start..last.span().end;
            if rows.is_empty() {
                parts.push(None);
            } else if !one_build {
                let runs: Vec<_> = batches.iter().map(|b| (b, None)).collect();
                bases.push(RecordBatch::gather(&runs));
                parts.push(Some((bases.len() - 1, 0..bases[bases.len() - 1].rows)));
            } else {
                let shared = bases
                    .last()
                    .is_some_and(|b| Arc::ptr_eq(&b.columns, &first.columns) && end == rows.start);
                if !shared {
                    bases.push(first.whole());
                }
                end = rows.end;
                parts.push(Some((bases.len() - 1, rows)));
            }
        }
        Views { bases, parts }
    }

    /// The cells of partition `p`, row by row and in column order within a
    /// row: the order a view file stores them in.
    pub fn partition_cells(&self, p: usize) -> impl Iterator<Item = Cell<'_>> {
        self.partitions[p].iter().flat_map(|b| {
            (0..b.num_rows()).flat_map(move |i| (0..b.width()).map(move |c| b.cell(i, c)))
        })
    }

    /// Materializes the rows of partition `p` (a test and oracle helper).
    pub fn partition_rows(&self, p: usize) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.partition_num_rows(p));
        for batch in &self.partitions[p] {
            for i in 0..batch.num_rows() {
                out.push(batch.row(i));
            }
        }
        out
    }

    /// Every row, partition by partition (a test and oracle helper).
    pub fn all_rows(&self) -> Vec<Row> {
        (0..self.num_partitions())
            .flat_map(|p| self.partition_rows(p))
            .collect()
    }

    /// Repartitions by hash on `cols` into `parts` partitions.
    pub fn hash_repartition(&self, cols: &[usize], parts: usize) -> Result<Table> {
        if parts == 0 {
            return Err(ScopeError::Execution(
                "hash_repartition with 0 parts".into(),
            ));
        }
        for &c in cols {
            self.schema.column(c)?;
        }
        let hash = HashParts::new(parts);
        let mut scatter = Scatter::new(parts, self.num_rows());
        let spans: Vec<_> = self.spans().collect();
        for batch in &spans {
            let routed = match cols {
                [c] => scatter.route_mapped(batch, &batch.columns[*c], hash),
                _ => false,
            };
            if !routed {
                scatter.route(batch, |i| {
                    let mut h = HashParts::hasher();
                    for &c in cols {
                        batch.cell(i, c).stable_hash_into(&mut h);
                    }
                    hash.of(h.finish())
                });
            }
        }
        Ok(Table {
            schema: self.schema.clone(),
            partitions: scatter.finish(),
            props: PhysicalProps {
                partitioning: Partitioning::Hash {
                    cols: cols.to_vec(),
                    parts,
                },
                sort: SortOrder::none(),
            },
        })
    }

    /// Repartitions by range on one column into `parts` partitions, with
    /// boundaries chosen from the sorted distinct sample of values.
    pub fn range_repartition(&self, col: usize, parts: usize) -> Result<Table> {
        if parts == 0 {
            return Err(ScopeError::Execution(
                "range_repartition with 0 parts".into(),
            ));
        }
        self.schema.column(col)?;
        let mut keys: Vec<Value> = self.iter_cells(col).map(Cell::to_value).collect();
        keys.sort();
        let boundaries: Vec<Value> = (1..parts)
            .map(|i| {
                keys.get(i * keys.len() / parts)
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect();
        let mut scatter = Scatter::new(parts, self.num_rows());
        let spans: Vec<_> = self.spans().collect();
        for batch in &spans {
            scatter.route(batch, |i| {
                let cell = batch.cell(i, col);
                boundaries.partition_point(|b| Cell::of(b).cmp_cell(cell) != Ordering::Greater)
            });
        }
        Ok(Table {
            schema: self.schema.clone(),
            partitions: scatter.finish(),
            props: PhysicalProps {
                partitioning: Partitioning::Range { col, parts },
                sort: SortOrder::none(),
            },
        })
    }

    /// Round-robin repartition into `parts` partitions.
    pub fn round_robin_repartition(&self, parts: usize) -> Result<Table> {
        if parts == 0 {
            return Err(ScopeError::Execution("round_robin with 0 parts".into()));
        }
        let mut scatter = Scatter::new(parts, self.num_rows());
        let mut global = 0usize;
        let spans: Vec<_> = self.spans().collect();
        for batch in &spans {
            scatter.route(batch, |_| {
                let p = global % parts;
                global += 1;
                p
            });
        }
        Ok(Table {
            schema: self.schema.clone(),
            partitions: scatter.finish(),
            props: PhysicalProps {
                partitioning: Partitioning::RoundRobin { parts },
                sort: SortOrder::none(),
            },
        })
    }

    /// Iterates the cells of column `col` across all partitions.
    fn iter_cells(&self, col: usize) -> impl Iterator<Item = Cell<'_>> {
        self.partitions
            .iter()
            .flatten()
            .flat_map(move |b| (0..b.num_rows()).map(move |i| b.cell(i, col)))
    }

    /// Gathers all partitions into one. Zero-copy: the batch buffers are
    /// shared, only `Arc`s move.
    pub fn gather(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            partitions: vec![self.partitions.iter().flatten().cloned().collect()],
            props: PhysicalProps::single(),
        }
    }

    /// The table under `scheme`: Hash, Range and RoundRobin repartition,
    /// Single gathers, Any keeps the partitions as they are.
    pub(crate) fn exchange(&self, scheme: &Partitioning) -> Result<Table> {
        Ok(match scheme {
            Partitioning::Hash { cols, parts } => self.hash_repartition(cols, *parts)?,
            Partitioning::Range { col, parts } => self.range_repartition(*col, *parts)?,
            Partitioning::RoundRobin { parts } => self.round_robin_repartition(*parts)?,
            Partitioning::Single => self.gather(),
            Partitioning::Any => self.clone(),
        })
    }

    /// The same rows with every column dense and no recipe kept: a batch
    /// holding a deferred column is rebuilt around its gathered cells (once
    /// for all windows of one build), so the result keeps no source of any
    /// recipe alive.
    pub fn densified(&self) -> Table {
        let mut last: Option<(Columns, Columns)> = None;
        let mut dense = |batch: &RecordBatch| {
            if batch.columns.iter().all(Column::is_dense) {
                return batch.clone();
            }
            let columns = match &last {
                Some((from, to)) if Arc::ptr_eq(from, &batch.columns) => Arc::clone(to),
                _ => {
                    let cells = |c: &Column| Column::Dense(c.cells().clone());
                    let to: Columns = batch.columns.iter().map(cells).collect();
                    last = Some((Arc::clone(&batch.columns), Arc::clone(&to)));
                    to
                }
            };
            RecordBatch::window_of(columns, batch.span())
        };
        let partitions =
            (self.partitions.iter()).map(|p| p.iter().map(&mut dense).collect::<Partition>());
        Table {
            schema: self.schema.clone(),
            partitions: partitions.collect(),
            props: self.props.clone(),
        }
    }

    /// Sorts every partition by `order` (stable), all in one gather; input
    /// already in order moves whole.
    pub fn sort_partitions(&self, order: &SortOrder) -> Table {
        let views = self.views();
        let mut runs: Few<(usize, Vec<u32>)> = Few::default();
        let mut sorted = true;
        for (b, base) in views.bases.iter().enumerate() {
            let all = views.span(b);
            let mut idx: Vec<u32> = (all.start as u32..all.end as u32).collect();
            let cmp = row_order(base, keys_of(order), all.clone());
            for (_, rows) in views.of_base(b) {
                let mine = &mut idx[rows.start - all.start..rows.end - all.start];
                mine.sort_by(|&x, &y| cmp(x as usize, y as usize));
            }
            sorted &= idx.windows(2).all(|w| w[0] < w[1]);
            runs.push((b, idx));
        }
        let partitions = if sorted {
            self.partitions.clone()
        } else {
            let rows = |p: &Option<(usize, Range<usize>)>| p.as_ref().map_or(0, |(_, r)| r.len());
            views.gather(&runs, views.parts.iter().map(rows), None)
        };
        Table {
            schema: self.schema.clone(),
            partitions,
            props: PhysicalProps {
                partitioning: self.props.partitioning.clone(),
                sort: order.clone(),
            },
        }
    }
}

/// A table's partitions as rows of whole batches ([`Table::views`]).
pub(crate) struct Views {
    /// The whole batches the partitions are read from.
    pub(crate) bases: Few<RecordBatch>,
    /// Per partition, its base and its rows there; `None` when it has none.
    /// The partitions of one base are consecutive, their rows adjacent.
    pub(crate) parts: Vec<Option<(usize, Range<usize>)>>,
}

impl Views {
    /// True when base `b`'s rows are exactly those of its partitions.
    pub(crate) fn tiled(&self, b: usize) -> bool {
        self.span(b) == (0..self.bases[b].rows)
    }

    /// The rows of base `b` from its first partition's to its last's.
    pub(crate) fn span(&self, b: usize) -> Range<usize> {
        let mut rows = self.parts.iter().flatten().filter(|(k, _)| *k == b);
        let first = rows.next().map_or(0..0, |(_, r)| r.clone());
        first.start..rows.next_back().map_or(first.end, |(_, r)| r.end)
    }

    /// Each partition read from base `b` and its rows there, in order.
    pub(crate) fn of_base(
        &self,
        b: usize,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + Clone + '_ {
        let mine = move |(p, v): (usize, &Option<(usize, Range<usize>)>)| match v {
            Some((k, rows)) if *k == b => Some((p, rows.clone())),
            _ => None,
        };
        self.parts.iter().enumerate().filter_map(mine)
    }

    /// The node output that holds rows `runs[k].1` of base `runs[k].0` for
    /// each `k` in order, then the `appended` column: gathered in one pass,
    /// partition `p` cut from it as its next `counts[p]` rows.
    pub(crate) fn gather(
        &self,
        runs: &[(usize, Vec<u32>)],
        counts: impl IntoIterator<Item = usize>,
        appended: Option<Column>,
    ) -> Vec<Partition> {
        let rows: Vec<Rows<'_>> = runs
            .iter()
            .map(|(b, idx)| (&self.bases[*b], Some(idx.as_slice())))
            .collect();
        let mut columns: Vec<Column> = RecordBatch::gather_columns(&rows);
        columns.extend(appended);
        cut(&RecordBatch::new(columns, total_rows(&rows)), counts)
    }
}

/// Partitions cut from one whole batch: partition `p` holds its next
/// `counts[p]` rows, or no batch when that is 0.
pub(crate) fn cut(base: &RecordBatch, counts: impl IntoIterator<Item = usize>) -> Vec<Partition> {
    let mut start = 0;
    let window = |n: usize| {
        let rows = start..start + n;
        start += n;
        match n {
            0 => Partition::default(),
            _ if rows.len() == base.rows => Partition::One(base.clone()),
            _ => Partition::One(base.window(rows)),
        }
    };
    counts.into_iter().map(window).collect()
}

/// Rows routed to the destination partitions of a repartition: the source
/// batches in scan order and each of their rows' destination.
struct Scatter<'a> {
    parts: usize,
    batches: Vec<&'a RecordBatch>,
    dest: Vec<u32>,
}

impl<'a> Scatter<'a> {
    /// A scatter into `parts` destinations of `rows` rows in all.
    fn new(parts: usize, rows: usize) -> Self {
        Scatter {
            parts,
            batches: Vec::new(),
            dest: Vec::with_capacity(rows),
        }
    }

    /// Routes every row of `batch` to partition `route(row_index)`.
    fn route(&mut self, batch: &'a RecordBatch, mut route: impl FnMut(usize) -> usize) {
        self.batches.push(batch);
        self.dest
            .extend((0..batch.num_rows()).map(|i| route(i) as u32));
    }

    /// Routes every row of `batch` through the route maps of its single key
    /// column `key`'s dense sources, read through the column's picks: the key
    /// is neither forced nor hashed again. False, with nothing routed, when a
    /// source has no map for `hash`.
    fn route_mapped(&mut self, batch: &'a RecordBatch, key: &Column, hash: HashParts) -> bool {
        let through = key.through();
        let sources: Few<&Arc<Cells>> = match through {
            Some((recipe, m)) => recipe.sources(m).collect(),
            None => key.held().into_iter().collect(),
        };
        let Some(data) = sources.iter().map(|s| s.routes(hash)).collect() else {
            return false;
        };
        // A map holds the partition of a NULL row too: no mask to read.
        let span = batch.span();
        let maps = Lanes {
            data,
            nulls: None,
            picks: through.map(|(recipe, _)| &recipe.picks[span.clone()]),
            start: span.start,
            rows: span.len(),
        };
        self.batches.push(batch);
        maps.each(
            |map: &[u8], r| map[r],
            |_, p| self.dest.push(p.unwrap_or_default() as u32),
        );
        true
    }

    /// Builds every destination with a single gather over all of them, each
    /// destination's rows in a row-at-a-time scatter's order, and cuts each
    /// destination from it. A destination that received exactly one whole
    /// batch shares it; one that received nothing has no batch.
    fn finish(self) -> Vec<Partition> {
        let (parts, batches) = (self.parts, &self.batches);
        // `count[b * parts + d]`: the rows of batch `b` bound for `d`.
        let mut count = vec![0usize; batches.len() * parts];
        let mut dests = self.dest.iter();
        for (b, batch) in batches.iter().enumerate() {
            for &d in dests.by_ref().take(batch.num_rows()) {
                count[b * parts + d as usize] += 1;
            }
        }
        let whole = |d: usize| {
            let mut from = (0..batches.len()).filter(|&b| count[b * parts + d] > 0);
            let b = from.next()?;
            let all = count[b * parts + d] == batches[b].num_rows();
            (all && from.next().is_none()).then_some(b)
        };
        let shared: Vec<Option<usize>> = (0..parts).map(whole).collect();
        // Each gathered (batch, destination) pair's rows, destination-major.
        let (mut at, mut spans) = (vec![0usize; count.len()], Vec::with_capacity(parts));
        let mut total = 0;
        for d in (0..parts).filter(|&d| shared[d].is_none()) {
            for b in (0..batches.len()).filter(|&b| count[b * parts + d] > 0) {
                at[b * parts + d] = total;
                total += count[b * parts + d];
                spans.push((b, total - count[b * parts + d]..total));
            }
        }
        let mut idx = vec![0u32; total];
        let mut dests = self.dest.iter();
        for (b, batch) in batches.iter().enumerate() {
            for (i, &d) in dests.by_ref().take(batch.num_rows()).enumerate() {
                if shared[d as usize].is_none() {
                    let at = &mut at[b * parts + d as usize];
                    idx[*at] = i as u32;
                    *at += 1;
                }
            }
        }
        let runs: Vec<Rows<'_>> = spans
            .iter()
            .map(|(b, rows)| (batches[*b], Some(&idx[rows.clone()])))
            .collect();
        let gathered = (!runs.is_empty()).then(|| RecordBatch::gather(&runs));
        let rows = |d: usize| (0..batches.len()).map(|b| count[b * parts + d]).sum();
        let counts = (0..parts).map(|d| if shared[d].is_some() { 0 } else { rows(d) });
        let mut out =
            gathered.map_or_else(|| vec![Partition::default(); parts], |g| cut(&g, counts));
        for (d, b) in shared.iter().enumerate() {
            if let Some(b) = b {
                out[d] = Partition::One(batches[*b].clone());
            }
        }
        out
    }
}

/// Where a hash exchange into `parts` partitions sends a row: SipHash-2-4
/// under fixed keys over its key cells' stable byte streams
/// ([`Cell::stable_hash_into`]), modulo `parts`.
#[derive(Clone, Copy)]
struct HashParts {
    parts: usize,
    /// `parts - 1` when `parts` is a power of two, as the optimizer's degrees
    /// of parallelism are: `h % parts` without the 64-bit division.
    mask: Option<u64>,
}

impl HashParts {
    const K0: u64 = 0x9e3779b97f4a7c15;
    const K1: u64 = 0x85ebca6b;

    fn new(parts: usize) -> HashParts {
        HashParts {
            parts,
            mask: parts.is_power_of_two().then(|| parts as u64 - 1),
        }
    }

    fn hasher() -> SipHasher24 {
        SipHasher24::new_with_keys(HashParts::K0, HashParts::K1)
    }

    /// The partition of a row whose key cells hashed to `h`.
    fn of(self, h: u64) -> usize {
        self.mask.map_or_else(|| h % self.parts as u64, |m| h & m) as usize
    }

    /// The partition of one tagged cell's byte stream, hashed one-shot by
    /// [`sip24_short`] instead of the incremental hasher.
    fn tagged(self, tag: u8, le: &[u8]) -> usize {
        let mut msg = [0u8; 9];
        msg[0] = tag;
        msg[1..=le.len()].copy_from_slice(le);
        self.of(sip24_short(HashParts::K0, HashParts::K1, &msg[..=le.len()]))
    }

    /// Every row's partition when `cells` is the only key: `Int`, `Date` and
    /// `Str` columns (`None` for the others), NULLs in the tag-0 partition.
    fn route_map(self, cells: &ColumnVector) -> Option<Box<[u8]>> {
        debug_assert!(self.parts <= 256, "a route map holds one byte per row");
        let null = self.tagged(0, &[]) as u8;
        Some(match cells {
            ColumnVector::Int { data, nulls } => {
                self.int_routes(nulls, data.len(), |i| data[i], 2, 8)
            }
            ColumnVector::Date { data, nulls } => {
                self.int_routes(nulls, data.len(), |i| data[i] as u32 as i64, 5, 4)
            }
            ColumnVector::Str { data, nulls } => {
                // Each dictionary entry hashed once, each row mapped through.
                let of = |v: &str| {
                    let mut h = HashParts::hasher();
                    Cell::Str(v).stable_hash_into(&mut h);
                    self.of(h.finish()) as u8
                };
                let parts: Vec<u8> = data.dict.iter().map(of).collect();
                let part = |(i, &c): (usize, &u32)| match mask_get(nulls, i) {
                    true => null,
                    false => parts[c as usize],
                };
                data.codes.iter().enumerate().map(part).collect()
            }
            _ => return None,
        })
    }

    /// The route map of `rows` integer keys, each hashed as its `tag` and
    /// `width` low little-endian bytes. A distinct key is hashed about once:
    /// the partition is memoised in a table direct-mapped on the key's low
    /// bits, which surrogate keys fill without collisions.
    fn int_routes(
        self,
        nulls: &Option<NullMask>,
        rows: usize,
        key_at: impl Fn(usize) -> i64,
        tag: u8,
        width: usize,
    ) -> Box<[u8]> {
        let null = self.tagged(0, &[]) as u8;
        let slots = rows.next_power_of_two().min(1 << 12);
        let mut memo = vec![(0i64, u16::MAX); slots];
        (0..rows)
            .map(|i| {
                if mask_get(nulls, i) {
                    return null;
                }
                let key = key_at(i);
                let slot = &mut memo[key as usize & (slots - 1)];
                if slot.0 != key || slot.1 == u16::MAX {
                    *slot = (key, self.tagged(tag, &key.to_le_bytes()[..width]) as u16);
                }
                slot.1 as u8
            })
            .collect()
    }
}

impl PartialEq for Table {
    /// Logical equality: same schema, properties, and per-partition row
    /// sequences compared cell by cell under [`Cell::cmp_cell`] (what `Row`
    /// equality is) — batch boundaries are physical and do not participate.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.props == other.props
            && self.num_partitions() == other.num_partitions()
            && (0..self.num_partitions()).all(|p| {
                let mut cells = self.partition_cells(p).zip(other.partition_cells(p));
                self.partition_num_rows(p) == other.partition_num_rows(p)
                    && cells.all(|(a, b)| a.cmp_cell(b).is_eq())
            })
    }
}

/// Compares two of the rows `rows` of a whole batch by the columns `keys`,
/// each in its direction, cell-wise: identical to comparing the materialized
/// rows' [`Value`]s key by key. Each key column is located once and read
/// where it lies, never forced; an `Int`, `Date` or `Float` first key is
/// read once per row, as a `u64` in its order (NULL, `None`, first).
pub(crate) fn row_order<'a>(
    batch: &'a RecordBatch,
    keys: impl IntoIterator<Item = (usize, SortDir)>,
    rows: Range<usize>,
) -> impl Fn(usize, usize) -> Ordering + 'a {
    const SIGN: u64 = 1 << 63;
    let start = rows.start;
    let keys: Few<(Located<'a>, SortDir)> = (keys.into_iter())
        .map(|(col, dir)| (batch.locate(col, rows.clone()), dir))
        .collect();
    let first = keys.first().and_then(|(col, _)| {
        let mut ordered = Vec::with_capacity(col.rows());
        let push = |_, k| ordered.push(k);
        // `f64::total_cmp`: a negative float's bits inverted, a positive
        // one's sign set.
        let float =
            |d: &[f64], r: usize| d[r].to_bits() ^ (((d[r].to_bits() >> 63) * !SIGN) | SIGN);
        match (
            col.lanes(ColumnVector::ints),
            col.lanes(ColumnVector::dates),
        ) {
            (Some(ints), _) => ints.each(|d, r| d[r] as u64 ^ SIGN, push),
            (_, Some(dates)) => dates.each(|d, r| d[r] as i64 as u64 ^ SIGN, push),
            _ => col.lanes(ColumnVector::floats)?.each(float, push),
        }
        Some(ordered)
    });
    move |a, b| {
        let (a, b) = (a - start, b - start);
        for (k, (col, dir)) in keys.iter().enumerate() {
            let ord = match (&first, k) {
                (Some(first), 0) => first[a].cmp(&first[b]),
                _ => col.cell(a).cmp_cell(col.cell(b)),
            };
            let ord = match dir {
                SortDir::Asc => ord,
                SortDir::Desc => ord.reverse(),
            };
            if !ord.is_eq() {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// The keys of a sort order, for [`row_order`].
pub(crate) fn keys_of(order: &SortOrder) -> impl Iterator<Item = (usize, SortDir)> + '_ {
    order.0.iter().map(|k| (k.col, k.dir))
}

/// Full-row lexicographic comparison of two rows of a whole batch
/// (`Row::cmp` on the materialized rows; widths are uniform within a batch).
pub(crate) fn compare_batch_rows_full(batch: &RecordBatch, a: usize, b: usize) -> Ordering {
    for col in 0..batch.width() {
        let col = batch.column(col);
        let ord = col.cell(a).cmp_cell(col.cell(b));
        if !ord.is_eq() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Order- and partition-insensitive checksum of a table's contents: the sum
/// (wrapping) of per-row stable hashes. Two tables hold the same multiset of
/// rows iff their checksums and row counts agree (up to hash collisions).
/// Each batch contributes its memoised row-hash sum, so checksumming a table
/// whose batches were hashed before costs one addition per batch.
///
/// This is how integration tests assert that CloudViews rewriting "does not
/// introduce data corruption" (paper requirement 3).
pub fn multiset_checksum(table: &Table) -> u64 {
    let seed = sip64(b"multiset") ^ table.num_rows() as u64;
    table
        .partitions
        .iter()
        .flatten()
        .fold(seed, |acc, batch| acc.wrapping_add(batch.row_hash_sum()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// True once `batch`'s row-hash sum was computed.
    pub(crate) fn is_hashed(batch: &RecordBatch) -> bool {
        batch.row_hash_sum.get().is_some()
    }

    /// Partition `p` of `t` as one whole batch: shared when it is already
    /// one, gathered otherwise.
    pub(crate) fn partition_as_batch(t: &Table, p: usize) -> RecordBatch {
        match &*t.partitions[p] {
            [batch] if batch.is_whole() => batch.clone(),
            batches => RecordBatch::gather(&batches.iter().map(|b| (b, None)).collect::<Vec<_>>()),
        }
    }
    use scope_plan::DataType;

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]);
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![Value::Int(i % 7), Value::Str(format!("r{i}"))])
            .collect();
        Table::single(schema, rows)
    }

    /// The old row-at-a-time byte accounting, for parity checks.
    fn row_bytes(t: &Table) -> u64 {
        t.all_rows()
            .iter()
            .map(|r| r.iter().map(Value::byte_size).sum::<usize>() as u64)
            .sum()
    }

    #[test]
    fn counts_and_bytes() {
        let t = table(10);
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.num_partitions(), 1);
        assert!(t.num_bytes() > 0);
        assert_eq!(Table::empty(t.schema.clone()).num_rows(), 0);
    }

    #[test]
    fn cached_bytes_match_row_accounting() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
            ("d", DataType::Date),
        ]);
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 / 3.0),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{i}"))
                    },
                    Value::Bool(i % 2 == 0),
                    Value::Date(i as i32),
                ]
            })
            .collect();
        let t = Table::single(schema, rows);
        assert_eq!(t.num_bytes(), row_bytes(&t));
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int(i), Value::Str(format!("x{i}"))])
            .collect();
        let by_rows = Table::single(schema.clone(), rows);
        let by_cols = Table::from_columns(
            schema,
            vec![vec![
                ColumnVector::Int {
                    data: (0..20).collect(),
                    nulls: None,
                },
                ColumnVector::Str {
                    data: {
                        let values: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
                        let mut dict = Interner::default();
                        let codes = values.iter().map(|v| dict.code(v)).collect();
                        dict.strs(codes)
                    },
                    nulls: None,
                },
            ]],
            PhysicalProps::single(),
        )
        .unwrap();
        assert_eq!(by_rows, by_cols);
        assert_eq!(multiset_checksum(&by_rows), multiset_checksum(&by_cols));
        assert_eq!(by_rows.num_bytes(), by_cols.num_bytes());
    }

    #[test]
    fn from_columns_rejects_ragged_lengths() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let err = Table::from_columns(
            schema,
            vec![vec![
                ColumnVector::Int {
                    data: vec![1, 2],
                    nulls: None,
                },
                ColumnVector::Int {
                    data: vec![1],
                    nulls: None,
                },
            ]],
            PhysicalProps::single(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("length") || err.to_string().contains("rows"));
    }

    #[test]
    fn cell_mirrors_value_semantics() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Float((1i64 << 53) as f64),
            Value::Int(i64::MAX),
            Value::Float(9_223_372_036_854_775_808.0),
            Value::Str("abc".into()),
            Value::Date(44),
        ];
        for a in &vals {
            assert_eq!(Cell::of(a).byte_size(), a.byte_size());
            assert_eq!(Cell::of(a).to_value(), *a);
            let mut h1 = SipHasher24::new_with_keys(7, 9);
            let mut h2 = SipHasher24::new_with_keys(7, 9);
            a.stable_hash_into(&mut h1);
            Cell::of(a).stable_hash_into(&mut h2);
            assert_eq!(h1.finish(), h2.finish());
            for b in &vals {
                assert_eq!(Cell::of(a).cmp_cell(Cell::of(b)), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn mixed_column_round_trips() {
        let vals = vec![Value::Int(1), Value::Str("two".into()), Value::Null];
        let col = ColumnVector::from_values(vals.clone());
        assert!(matches!(col, ColumnVector::Mixed(_)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value(i), v);
        }
    }

    #[test]
    fn typed_column_with_nulls_round_trips() {
        let vals = vec![Value::Int(5), Value::Null, Value::Int(7)];
        let col = ColumnVector::from_values(vals.clone());
        assert!(matches!(col, ColumnVector::Int { .. }));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value(i), v);
        }
        assert_eq!(col.byte_total(), 8 + 1 + 8);
    }

    #[test]
    fn hash_repartition_preserves_multiset_and_colocates_keys() {
        let t = table(100);
        let r = t.hash_repartition(&[0], 8).unwrap();
        assert_eq!(r.num_partitions(), 8);
        assert_eq!(r.num_rows(), 100);
        assert_eq!(multiset_checksum(&t), multiset_checksum(&r));
        // Same key never in two partitions.
        for key in 0..7i64 {
            let holders: Vec<usize> = (0..r.num_partitions())
                .filter(|&p| {
                    r.partition_rows(p)
                        .iter()
                        .any(|row| row[0] == Value::Int(key))
                })
                .collect();
            assert!(holders.len() <= 1, "key {key} in partitions {holders:?}");
        }
    }

    #[test]
    fn range_repartition_orders_partitions() {
        let t = table(100);
        let r = t.range_repartition(0, 4).unwrap();
        assert_eq!(r.num_rows(), 100);
        // Every value in partition i is <= every value in partition j>i.
        let maxes: Vec<Option<Value>> = (0..4)
            .map(|p| r.partition_rows(p).iter().map(|row| row[0].clone()).max())
            .collect();
        let mins: Vec<Option<Value>> = (0..4)
            .map(|p| r.partition_rows(p).iter().map(|row| row[0].clone()).min())
            .collect();
        for i in 0..3 {
            if let (Some(mx), Some(mn)) = (&maxes[i], &mins[i + 1]) {
                assert!(
                    mx <= mn,
                    "partition {i} max {mx} > partition {} min {mn}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn round_robin_balances() {
        let t = table(100);
        let r = t.round_robin_repartition(4).unwrap();
        for p in 0..4 {
            assert_eq!(r.partition_num_rows(p), 25);
        }
        assert_eq!(multiset_checksum(&t), multiset_checksum(&r));
    }

    #[test]
    fn gather_restores_single_and_shares_batches() {
        let t = table(50).hash_repartition(&[0], 8).unwrap();
        let g = t.gather();
        assert_eq!(g.num_partitions(), 1);
        assert_eq!(g.num_rows(), 50);
        assert_eq!(multiset_checksum(&g), multiset_checksum(&t));
        // Zero-copy: gathered batches are the same windows of one build.
        let originals: Vec<&RecordBatch> = (0..t.num_partitions())
            .flat_map(|p| t.partition_batches(p))
            .collect();
        for b in g.partition_batches(0) {
            assert!(originals.iter().any(|o| shares(o, b)));
        }
    }

    #[test]
    fn zero_parts_rejected() {
        let t = table(5);
        assert!(t.hash_repartition(&[0], 0).is_err());
        assert!(t.range_repartition(0, 0).is_err());
        assert!(t.round_robin_repartition(0).is_err());
        assert!(t.hash_repartition(&[9], 2).is_err()); // bad column
    }

    #[test]
    fn sort_partitions_sorts_each() {
        let t = table(50).hash_repartition(&[0], 4).unwrap();
        let s = t.sort_partitions(&SortOrder::asc(&[0]));
        for p in 0..s.num_partitions() {
            let rows = s.partition_rows(p);
            assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
        }
        assert_eq!(s.props.sort, SortOrder::asc(&[0]));
        assert_eq!(multiset_checksum(&s), multiset_checksum(&t));
    }

    #[test]
    fn row_order_on_ordered_keys_matches_cell_order() {
        let column = |values: Vec<Value>, ty| {
            let rows = values.into_iter().map(|v| vec![v]).collect();
            batch_of((Schema::from_pairs(&[("c", ty)]), rows))
        };
        let floats = [
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            1.5,
        ];
        let mut floats: Vec<Value> = floats.into_iter().map(Value::Float).collect();
        floats.push(Value::Null);
        let ints = [i64::MIN, i64::MAX, -1, 0].map(Value::Int);
        let edges = [
            column(floats, DataType::Float),
            column([&ints[..], &[Value::Null]].concat(), DataType::Int),
        ];
        let mut rng = SmallRng::seed_from_u64(48);
        for _ in 0..20 {
            // Every other row through an unread recipe.
            let idx: Vec<u32> = (0..48).step_by(2).collect();
            let batch = batch_of(random_rows(&mut rng, 48)).take(&idx);
            for b in [&batch, &edges[0], &edges[1]] {
                let keys = (0..b.width()).flat_map(|c| [(c, SortDir::Asc), (c, SortDir::Desc)]);
                for (col, dir) in keys {
                    let rows = 1..b.num_rows();
                    let got = row_order(b, [(col, dir)], rows.clone());
                    let cells = b.columns()[col].dense();
                    for (x, y) in rows.clone().flat_map(|x| rows.clone().map(move |y| (x, y))) {
                        let want = cells.cell(x).cmp_cell(cells.cell(y));
                        let want = if dir == SortDir::Asc {
                            want
                        } else {
                            want.reverse()
                        };
                        assert_eq!(got(x, y), want, "column {col}, rows {x} and {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn sort_is_stable_like_row_sort() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("seq", DataType::Int)]);
        let rows: Vec<Row> = (0..40)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
            .collect();
        let mut reference = rows.clone();
        reference.sort_by(|a, b| a[0].cmp(&b[0]));
        let t = Table::single(schema, rows).sort_partitions(&SortOrder::asc(&[0]));
        assert_eq!(t.all_rows(), reference);
    }

    #[test]
    fn checksum_order_insensitive_but_content_sensitive() {
        let t1 = table(20);
        let mut rows = t1.all_rows();
        rows.reverse();
        let rev = Table::single(t1.schema.clone(), rows);
        assert_eq!(multiset_checksum(&t1), multiset_checksum(&rev));
        let mut rows = t1.all_rows();
        rows[0][0] = Value::Int(999);
        let changed = Table::single(t1.schema.clone(), rows);
        assert_ne!(multiset_checksum(&t1), multiset_checksum(&changed));
        // Duplicate row multiplicity matters.
        let mut rows = t1.all_rows();
        rows.push(rows[0].clone());
        let dup = Table::single(t1.schema.clone(), rows);
        assert_ne!(multiset_checksum(&t1), multiset_checksum(&dup));
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_are_rejected() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let _ = Table::single(
            schema,
            vec![vec![Value::Int(1)], vec![Value::Int(2), Value::Int(3)]],
        );
    }

    #[test]
    fn take_opt_pads_nulls() {
        let col = ColumnVector::from_values(vec![Value::Int(1), Value::Int(2)]);
        let taken = col.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(taken.value(0), Value::Int(2));
        assert_eq!(taken.value(1), Value::Null);
        assert_eq!(taken.value(2), Value::Int(1));
    }

    // -- contracts the one-gather exchange, the string dictionaries and the
    // -- memoised checksum lean on -------------------------------------------

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const STRS: [&str; 5] = [
        "",
        "žluťoučký kůň",
        "日本語",
        "plain",
        "a longer ascii string",
    ];

    /// Schema and random rows with NULLs in every typed column, empty and
    /// non-ASCII strings, and a last column that mixes runtime types.
    /// The one batch of a table built from `rows`.
    pub(crate) fn batch_of((schema, rows): (Schema, Vec<Row>)) -> RecordBatch {
        RecordBatch::clone(&Table::single(schema, rows).partitions[0][0])
    }

    pub(crate) fn random_rows(rng: &mut SmallRng, n: usize) -> (Schema, Vec<Row>) {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("d", DataType::Date),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("m", DataType::Int),
        ]);
        let rows = (0..n)
            .map(|_| {
                let mut row = vec![
                    Value::Int(rng.gen_range(-4..4)),
                    Value::Date(rng.gen_range(17_000..17_004)),
                    Value::Str(STRS[rng.gen_range(0..STRS.len())].into()),
                    Value::Float(rng.gen_range(-2.0..2.0)),
                ];
                for v in &mut row {
                    if rng.gen_range(0..6) == 0 {
                        *v = Value::Null;
                    }
                }
                row.push(match rng.gen_range(0..3) {
                    0 => Value::Int(rng.gen_range(0..3)),
                    1 => Value::Str("mixed".into()),
                    _ => Value::Bool(true),
                });
                row
            })
            .collect();
        (schema, rows)
    }

    /// A random multi-partition table whose partitions hold several batches.
    fn random_table(rng: &mut SmallRng) -> Table {
        let (schema, _) = random_rows(rng, 0);
        let partitions = (0..rng.gen_range(1..4))
            .map(|_| {
                (0..rng.gen_range(0..4))
                    .flat_map(|_| {
                        let n = rng.gen_range(1..40);
                        [batch_of(random_rows(rng, n))]
                    })
                    .collect::<Partition>()
            })
            .collect();
        Table::from_batches(schema, partitions, PhysicalProps::any())
    }

    /// True when two batches are the same rows of one build.
    fn shares(a: &RecordBatch, b: &RecordBatch) -> bool {
        Arc::ptr_eq(&a.columns, &b.columns) && a.span() == b.span()
    }

    /// The checksum as it was first defined: one hasher per materialized row.
    fn reference_checksum(t: &Table) -> u64 {
        let mut acc = sip64(b"multiset") ^ t.num_rows() as u64;
        for row in t.all_rows() {
            let mut h = SipHasher24::new_with_keys(0xc0ffee, 0xdecaf);
            for v in &row {
                v.stable_hash_into(&mut h);
            }
            acc = acc.wrapping_add(h.finish());
        }
        acc
    }

    #[test]
    fn checksum_matches_row_reference_and_memo_is_stable() {
        for case in 0..40 {
            let mut rng = SmallRng::seed_from_u64(case);
            let t = random_table(&mut rng);
            let want = reference_checksum(&t);
            assert_eq!(multiset_checksum(&t), want, "case {case}");
            // Second call reads the per-batch memo; a clone shares it.
            assert_eq!(multiset_checksum(&t), want, "case {case} (memoised)");
            assert_eq!(multiset_checksum(&t.clone().gather()), want, "case {case}");
        }
        // Batches longer than a block of hashers, dense and deferred.
        let mut rng = SmallRng::seed_from_u64(29);
        for t in [deferred_table(&mut rng), table(700)] {
            assert_eq!(multiset_checksum(&t), reference_checksum(&t));
        }
    }

    #[test]
    fn checksum_golden_values_are_pinned() {
        // Both constants were produced by the row-at-a-time implementation
        // this digest replaced; they must never change.
        assert_eq!(multiset_checksum(&table(20)), 0x5e16a07610da9549);
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
            ("d", DataType::Date),
            ("m", DataType::Int),
        ]);
        let strs = ["", "žluťoučký kůň", "日本語", "plain"];
        let rows: Vec<Row> = (0..40i64)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * i - 7)
                    },
                    Value::Float(i as f64 / 3.0),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(strs[i as usize % 4].into())
                    },
                    Value::Bool(i % 2 == 0),
                    Value::Date(17_000 + i as i32),
                    if i % 3 == 0 {
                        Value::Str("x".into())
                    } else {
                        Value::Int(i)
                    },
                ]
            })
            .collect();
        let t = Table::from_rows(
            schema,
            vec![rows[..25].to_vec(), rows[25..].to_vec(), Vec::new()],
            PhysicalProps::any(),
        );
        assert_eq!(multiset_checksum(&t), 0x139b0b0c225024f5);
    }

    /// Row-at-a-time scatter: every row, in scan order, appended to the
    /// partition its key cells hash to.
    pub(crate) fn reference_hash_scatter(t: &Table, cols: &[usize], parts: usize) -> Vec<Vec<Row>> {
        let mut out = vec![Vec::new(); parts];
        for row in t.all_rows() {
            let mut h = SipHasher24::new_with_keys(0x9e3779b97f4a7c15, 0x85ebca6b);
            for &c in cols {
                row[c].stable_hash_into(&mut h);
            }
            out[(h.finish() % parts as u64) as usize].push(row);
        }
        out
    }

    #[test]
    fn hash_repartition_matches_row_at_a_time_scatter() {
        // Int, Date, Str, mixed-type and two-column keys; a power-of-two and
        // an odd partition count.
        let key_sets: [&[usize]; 5] = [&[0], &[1], &[2], &[4], &[2, 0]];
        for case in 0..12 {
            let mut rng = SmallRng::seed_from_u64(1_000 + case);
            let t = random_table(&mut rng);
            for cols in key_sets {
                for parts in [8, 5] {
                    let r = t.hash_repartition(cols, parts).unwrap();
                    let want = reference_hash_scatter(&t, cols, parts);
                    for (p, want) in want.iter().enumerate() {
                        assert_eq!(&r.partition_rows(p), want, "case {case} {cols:?} p{p}");
                        let batches = r.partition_batches(p);
                        assert_eq!(batches.len(), usize::from(!want.is_empty()));
                    }
                    assert_eq!(r.num_bytes(), t.num_bytes());
                }
            }
        }
    }

    // -- deferred columns -------------------------------------------------

    /// One batch of `n` random rows (NULL-bearing `Int`/`Date`/`Str`/`Float`
    /// columns and a `Mixed` one) plus a `Str` column without NULLs.
    fn wide_batch(rng: &mut SmallRng, n: usize) -> (Vec<Row>, RecordBatch) {
        let (schema, mut rows) = random_rows(rng, n);
        for (i, row) in rows.iter_mut().enumerate() {
            row.push(Value::Str(format!("r{}", i % 11)));
        }
        let schema = schema.concat(&Schema::from_pairs(&[("r", DataType::Str)]));
        (rows.clone(), batch_of((schema, rows)))
    }

    fn random_picks(rng: &mut SmallRng, from: usize, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..from) as u32).collect()
    }

    /// The columns of `batch` in the order `cols` names them, duplicates
    /// included, as a Remap hands them on: no column is read.
    fn remapped(batch: &RecordBatch, cols: &[usize]) -> RecordBatch {
        let columns = cols.iter().map(|&c| batch.columns()[c].clone()).collect();
        RecordBatch::new(columns, batch.num_rows())
    }

    /// Every column of `wide_batch` once, and the `Str` ones twice.
    const REMAP: [usize; 8] = [0, 1, 2, 3, 4, 5, 2, 5];

    /// 1–8 runs over four sources — a dense batch, a second one, a deferred
    /// take over the first, and a batch sharing the first's even columns but
    /// not its odd ones — each named by any number of runs, whole or through
    /// random picks; every source remapped by [`REMAP`]. Returns the runs'
    /// sources, their picks, and the rows they name.
    fn random_runs(rng: &mut SmallRng) -> (Vec<RecordBatch>, Vec<Option<Vec<u32>>>, Vec<Row>) {
        let (rows_a, a) = wide_batch(rng, 2 * 128);
        let (rows_b, b) = wide_batch(rng, 128);
        let idx = random_picks(rng, a.num_rows(), 128 + 50);
        let rows_d: Vec<Row> = idx.iter().map(|&i| rows_a[i as usize].clone()).collect();
        let d = a.take(&idx);
        let (rows_x, x) = wide_batch(rng, 2 * 128);
        let mix = |j: usize| if j % 2 == 0 { &a } else { &x };
        let columns = (0..a.width())
            .map(|j| mix(j).columns()[j].clone())
            .collect();
        let m = RecordBatch::new(columns, a.num_rows());
        let rows_m: Vec<Row> = rows_a
            .iter()
            .zip(&rows_x)
            .map(|(ra, rx)| (0..ra.len()).map(|j| [ra, rx][j % 2][j].clone()).collect())
            .collect();
        let sources = [(rows_a, a), (rows_b, b), (rows_d, d), (rows_m, m)];
        let remap_row = |row: &Row| REMAP.iter().map(|&c| row[c].clone()).collect::<Row>();
        let (mut batches, mut picks, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rng.gen_range(1..=8) {
            let (rows, batch) = &sources[rng.gen_range(0..sources.len())];
            let n = rng.gen_range(1..100);
            let idx = (rng.gen_range(0..3) > 0).then(|| random_picks(rng, batch.num_rows(), n));
            match &idx {
                Some(idx) => want.extend(idx.iter().map(|&i| remap_row(&rows[i as usize]))),
                None => want.extend(rows.iter().map(remap_row)),
            }
            batches.push(remapped(batch, &REMAP));
            picks.push(idx);
        }
        (batches, picks, want)
    }

    fn gather_runs(batches: &[RecordBatch], picks: &[Option<Vec<u32>>]) -> RecordBatch {
        let runs: Vec<Rows<'_>> = batches
            .iter()
            .zip(picks)
            .map(|(b, i)| (b, i.as_deref()))
            .collect();
        RecordBatch::gather(&runs)
    }

    #[test]
    fn deferred_bytes_match_dense_bytes_without_forcing() {
        for case in 0..40 {
            let mut rng = SmallRng::seed_from_u64(21_000 + case);
            let (batches, picks, want) = random_runs(&mut rng);
            let once = gather_runs(&batches, &picks);
            let idx = random_picks(&mut rng, once.num_rows(), 128 + 9);
            let want_twice: Vec<Row> = idx.iter().map(|&i| want[i as usize].clone()).collect();
            // A take on top: the second recipe picks through the first.
            let twice = once.take(&idx);
            for (batch, want) in [(&once, &want), (&twice, &want_twice)] {
                let before = cells_gathered();
                let whole = |c: &Column| c.byte_total(0..batch.num_rows());
                let deferred: Vec<u64> = batch.columns().iter().map(whole).collect();
                assert_eq!(batch.bytes(), deferred.iter().sum::<u64>(), "case {case}");
                assert_eq!(cells_gathered(), before, "byte accounting forced a column");
                let dense: Vec<u64> = (0..batch.width())
                    .map(|j| batch.column(j).byte_total())
                    .collect();
                assert_eq!(deferred, dense, "case {case}");
                let got: Vec<Row> = (0..batch.num_rows()).map(|i| batch.row(i)).collect();
                assert_eq!(&got, want, "case {case}");
                let by_rows: usize = want.iter().flatten().map(Value::byte_size).sum();
                assert_eq!(batch.bytes(), by_rows as u64, "case {case}");
            }
            assert!(twice.columns().iter().all(|c| !c.is_dense()));
            // Bytes first asked after some members were read: the read ones
            // count their cells, the others their picks, and the batch sums
            // both to the same total.
            let again = gather_runs(&batches, &picks);
            for j in (0..again.width()).step_by(3) {
                again.column(j);
            }
            let by_rows: usize = want.iter().flatten().map(Value::byte_size).sum();
            assert_eq!(again.bytes(), by_rows as u64, "case {case} (partly read)");
        }
        // The columns this test is about are all there.
        let mut rng = SmallRng::seed_from_u64(21);
        let (_, a) = wide_batch(&mut rng, 2 * 128);
        let variants: Vec<_> = (0..a.width()).map(|j| a.column(j)).collect();
        assert!(matches!(
            variants[0],
            ColumnVector::Int { nulls: Some(_), .. }
        ));
        assert!(matches!(
            variants[2],
            ColumnVector::Str { nulls: Some(_), .. }
        ));
        assert!(matches!(variants[4], ColumnVector::Mixed(_)));
        assert!(matches!(variants[5], ColumnVector::Str { nulls: None, .. }));
    }

    /// A `Int` batch of `rows` rows and `width` columns.
    fn int_batch(rng: &mut SmallRng, rows: usize, width: usize) -> RecordBatch {
        let column = |_| {
            let data = (0..rows).map(|_| rng.gen_range(0..1_000)).collect();
            ColumnVector::Int { data, nulls: None }.into()
        };
        RecordBatch::new((0..width).map(column).collect(), rows)
    }

    /// Every source-column `Arc` and every recipe source slot an 8-way
    /// exchange of a 3-way star join's output holds, when the fact side has
    /// `fact` columns and each dimension `dim`: the join emits one gather per
    /// side, as `exec` does.
    fn star_exchange_sources(fact: usize, dim: usize) -> (usize, usize) {
        let mut rng = SmallRng::seed_from_u64(28);
        let dims: Vec<RecordBatch> = (0..3).map(|_| int_batch(&mut rng, 50, dim)).collect();
        let facts: Vec<RecordBatch> = (0..8).map(|_| int_batch(&mut rng, 300, fact)).collect();
        let held = |facts: &[RecordBatch]| -> usize {
            let cells = facts.iter().chain(&dims).flat_map(|b| b.columns().iter());
            cells.map(|c| Arc::strong_count(c.cells())).sum()
        };
        let partitions = facts
            .iter()
            .map(|f| {
                let rows = 2 * 128;
                let mut cols: Vec<Column> =
                    RecordBatch::gather_columns(&[(f, Some(&random_picks(&mut rng, 300, rows)))]);
                for d in &dims {
                    let idx = random_picks(&mut rng, 50, rows);
                    cols.extend(RecordBatch::gather_columns::<Vec<_>>(&[(d, Some(&idx))]));
                }
                Partition::One(RecordBatch::new(cols, rows))
            })
            .collect();
        let width = fact + 3 * dim;
        let names: Vec<(String, DataType)> = (0..width)
            .map(|j| (format!("c{j}"), DataType::Int))
            .collect();
        let names: Vec<(&str, DataType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let joined =
            Table::from_batches(Schema::from_pairs(&names), partitions, PhysicalProps::any());
        let before = held(&facts);
        let exchanged = joined.hash_repartition(&[0], 8).unwrap();
        let mut slots = 0;
        let mut seen: Vec<*const Recipe> = Vec::new();
        for column in exchanged
            .partitions
            .iter()
            .flatten()
            .flat_map(|b| b.columns().iter())
        {
            let Column::Deferred(recipe, _) = column else {
                panic!("an exchange of 256-row partitions defers")
            };
            if !seen.contains(&Arc::as_ptr(recipe)) {
                seen.push(Arc::as_ptr(recipe));
                slots += recipe.sources.len();
            }
        }
        assert_eq!(exchanged.num_rows(), joined.num_rows());
        (held(&facts) - before, slots)
    }

    #[test]
    fn an_exchange_holds_its_sources_once_per_recipe_not_per_column() {
        // Width 4 and width 24: the same source `Arc`s and the same number of
        // source slots, whatever the number of columns.
        assert_eq!(star_exchange_sources(1, 1), star_exchange_sources(3, 7));
    }

    #[test]
    fn composed_picks_match_row_at_a_time_takes() {
        for case in 0..20 {
            let mut rng = SmallRng::seed_from_u64(22_000 + case);
            let (mut batches, mut picks, mut want) = random_runs(&mut rng);
            // One whole run of the largest source keeps six takes of 40 rows
            // fewer each above `128`.
            let (rows, big) = wide_batch(&mut rng, 3 * 128);
            want.extend(
                rows.iter()
                    .map(|r| REMAP.iter().map(|&c| r[c].clone()).collect::<Row>()),
            );
            batches.push(remapped(&big, &REMAP));
            picks.push(None);
            let mut batch = gather_runs(&batches, &picks);
            for step in 0..6 {
                // Read one column now and then: a forced column is picked from
                // directly, its siblings still through their recipes.
                if step % 2 == 1 {
                    batch.column(step);
                }
                let idx = random_picks(&mut rng, batch.num_rows(), want.len() - 40);
                want = idx.iter().map(|&i| want[i as usize].clone()).collect();
                batch = batch.take(&idx);
            }
            assert!(want.len() >= 128);
            let before = cells_gathered();
            let got: Vec<Row> = (0..batch.num_rows()).map(|i| batch.row(i)).collect();
            assert_eq!(got, want, "case {case}");
            // Six takes, one copy per cell.
            assert_eq!(
                cells_gathered() - before,
                (batch.width() * want.len()) as u64
            );
        }
    }

    /// Per column its recipe (numbered by first use) and member, and per
    /// recipe its picks, sources and member columns.
    type Shape = (
        Vec<(usize, u32)>,
        Vec<(Vec<(u32, u32)>, Vec<*const [Column]>, Vec<u32>)>,
    );

    /// The shape of `runs` gathered column by column, as before runs were
    /// classified: each column's parts and source columns collected on their
    /// own, then the latest pattern with the same parts whose merged sources
    /// it reads alike, or a new pattern deduplicating its sources by search.
    fn per_column_shape(runs: &[Rows<'_>], width: usize) -> Shape {
        struct Ref<'a> {
            parts: Vec<Part<'a>>,
            remap: Vec<u32>,
            firsts: Vec<u32>,
            sources: Vec<&'a Columns>,
            cols: Vec<u32>,
        }
        let (mut patterns, mut members): (Vec<Ref<'_>>, Vec<(usize, u32)>) = (vec![], vec![]);
        for j in 0..width {
            let (mut parts, mut cols) = (Vec::new(), Vec::new());
            for &(batch, _) in runs {
                match batch.columns[j].through() {
                    None => (parts.push(Part::held(batch)), cols.push(j as u32)),
                    Some((r, m)) => (
                        parts.push(Part(Some(r), &r.sources)),
                        cols.extend(r.cols(m)),
                    ),
                };
            }
            let first = |p: &Ref<'_>, r: u32| cols[p.firsts[r as usize] as usize];
            let admits = |p: &Ref<'_>| cols.iter().zip(&p.remap).all(|(&c, &r)| first(p, r) == c);
            let known = patterns.iter().rposition(|p| p.parts == parts && admits(p));
            let k = known.unwrap_or_else(|| {
                let flat: Vec<&Columns> = parts.iter().flat_map(|p| p.1).collect();
                let (mut firsts, mut remap) = (Vec::<u32>::new(), Vec::new());
                for (k, s) in flat.iter().enumerate() {
                    let same =
                        |&f: &u32| cols[f as usize] == cols[k] && Arc::ptr_eq(flat[f as usize], s);
                    let known = firsts.iter().position(same);
                    remap.push(
                        known.unwrap_or_else(|| (firsts.push(k as u32), firsts.len() - 1).1) as u32,
                    );
                }
                let sources = firsts.iter().map(|&f| flat[f as usize]).collect();
                patterns.push(Ref {
                    parts,
                    remap,
                    firsts,
                    sources,
                    cols: Vec::new(),
                });
                patterns.len() - 1
            });
            let p = &mut patterns[k];
            members.push((k, (p.cols.len() / p.firsts.len()) as u32));
            p.cols.extend(p.firsts.iter().map(|&f| cols[f as usize]));
        }
        let recipe = |p: &Ref<'_>| {
            let mut remap = p.remap.as_slice();
            let parts = p.parts.iter().map(|&part| {
                let mine;
                (mine, remap) = remap.split_at(part.1.len());
                (part, Some(mine))
            });
            let picks = compose_picks(runs, parts);
            let sources = p.sources.iter().map(|s| Arc::as_ptr(s)).collect();
            (
                picks.iter().map(|p| (p.src, p.row)).collect(),
                sources,
                p.cols.clone(),
            )
        };
        (members, patterns.iter().map(recipe).collect())
    }

    /// The shape of gathered columns, all deferred.
    fn shape(columns: &[Column]) -> Shape {
        let mut recipes: Vec<&Arc<Recipe>> = Vec::new();
        let mut member = |c| {
            let c: &Column = c;
            let Column::Deferred(r, m) = c else {
                panic!("a dense column")
            };
            let known = recipes.iter().position(|x| Arc::ptr_eq(x, r));
            (
                known.unwrap_or_else(|| (recipes.push(r), recipes.len() - 1).1),
                *m,
            )
        };
        let members = columns.iter().map(&mut member).collect();
        let recipe = |r: &&Arc<Recipe>| {
            let sources = r.sources.iter().map(Arc::as_ptr).collect();
            (
                r.picks.iter().map(|p| (p.src, p.row)).collect(),
                sources,
                r.cols.clone(),
            )
        };
        (members, recipes.iter().map(recipe).collect())
    }

    #[test]
    fn classified_gathers_match_the_per_column_path() {
        let (mut deferred, mut one_holders) = (0, 0);
        for case in 0..200 {
            let mut rng = SmallRng::seed_from_u64(45_000 + case);
            let (mut batches, mut picks, _) = random_runs(&mut rng);
            // A join's output: alternate columns picked through two recipes.
            let rows = 128 + 20;
            let take = |rng: &mut SmallRng| {
                let (_, b) = wide_batch(rng, 2 * 128);
                b.take(&random_picks(rng, b.num_rows(), rows))
            };
            let (left, right) = (take(&mut rng), take(&mut rng));
            let side = |j: usize| [&left, &right][j % 2].columns()[j].clone();
            let joined = RecordBatch::new((0..left.width()).map(side).collect(), rows);
            for _ in 0..rng.gen_range(0..3) {
                let at = rng.gen_range(0..=batches.len());
                batches.insert(at, remapped(&joined, &REMAP));
                picks.insert(at, Some(random_picks(&mut rng, rows, 60)));
            }
            // A second gather over the same batches with other rows.
            let other: Vec<Option<Vec<u32>>> = (batches.iter().zip(&picks))
                .map(|(b, p)| {
                    p.as_ref()
                        .map(|_| random_picks(&mut rng, b.num_rows(), 150))
                })
                .collect();
            fn runs_of<'a>(
                batches: &'a [RecordBatch],
                picks: &'a [Option<Vec<u32>>],
            ) -> Vec<Rows<'a>> {
                batches
                    .iter()
                    .zip(picks)
                    .map(|(b, i)| (b, i.as_deref()))
                    .collect()
            }
            // And the runs in reverse.
            let mut reversed = runs_of(&batches, &other);
            reversed.reverse();
            // And runs that all read one build, which `one_holder` takes.
            let one_build = (0..batches.len()).map(|b| {
                vec![
                    (&batches[b], other[b].as_deref()),
                    (&batches[b], picks[b].as_deref()),
                ]
            });
            let runs = [
                runs_of(&batches, &picks),
                runs_of(&batches, &other),
                reversed,
            ];
            for runs in runs.into_iter().chain(one_build) {
                one_holders += one_holder(&runs).is_some() as usize;
                let columns: Vec<Column> = RecordBatch::gather_columns(&runs);
                if columns.iter().any(Column::is_dense) {
                    continue;
                }
                deferred += 1;
                let want = per_column_shape(&runs, REMAP.len());
                assert!(shape(&columns) == want, "case {case}");
            }
        }
        assert!(deferred > 300, "{deferred}");
        assert!(one_holders > 300, "{one_holders}");
    }

    #[test]
    fn columns_picked_alike_share_one_recipe() {
        let mut rng = SmallRng::seed_from_u64(25);
        let (_, a) = wide_batch(&mut rng, 2 * 128);
        let (_, b) = wide_batch(&mut rng, 2 * 128);
        let idx = random_picks(&mut rng, a.num_rows(), 128);
        let batch = RecordBatch::gather(&[(&a, Some(&idx)), (&b, None), (&a, None)]);
        let recipes: Vec<_> = batch
            .columns()
            .iter()
            .map(|c| match c {
                Column::Deferred(recipe, m) => (Arc::as_ptr(recipe), *m),
                Column::Dense(_) => panic!("a dense column in a deferred gather"),
            })
            .collect();
        assert!(recipes.iter().all(|&(r, _)| r == recipes[0].0));
        let members: Vec<u32> = recipes.iter().map(|&(_, m)| m).collect();
        assert_eq!(members, (0..batch.width() as u32).collect::<Vec<_>>());
        // `a` is one source of each column however many runs name it.
        let Column::Deferred(recipe, _) = &batch.columns()[0] else {
            unreachable!()
        };
        assert_eq!(recipe.sources.len(), 2);
    }

    /// The schema of [`wide_batch`].
    fn wide_schema() -> Schema {
        let mut columns = random_rows(&mut SmallRng::seed_from_u64(0), 0)
            .0
            .columns()
            .to_vec();
        columns.push(scope_plan::Column::new("s2", DataType::Str));
        Schema::new(columns).expect("distinct names")
    }

    /// A multi-partition table of deferred batches: takes over a few dense
    /// sources, some source picked by several batches.
    fn deferred_table(rng: &mut SmallRng) -> Table {
        let sources: Vec<RecordBatch> = (0..rng.gen_range(1..4))
            .map(|_| {
                let n = rng.gen_range(128..3 * 128);
                wide_batch(rng, n).1
            })
            .collect();
        let partitions = (0..rng.gen_range(1..4))
            .map(|_| {
                (0..rng.gen_range(1..4))
                    .map(|_| {
                        let source = &sources[rng.gen_range(0..sources.len())];
                        let n = rng.gen_range(128..2 * 128);
                        source.take(&random_picks(rng, source.num_rows(), n))
                    })
                    .collect::<Partition>()
            })
            .collect();
        Table::from_batches(wide_schema(), partitions, PhysicalProps::any())
    }

    #[test]
    fn route_maps_match_row_at_a_time_scatter() {
        // Int, Date and Str keys with NULLs, a Str key without; a
        // power-of-two and an odd partition count; dense and deferred keys.
        for case in 0..8 {
            // The reference reads every row: each deferred routing gets a
            // table nobody has read.
            let fresh = || deferred_table(&mut SmallRng::seed_from_u64(3_000 + case));
            let dense = fresh().densified();
            for key in [0, 1, 2, 5] {
                for parts in [8, 5] {
                    for t in [&fresh(), &dense] {
                        let r = t.hash_repartition(&[key], parts).unwrap();
                        let want = reference_hash_scatter(t, &[key], parts);
                        for (p, want) in want.iter().enumerate() {
                            assert_eq!(&r.partition_rows(p), want, "case {case} key {key} p{p}");
                        }
                        assert_eq!(r.num_bytes(), t.num_bytes());
                    }
                }
            }
            // Each dense source holds the map of the first partition count it
            // was routed at.
            for batch in dense.partitions.iter().flatten() {
                let routes = batch.columns()[0]
                    .cells()
                    .routes
                    .get()
                    .expect("a route map");
                assert_eq!((routes.parts, routes.of_row.is_some()), (8, true));
            }
        }
    }

    #[test]
    fn a_routed_exchange_forces_no_column() {
        let mut rng = SmallRng::seed_from_u64(26);
        let t = deferred_table(&mut rng);
        let before = cells_gathered();
        let r = t.hash_repartition(&[2], 8).unwrap();
        let twice = r.hash_repartition(&[0], 8).unwrap();
        assert_eq!(cells_gathered(), before);
        let held = |t: &Table| {
            t.partitions
                .iter()
                .flatten()
                .any(|b| b.columns().iter().any(Column::is_dense))
        };
        assert!(!held(&r) && !held(&twice));
        assert_eq!(twice.num_rows(), t.num_rows());
    }

    /// Cells this thread has copied between columns so far.
    pub(crate) fn cells_gathered() -> u64 {
        gathers()[COPY].1
    }

    thread_local! {
        /// Route maps this thread has built.
        pub(super) static ROUTE_MAPS_BUILT: Counter<u64> = const { Counter::new(0) };
        /// Byte totals this thread has counted by walking a recipe's picks.
        pub(crate) static PICK_WALKS: Counter<u64> = const { Counter::new(0) };
    }

    #[test]
    fn a_column_routed_from_two_threads_builds_one_map() {
        let mut rng = SmallRng::seed_from_u64(27);
        let (_, source) = wide_batch(&mut rng, 2 * 128);
        let t = Table::from_batches(
            wide_schema(),
            vec![Partition::One(source)],
            PhysicalProps::any(),
        );
        let gate = std::sync::Barrier::new(2);
        let route = || {
            gate.wait();
            let before = ROUTE_MAPS_BUILT.with(Counter::get);
            let r = t.hash_repartition(&[2], 8).unwrap();
            (r, ROUTE_MAPS_BUILT.with(Counter::get) - before)
        };
        let ((r1, b1), (r2, b2)) = std::thread::scope(|s| {
            let other = s.spawn(route);
            (route(), other.join().expect("routing thread"))
        });
        assert_eq!(b1 + b2, 1, "one of them built the map");
        assert!(r1 == r2);
    }

    #[test]
    fn a_column_forced_from_two_threads_is_gathered_once() {
        let mut rng = SmallRng::seed_from_u64(24);
        let (_, source) = wide_batch(&mut rng, 2 * 128);
        let idx = random_picks(&mut rng, source.num_rows(), 128);
        let batch = source.take(&idx);
        let gate = std::sync::Barrier::new(2);
        let read = || {
            gate.wait();
            let before = cells_gathered();
            (
                batch.columns()[2].cells().clone(),
                cells_gathered() - before,
            )
        };
        let ((c1, g1), (c2, g2)) = std::thread::scope(|s| {
            let other = s.spawn(read);
            (read(), other.join().expect("reader thread"))
        });
        assert!(Arc::ptr_eq(&c1, &c2), "both readers see the same cells");
        assert_eq!(g1 + g2, idx.len() as u64, "and one of them gathered");
    }

    #[test]
    fn densified_table_keeps_rows_and_drops_recipes() {
        let t = table(4 * 128);
        let sorted = t.sort_partitions(&SortOrder::asc(&[0]));
        let held_dense = |t: &Table| {
            t.partition_batches(0)
                .iter()
                .all(|b| b.columns().iter().all(Column::is_dense))
        };
        assert!(!held_dense(&sorted));
        let dense = sorted.densified();
        assert!(held_dense(&dense));
        assert_eq!(dense, sorted);
        assert_eq!(dense.num_bytes(), sorted.num_bytes());
        // Nothing to drop: the batches themselves are shared.
        assert!(shares(
            &t.densified().partition_batches(0)[0],
            &t.partition_batches(0)[0]
        ));
    }

    #[test]
    fn repartition_shares_a_batch_that_moves_whole() {
        // One key value: the whole batch lands in one destination.
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]);
        let rows = (0..30)
            .map(|i| vec![Value::Int(7), Value::Str(format!("r{i}"))])
            .collect();
        let t = Table::single(schema, rows);
        let source = &t.partition_batches(0)[0];
        let r = t.hash_repartition(&[0], 8).unwrap();
        let moved: Vec<_> = (0..8).flat_map(|p| r.partition_batches(p)).collect();
        assert_eq!(moved.len(), 1);
        assert!(shares(moved[0], source));
        // Range and round-robin go through the same gather.
        let rr = table(64).round_robin_repartition(3).unwrap();
        assert!((0..3).all(|p| rr.partition_batches(p).len() == 1));
        assert_eq!(rr.partition_rows(1)[1], table(64).all_rows()[4]);
    }

    /// A `Str` column's dictionary and codes.
    pub(crate) fn dict_of(col: &ColumnVector) -> (&Arc<StrVec>, &[u32]) {
        let strs = col.strs().expect("a Str column");
        (&strs.dict, &strs.codes)
    }

    /// True when no value of `dict` repeats.
    pub(crate) fn distinct(dict: &StrVec) -> bool {
        let mut seen = std::collections::HashSet::new();
        dict.iter().all(|v| seen.insert(v))
    }

    #[test]
    fn a_str_gather_shares_one_dictionary_and_merges_two() {
        let column = |values: &[&str]| {
            ColumnVector::from_values(values.iter().map(|&v| Value::Str(v.into())).collect())
        };
        let (a, b) = (column(&["x", "y", "x", "z"]), column(&["z", "w", "y"]));
        let picks = |pairs: &[(u32, u32)]| -> Vec<Pick> {
            pairs.iter().map(|&(src, row)| Pick { src, row }).collect()
        };
        // One dictionary, here read twice: the gather shares it and copies
        // one code per row.
        let one = ColumnVector::gather(&[&a, &a], &picks(&[(0, 3), (1, 0), (0, 2)]));
        assert!(Arc::ptr_eq(dict_of(&one).0, dict_of(&a).0));
        assert_eq!(dict_of(&one).1, [2, 0, 0]);
        // Two dictionaries: one holding each value once, the first's
        // values keeping their codes.
        let two = ColumnVector::gather(&[&a, &b], &picks(&[(1, 1), (0, 1), (1, 0)]));
        let concat = ColumnVector::concat(&[a.clone(), b.clone()]);
        for (col, want) in [
            (&two, &["w", "y", "z"][..]),
            (&concat, &["x", "y", "x", "z", "z", "w", "y"]),
        ] {
            let (dict, codes) = dict_of(col);
            assert!(distinct(dict), "{:?}", dict.iter().collect::<Vec<_>>());
            assert_eq!(dict.iter().take(3).collect::<Vec<_>>(), ["x", "y", "z"]);
            let got: Vec<&str> = codes.iter().map(|&c| dict.get(c as usize)).collect();
            assert_eq!(got, want);
        }
    }
}
