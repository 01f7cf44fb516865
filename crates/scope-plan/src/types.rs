//! The value model.
//!
//! Rows in the mini-SCOPE executor are vectors of [`Value`]. Values need a
//! *total* order (sort keys, merge joins) and a stable hash (group-by,
//! hash-partitioning, signatures), including for floats — we order floats by
//! their IEEE total-order bits, the standard trick for making `f64` usable as
//! a key.

use std::cmp::Ordering;
use std::fmt;

use scope_common::hash::SipHasher24;

/// The type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Calendar date, stored as days since an epoch.
    Date,
}

impl DataType {
    /// Short lowercase name, used in schema displays and signatures.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Date => "date",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single cell value.
///
/// `Null` is a member of every type (SQL-style), and sorts lowest.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since epoch.
    Date(i32),
}

impl Value {
    /// The value's runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints, floats, dates and bools coerce to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        Cell::of(self).as_f64()
    }

    /// Integer view: ints, dates, bools.
    pub fn as_i64(&self) -> Option<i64> {
        Cell::of(self).as_i64()
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view (used by filter predicates; NULL is not true).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Approximate in-memory size in bytes, used by the cost model to turn
    /// cardinalities into data sizes.
    pub fn byte_size(&self) -> usize {
        Cell::of(self).byte_size()
    }

    /// Feeds the value into a stable hasher (used for hash-partitioning and
    /// for data checksums in correctness tests).
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        Cell::of(self).stable_hash_into(h)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// The total order of [`Cell::cmp_cell`].
    fn cmp(&self, other: &Self) -> Ordering {
        Cell::of(self).cmp_cell(Cell::of(other))
    }
}

impl std::hash::Hash for Value {
    /// Consistent with `Eq`: an `Int` equals a `Float` only when the float
    /// holds exactly that integer, so both hash under one numeric tag as
    /// the bits of the `f64`.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Float(_) => state.write_u8(Cell::Int(0).tag()),
            other => state.write_u8(Cell::of(other).tag()),
        }
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(*b as u8),
            Value::Int(i) => state.write_u64((*i as f64).to_bits()),
            Value::Float(f) => state.write_u64(f.to_bits()),
            Value::Str(s) => state.write(s.as_bytes()),
            Value::Date(d) => state.write_i32(*d),
        }
    }
}

/// A borrowed view of one value, without owning strings: the columnar
/// executor reads its cells as these. A value's order, stable hash, byte
/// size and numeric coercions are defined here once; [`Value`]'s methods
/// call through [`Cell::of`], so checksums, hash partitioning, sort orders
/// and byte accounting agree between rows and columns by construction.
#[derive(Clone, Copy, Debug)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Days since epoch.
    Date(i32),
}

// Every method is `#[inline]`: the executor's sort, group and routing
// loops call them from another crate, and no release profile enables LTO.
impl<'a> Cell<'a> {
    /// Borrows a [`Value`] as a cell.
    #[inline]
    pub fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
            Value::Date(d) => Cell::Date(*d),
        }
    }

    /// Owned value.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::Date(d) => Value::Date(d),
        }
    }

    /// True when NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Approximate in-memory size in bytes.
    #[inline]
    pub fn byte_size(self) -> usize {
        match self {
            Cell::Null => 1,
            Cell::Bool(_) => 1,
            Cell::Int(_) | Cell::Float(_) => 8,
            Cell::Date(_) => 4,
            Cell::Str(s) => 8 + s.len(),
        }
    }

    /// Integer view: ints, dates, bools.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(i),
            Cell::Date(d) => Some(d as i64),
            Cell::Bool(b) => Some(b as i64),
            _ => None,
        }
    }

    /// Numeric view: ints, floats, dates and bools coerce to `f64`.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            Cell::Date(d) => Some(d as f64),
            Cell::Bool(b) => Some(b as i64 as f64),
            _ => None,
        }
    }

    /// Type discriminant used for cross-type ordering and hashing.
    #[inline]
    fn tag(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) => 2,
            Cell::Float(_) => 3,
            Cell::Str(_) => 4,
            Cell::Date(_) => 5,
        }
    }

    /// Feeds the cell into a stable hasher (hash partitioning, data
    /// checksums). Int and Float that compare equal may hash differently —
    /// we never mix numeric types within one column, so this is fine.
    #[inline]
    pub fn stable_hash_into(self, h: &mut SipHasher24) {
        h.write_u8(self.tag());
        match self {
            Cell::Null => {}
            Cell::Bool(b) => h.write_u8(b as u8),
            Cell::Int(i) => h.write_u64(i as u64),
            Cell::Float(f) => h.write_u64(f.to_bits()),
            Cell::Str(s) => h.write_str(s),
            Cell::Date(d) => h.write_u32(d as u32),
        }
    }

    /// Total order: NULL < Bool < numeric (Int/Float compared exactly
    /// against each other) < Str < Date. Floats use IEEE total ordering so
    /// NaN is ordered (greatest) instead of poisoning sorts.
    #[inline]
    pub fn cmp_cell(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => int_float_cmp(a, b),
            (Float(a), Int(b)) => int_float_cmp(b, a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(&b),
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

/// Compares an `Int` with a `Float` exactly. Rounding `i` to `f64` is
/// monotone, so the rounded comparison decides whenever it is not `Equal`;
/// when it is, `f` is integral and either fits `i64` (compare there) or is
/// 2^63, above every `i64`. Comparing through `f64` alone would make
/// `Int(2^53) == Float(2^53) == Int(2^53 + 1)` and break transitivity.
/// Cold: a column holds one type, so the sort and grouping loops that compare
/// cells almost never take this path.
#[cold]
pub fn int_float_cmp(i: i64, f: f64) -> Ordering {
    match (i as f64).total_cmp(&f) {
        Ordering::Equal if f == 9_223_372_036_854_775_808.0 => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        unequal => unequal,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Date(d) => write!(f, "date({d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::hash::SipHasher24;

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Float(1.5) < Value::Float(2.0));
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn numeric_cross_compare() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn int_float_order_is_exact_and_transitive() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let two_53 = 1i64 << 53;
        let (a, b, c) = (
            Value::Int(two_53),
            Value::Float(two_53 as f64),
            Value::Int(two_53 + 1),
        );
        assert_eq!(a, b);
        assert!(a < c);
        assert!(b < c, "Float(2^53) must sort below Int(2^53 + 1)");
        // i64::MAX rounds to 2^63 as an f64, which no i64 reaches.
        let (a, b, c) = (
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MAX),
            Value::Float(9_223_372_036_854_775_808.0),
        );
        assert!(a < b && b < c && a < c);
        assert_eq!(c.cmp(&b), Ordering::Greater);
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, [a, b, c]);
        // Integral floats still equal their ints; -0.0 still sorts below 0.
        assert_eq!(Value::Float(-7.0), Value::Int(-7));
        assert!(Value::Float(-0.0) < Value::Int(0));
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        assert!(Value::Float(f64::INFINITY) < nan);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        let mut v = [nan.clone(), Value::Float(1.0), Value::Float(-1.0)];
        v.sort(); // must not panic
        assert_eq!(v[0], Value::Float(-1.0));
    }

    #[test]
    fn equal_numerics_hash_alike() {
        use std::collections::HashSet;
        let set: HashSet<Value> = [Value::Int(1), Value::Float(1.0)].into_iter().collect();
        assert_eq!(set.len(), 1);
        let set: HashSet<Value> = (0..100)
            .flat_map(|i| [Value::Int(i), Value::Float(i as f64)])
            .collect();
        assert_eq!(set.len(), 100);
        let set: HashSet<Value> = [Value::Int(1), Value::Float(1.5), Value::Date(1)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn neg_zero_and_pos_zero() {
        // IEEE total order distinguishes -0.0 < +0.0; acceptable for keys.
        assert!(Value::Float(-0.0) < Value::Float(0.0));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Date(10).as_i64(), Some(10));
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Null.is_true());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Null.byte_size(), 1);
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abc".into()).byte_size(), 11);
    }

    #[test]
    fn stable_hash_distinguishes() {
        fn h(v: &Value) -> u64 {
            let mut s = SipHasher24::new_with_keys(1, 2);
            v.stable_hash_into(&mut s);
            s.finish()
        }
        assert_ne!(h(&Value::Int(1)), h(&Value::Int(2)));
        assert_ne!(h(&Value::Null), h(&Value::Bool(false)));
        assert_eq!(h(&Value::Str("ab".into())), h(&Value::Str("ab".into())));
    }

    #[test]
    fn display_round_trip_sanity() {
        assert_eq!(Value::from(5i64).to_string(), "5");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(3).to_string(), "date(3)");
    }

    #[test]
    fn data_type_names() {
        assert_eq!(DataType::Int.name(), "int");
        assert_eq!(Value::Float(0.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::Null.data_type(), None);
    }
}
