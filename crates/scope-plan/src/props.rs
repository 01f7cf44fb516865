//! Output physical properties: partitioning and sort order.
//!
//! Physical design is a first-class concern in CloudViews (paper Section
//! 5.3): a materialized view whose partitioning/sorting does not match its
//! consumers forces extra Exchange/Sort steps that can erase the reuse gains.
//! The analyzer mines the *output physical properties* of each overlapping
//! subgraph and uses them as the view's physical design.

use std::sync::{Arc, OnceLock};

use scope_common::hash::SipHasher24;
use scope_common::intern::SharedPool;

/// Sort direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One sort key: a column position and a direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SortKey {
    /// Column position in the operator's output schema.
    pub col: usize,
    /// Direction.
    pub dir: SortDir,
}

impl SortKey {
    /// Ascending key on `col`.
    pub fn asc(col: usize) -> Self {
        SortKey {
            col,
            dir: SortDir::Asc,
        }
    }

    /// Descending key on `col`.
    pub fn desc(col: usize) -> Self {
        SortKey {
            col,
            dir: SortDir::Desc,
        }
    }
}

/// A (possibly empty) ordered list of sort keys.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SortOrder(pub Vec<SortKey>);

impl SortOrder {
    /// The unsorted order.
    pub fn none() -> Self {
        SortOrder(Vec::new())
    }

    /// Ascending order on the listed columns.
    pub fn asc(cols: &[usize]) -> Self {
        SortOrder(cols.iter().map(|&c| SortKey::asc(c)).collect())
    }

    /// True when no order is specified.
    pub fn is_none(&self) -> bool {
        self.0.is_empty()
    }

    /// True when `self` is a prefix of (or equal to) `other` — a stream
    /// sorted by `other` satisfies a requirement of `self`.
    pub fn satisfied_by(&self, delivered: &SortOrder) -> bool {
        self.0.len() <= delivered.0.len() && self.0.iter().zip(&delivered.0).all(|(a, b)| a == b)
    }

    /// Leading columns of the order.
    pub fn columns(&self) -> Vec<usize> {
        self.0.iter().map(|k| k.col).collect()
    }

    /// Feeds into a stable hasher.
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        h.write_u64(self.0.len() as u64);
        for k in &self.0 {
            h.write_u64(k.col as u64);
            h.write_u8(matches!(k.dir, SortDir::Desc) as u8);
        }
    }
}

/// How rows are distributed across partitions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Partitioning {
    /// All rows in a single partition.
    Single,
    /// Hash-partitioned on the listed columns into `parts` partitions.
    Hash {
        /// Partitioning columns.
        cols: Vec<usize>,
        /// Number of partitions.
        parts: usize,
    },
    /// Range-partitioned on one column into `parts` partitions (boundaries
    /// chosen at execution time by sampling).
    Range {
        /// Partitioning column.
        col: usize,
        /// Number of partitions.
        parts: usize,
    },
    /// Round-robin into `parts` partitions (no column guarantee).
    RoundRobin {
        /// Number of partitions.
        parts: usize,
    },
    /// Unknown/no guarantee (e.g. raw scan output as stored).
    Any,
}

impl Partitioning {
    /// Number of partitions, when determined.
    pub fn parts(&self) -> Option<usize> {
        match self {
            Partitioning::Single => Some(1),
            Partitioning::Hash { parts, .. }
            | Partitioning::Range { parts, .. }
            | Partitioning::RoundRobin { parts } => Some(*parts),
            Partitioning::Any => None,
        }
    }

    /// True when a stream with `delivered` distribution satisfies a
    /// requirement of `self`.
    ///
    /// `Any` is satisfied by everything. `Hash` requires the same columns
    /// and part count. `Single` only by `Single`.
    pub fn satisfied_by(&self, delivered: &Partitioning) -> bool {
        match self {
            Partitioning::Any => true,
            other => other == delivered,
        }
    }

    /// Short display string.
    pub fn describe(&self) -> String {
        match self {
            Partitioning::Single => "single".into(),
            Partitioning::Hash { cols, parts } => format!("hash{cols:?}x{parts}"),
            Partitioning::Range { col, parts } => format!("range[{col}]x{parts}"),
            Partitioning::RoundRobin { parts } => format!("rr x{parts}"),
            Partitioning::Any => "any".into(),
        }
    }

    /// Feeds into a stable hasher.
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        match self {
            Partitioning::Single => h.write_u8(0),
            Partitioning::Hash { cols, parts } => {
                h.write_u8(1);
                h.write_u64(cols.len() as u64);
                for c in cols {
                    h.write_u64(*c as u64);
                }
                h.write_u64(*parts as u64);
            }
            Partitioning::Range { col, parts } => {
                h.write_u8(2);
                h.write_u64(*col as u64);
                h.write_u64(*parts as u64);
            }
            Partitioning::RoundRobin { parts } => {
                h.write_u8(3);
                h.write_u64(*parts as u64);
            }
            Partitioning::Any => h.write_u8(4),
        }
    }
}

/// Combined output physical properties of an operator or view.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PhysicalProps {
    /// Row distribution across partitions.
    pub partitioning: Partitioning,
    /// Within-partition sort order.
    pub sort: SortOrder,
}

impl PhysicalProps {
    /// No guarantees.
    pub fn any() -> Self {
        PhysicalProps {
            partitioning: Partitioning::Any,
            sort: SortOrder::none(),
        }
    }

    /// Single partition, unsorted.
    pub fn single() -> Self {
        PhysicalProps {
            partitioning: Partitioning::Single,
            sort: SortOrder::none(),
        }
    }

    /// Hash-partitioned, unsorted.
    pub fn hashed(cols: Vec<usize>, parts: usize) -> Self {
        PhysicalProps {
            partitioning: Partitioning::Hash { cols, parts },
            sort: SortOrder::none(),
        }
    }

    /// True when `delivered` satisfies the requirement `self`.
    pub fn satisfied_by(&self, delivered: &PhysicalProps) -> bool {
        self.partitioning.satisfied_by(&delivered.partitioning)
            && self.sort.satisfied_by(&delivered.sort)
    }

    /// Feeds into a stable hasher.
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        self.partitioning.stable_hash_into(h);
        self.sort.stable_hash_into(h);
    }

    /// Short display string, e.g. `hash[0]x8 sort[0asc]`.
    pub fn describe(&self) -> String {
        if self.sort.is_none() {
            self.partitioning.describe()
        } else {
            let keys: Vec<String> = self
                .sort
                .0
                .iter()
                .map(|k| {
                    format!(
                        "{}{}",
                        k.col,
                        if k.dir == SortDir::Asc { "asc" } else { "desc" }
                    )
                })
                .collect();
            format!("{} sort[{}]", self.partitioning.describe(), keys.join(","))
        }
    }
}

impl Default for PhysicalProps {
    fn default() -> Self {
        PhysicalProps::any()
    }
}

/// The process-global hash-consing pool for delivered property shapes.
///
/// A workload has a handful of distinct `PhysicalProps` values but emits one
/// per enumerated subgraph per compiled job; sharing them behind `Arc`s
/// turns that per-node clone churn into a pointer copy. The pool only grows
/// (shapes are tiny and the universe is bounded by the workload's templates).
pub fn shared_props(props: PhysicalProps) -> Arc<PhysicalProps> {
    static POOL: OnceLock<SharedPool<PhysicalProps>> = OnceLock::new();
    POOL.get_or_init(SharedPool::new).intern(props)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_prefix_satisfaction() {
        let req = SortOrder::asc(&[0]);
        let delivered = SortOrder::asc(&[0, 1]);
        assert!(req.satisfied_by(&delivered));
        assert!(!delivered.satisfied_by(&req));
        assert!(SortOrder::none().satisfied_by(&req));
        // Direction matters.
        let desc = SortOrder(vec![SortKey::desc(0)]);
        assert!(!req.satisfied_by(&desc));
    }

    #[test]
    fn partitioning_satisfaction() {
        let h8 = Partitioning::Hash {
            cols: vec![0],
            parts: 8,
        };
        let h4 = Partitioning::Hash {
            cols: vec![0],
            parts: 4,
        };
        let h8b = Partitioning::Hash {
            cols: vec![1],
            parts: 8,
        };
        assert!(Partitioning::Any.satisfied_by(&h8));
        assert!(h8.satisfied_by(&h8.clone()));
        assert!(!h8.satisfied_by(&h4));
        assert!(!h8.satisfied_by(&h8b));
        assert!(!Partitioning::Single.satisfied_by(&h8));
        assert!(Partitioning::Single.satisfied_by(&Partitioning::Single));
    }

    #[test]
    fn parts_counts() {
        assert_eq!(Partitioning::Single.parts(), Some(1));
        assert_eq!(
            Partitioning::Hash {
                cols: vec![],
                parts: 16
            }
            .parts(),
            Some(16)
        );
        assert_eq!(Partitioning::Any.parts(), None);
    }

    #[test]
    fn props_combined_satisfaction() {
        let req = PhysicalProps {
            partitioning: Partitioning::Hash {
                cols: vec![0],
                parts: 4,
            },
            sort: SortOrder::asc(&[0]),
        };
        let exact = req.clone();
        assert!(req.satisfied_by(&exact));
        let unsorted = PhysicalProps::hashed(vec![0], 4);
        assert!(!req.satisfied_by(&unsorted));
        assert!(PhysicalProps::any().satisfied_by(&unsorted));
    }

    #[test]
    fn stable_hash_distinguishes_designs() {
        use scope_common::hash::SipHasher24;
        fn h(p: &PhysicalProps) -> u64 {
            let mut s = SipHasher24::new_with_keys(0, 0);
            p.stable_hash_into(&mut s);
            s.finish()
        }
        let a = PhysicalProps::hashed(vec![0], 8);
        let b = PhysicalProps::hashed(vec![0], 16);
        let c = PhysicalProps::hashed(vec![1], 8);
        assert_ne!(h(&a), h(&b));
        assert_ne!(h(&a), h(&c));
        assert_eq!(h(&a), h(&PhysicalProps::hashed(vec![0], 8)));
    }

    #[test]
    fn describe_strings() {
        assert_eq!(PhysicalProps::single().describe(), "single");
        let p = PhysicalProps {
            partitioning: Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
            sort: SortOrder(vec![SortKey::desc(2)]),
        };
        assert_eq!(p.describe(), "hash[0]x8 sort[2desc]");
    }
}
