//! Strongly-typed identifiers.
//!
//! SCOPE's world has many id spaces — physical clusters, virtual clusters
//! (tenants), users, recurring job templates, job instances, plan nodes,
//! execution stages, vertices (tasks), and materialized views. Mixing them up
//! is a classic source of silent bugs, so each is a distinct newtype over a
//! small integer with `Display` for human-readable logs.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Converts to `usize` for indexing dense arrays.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }
    };
}

define_id!(
    /// A physical cluster (the paper analyzes five of them in Figure 1).
    ClusterId,
    "cluster"
);
define_id!(
    /// A virtual cluster — a tenant with allocated compute capacity
    /// ("tokens") and data access privileges (footnote 1 of the paper).
    VcId,
    "vc"
);
define_id!(
    /// A user entity (human or machine) submitting jobs.
    UserId,
    "user"
);
define_id!(
    /// A business unit: a group of VCs composing a data pipeline
    /// (producers cooking data, consumers processing it; Section 2.2).
    BusinessUnitId,
    "bu"
);
define_id!(
    /// A recurring job template: the script shape that stays fixed while
    /// dates, input GUIDs, and parameters change per instance (Section 3).
    TemplateId,
    "template"
);
define_id!(
    /// One submitted job instance.
    JobId,
    "job"
);
define_id!(
    /// A node in a logical or physical query plan DAG.
    NodeId,
    "n"
);
define_id!(
    /// An execution stage (a pipeline of operators between shuffle
    /// boundaries, executed by many parallel vertices).
    StageId,
    "stage"
);
define_id!(
    /// A materialized view registered in the CloudViews metadata service.
    ViewId,
    "view"
);
define_id!(
    /// A base table / input dataset (an "input GUID" in the paper's terms).
    DatasetId,
    "ds"
);

impl NodeId {
    /// Sentinel for "no node".
    pub const NONE: NodeId = NodeId(u64::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ClusterId::new(3).to_string(), "cluster3");
        assert_eq!(VcId::new(0).to_string(), "vc0");
        assert_eq!(JobId::new(42).to_string(), "job42");
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        set.insert(JobId::new(1));
        set.insert(JobId::new(1));
        set.insert(JobId::new(2));
        assert_eq!(set.len(), 2);
        assert!(JobId::new(1) < JobId::new(2));
    }

    #[test]
    fn index_round_trips() {
        let id = StageId::from(9u64);
        assert_eq!(id.raw(), 9);
        assert_eq!(id.index(), 9);
    }

    #[test]
    fn node_none_sentinel() {
        assert_ne!(NodeId::NONE, NodeId::new(0));
    }
}
