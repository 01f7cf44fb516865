//! String interning and shared-structure pooling for the plan IR.
//!
//! Recurring workloads submit the *same template* thousands of times
//! (paper Section 3): the stream names, normalized tags, and physical
//! properties attached to plan nodes repeat across instances with only
//! small deltas. Storing them as owned `String`s / by-value structs makes
//! every compile pay allocation and comparison costs proportional to the
//! payload. This module provides the two fixes:
//!
//! * [`Symbol`] — a `u32` handle into a global, append-only string
//!   interner. Interning the same string twice yields the same handle, so
//!   equality and hashing are O(1) and tag sets can be plain integer sets.
//!   Interned strings live for the life of the process (they are leaked),
//!   which matches the workload: the universe of templates is small and
//!   long-lived.
//! * [`SharedPool`] — a concurrent hash-consing pool that deduplicates
//!   arbitrary `Eq + Hash` values behind `Arc`s, so e.g. the handful of
//!   distinct `PhysicalProps` shapes in a workload are allocated once and
//!   shared by every subgraph record instead of cloned per node.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// An interned string: a copyable `u32` handle whose equality and hash are
/// those of the underlying string, at integer cost.
///
/// Obtain one with [`Symbol::intern`]; read it back with
/// [`Symbol::as_str`]. Handles are process-global and never invalidated.
///
/// `Ord` compares interner ids (insertion order), **not** lexicographic
/// order — use it only where any stable total order will do.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: RwLock<HashMap<&'static str, Symbol>>,
    strings: RwLock<Vec<&'static str>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        map: RwLock::new(HashMap::new()),
        strings: RwLock::new(Vec::new()),
    })
}

impl Symbol {
    /// Interns `s`, returning the canonical handle for its contents.
    pub fn intern(s: &str) -> Symbol {
        let it = interner();
        if let Some(&sym) = it.map.read().get(s) {
            return sym;
        }
        let mut map = it.map.write();
        // Double-check: another thread may have interned between locks.
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        let mut strings = it.strings.write();
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Symbol(u32::try_from(strings.len()).expect("interner overflow"));
        strings.push(leaked);
        map.insert(leaked, sym);
        sym
    }

    /// The interned string contents.
    pub fn as_str(self) -> &'static str {
        interner().strings.read()[self.0 as usize]
    }

    /// The raw handle value (diagnostics only; not stable across runs).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A concurrent hash-consing pool: [`SharedPool::intern`] returns an `Arc`
/// to the unique stored copy of a value, allocating only on first sight.
///
/// Lookup uses `Arc<T>: Borrow<T>`, so a probe never clones the candidate;
/// insertion double-checks under the write lock so concurrent first-sights
/// of the same value converge on one allocation.
pub struct SharedPool<T> {
    set: RwLock<HashSet<Arc<T>>>,
}

impl<T: Eq + Hash> SharedPool<T> {
    /// An empty pool.
    pub fn new() -> SharedPool<T> {
        SharedPool {
            set: RwLock::new(HashSet::new()),
        }
    }

    /// The canonical shared copy of `value`.
    pub fn intern(&self, value: T) -> Arc<T> {
        if let Some(existing) = self.set.read().get(&value) {
            return Arc::clone(existing);
        }
        let mut set = self.set.write();
        if let Some(existing) = set.get(&value) {
            return Arc::clone(existing);
        }
        let arc = Arc::new(value);
        set.insert(Arc::clone(&arc));
        arc
    }

    /// Number of distinct values pooled.
    pub fn len(&self) -> usize {
        self.set.read().len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.set.read().is_empty()
    }
}

impl<T: Eq + Hash> Default for SharedPool<T> {
    fn default() -> Self {
        SharedPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_string_same_symbol() {
        let a = Symbol::intern("clicks/<date>/log.ss");
        let b = Symbol::intern("clicks/<date>/log.ss");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "clicks/<date>/log.ss");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        assert_ne!(a.as_str(), b.as_str());
    }

    #[test]
    fn display_and_comparisons_read_through() {
        let a = Symbol::intern("intern-test-display");
        assert_eq!(format!("{a}"), "intern-test-display");
        assert_eq!(format!("{a:?}"), "\"intern-test-display\"");
        assert!(a == "intern-test-display");
        assert_eq!(a.as_ref(), "intern-test-display");
    }

    #[test]
    fn concurrent_interning_converges() {
        let symbols: Vec<Symbol> = thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| Symbol::intern("intern-test-race")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(symbols.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shared_pool_dedups_behind_one_arc() {
        let pool: SharedPool<Vec<u32>> = SharedPool::new();
        let a = pool.intern(vec![1, 2, 3]);
        let b = pool.intern(vec![1, 2, 3]);
        let c = pool.intern(vec![4]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn shared_pool_concurrent_first_sight_single_allocation() {
        let pool: SharedPool<String> = SharedPool::new();
        let arcs: Vec<Arc<String>> = thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| pool.intern("pool-race".to_string())))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(arcs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(pool.len(), 1);
    }
}
