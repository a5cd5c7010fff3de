//! Uniform construction of every benchmarked structure variant.

use std::sync::Arc;

use bundle::api::RangeQuerySet;
use bundle::TwoPhase;
use citrus::{BundledCitrusTree, UnsafeCitrusTree};
use lazylist::{BundledLazyList, UnsafeLazyList};
use skiplist::{BundledSkipList, UnsafeSkipList};
use store::{uniform_splits, CitrusStore, LazyListStore, SkipListStore};

/// Shard count used by the `Store*` registry kinds (the `store_scaling`
/// binary sweeps other counts explicitly).
pub const DEFAULT_STORE_SHARDS: usize = 8;

/// A dynamically-dispatched ordered set with range queries over `u64` keys
/// and values — the interface the whole harness drives.
pub type DynSet = dyn RangeQuerySet<u64, u64> + Send + Sync;

/// Every structure/technique combination the harness can benchmark.
///
/// `*Bundle` are the paper's contribution; `*Unsafe` are the
/// non-linearizable reference implementations the paper normalizes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Bundled lazy skip list (§5).
    SkipListBundle,
    /// Unsafe lazy skip list baseline.
    SkipListUnsafe,
    /// Bundled Citrus-style BST (§6).
    CitrusBundle,
    /// Unsafe Citrus-style BST baseline.
    CitrusUnsafe,
    /// Bundled lazy linked list (§4).
    ListBundle,
    /// Unsafe lazy linked list baseline.
    ListUnsafe,
    /// Sharded store over bundled skip lists (`store` crate,
    /// [`DEFAULT_STORE_SHARDS`] shards, linearizable cross-shard RQs).
    StoreSkipList,
    /// Sharded store over bundled Citrus trees.
    StoreCitrus,
    /// Sharded store over bundled lazy lists.
    StoreList,
}

/// All benchmarkable kinds, in the order the figures report them.
pub const ALL_KINDS: [StructureKind; 9] = [
    StructureKind::SkipListBundle,
    StructureKind::SkipListUnsafe,
    StructureKind::CitrusBundle,
    StructureKind::CitrusUnsafe,
    StructureKind::ListBundle,
    StructureKind::ListUnsafe,
    StructureKind::StoreSkipList,
    StructureKind::StoreCitrus,
    StructureKind::StoreList,
];

impl StructureKind {
    /// Short display name used in tables and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::SkipListBundle => "skiplist-bundle",
            StructureKind::SkipListUnsafe => "skiplist-unsafe",
            StructureKind::CitrusBundle => "citrus-bundle",
            StructureKind::CitrusUnsafe => "citrus-unsafe",
            StructureKind::ListBundle => "list-bundle",
            StructureKind::ListUnsafe => "list-unsafe",
            StructureKind::StoreSkipList => "store-skiplist",
            StructureKind::StoreCitrus => "store-citrus",
            StructureKind::StoreList => "store-list",
        }
    }

    /// `true` for the variants with linearizable range queries (bundled
    /// structures and the sharded stores built on them).
    pub fn is_bundled(&self) -> bool {
        !matches!(
            self,
            StructureKind::SkipListUnsafe | StructureKind::CitrusUnsafe | StructureKind::ListUnsafe
        )
    }

    /// `true` for the sharded-store variants.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            StructureKind::StoreSkipList | StructureKind::StoreCitrus | StructureKind::StoreList
        )
    }

    /// The `Unsafe` baseline for the same underlying data structure (for a
    /// store, the baseline of its per-shard backend).
    pub fn unsafe_counterpart(&self) -> StructureKind {
        match self {
            StructureKind::SkipListBundle
            | StructureKind::SkipListUnsafe
            | StructureKind::StoreSkipList => StructureKind::SkipListUnsafe,
            StructureKind::CitrusBundle
            | StructureKind::CitrusUnsafe
            | StructureKind::StoreCitrus => StructureKind::CitrusUnsafe,
            StructureKind::ListBundle | StructureKind::ListUnsafe | StructureKind::StoreList => {
                StructureKind::ListUnsafe
            }
        }
    }

    /// The paper's default key range for this data structure (10k for the
    /// list, 100k for the skip list and tree; stores follow their backend).
    pub fn default_key_range(&self) -> u64 {
        match self {
            StructureKind::ListBundle | StructureKind::ListUnsafe | StructureKind::StoreList => {
                10_000
            }
            _ => 100_000,
        }
    }
}

/// Construct a structure of the given kind supporting `max_threads`
/// registered worker threads.
///
/// Store kinds shard the kind's default key range over
/// [`DEFAULT_STORE_SHARDS`] uniform range shards (keys beyond the range
/// all land in the last shard); use [`make_store_structure`] to choose the
/// shard count and key range explicitly.
pub fn make_structure(kind: StructureKind, max_threads: usize) -> Arc<DynSet> {
    match kind {
        StructureKind::SkipListBundle => Arc::new(BundledSkipList::<u64, u64>::new(max_threads)),
        StructureKind::SkipListUnsafe => Arc::new(UnsafeSkipList::<u64, u64>::new(max_threads)),
        StructureKind::CitrusBundle => Arc::new(BundledCitrusTree::<u64, u64>::new(max_threads)),
        StructureKind::CitrusUnsafe => Arc::new(UnsafeCitrusTree::<u64, u64>::new(max_threads)),
        StructureKind::ListBundle => Arc::new(BundledLazyList::<u64, u64>::new(max_threads)),
        StructureKind::ListUnsafe => Arc::new(UnsafeLazyList::<u64, u64>::new(max_threads)),
        store_kind @ (StructureKind::StoreSkipList
        | StructureKind::StoreCitrus
        | StructureKind::StoreList) => make_store_structure(
            store_kind,
            max_threads,
            DEFAULT_STORE_SHARDS,
            store_kind.default_key_range(),
        ),
    }
}

/// Construct a sharded store with an explicit shard count and key range.
/// Panics for non-store kinds.
pub fn make_store_structure(
    kind: StructureKind,
    max_threads: usize,
    shards: usize,
    key_range: u64,
) -> Arc<DynSet> {
    let splits = uniform_splits(shards, key_range);
    match kind {
        StructureKind::StoreSkipList => {
            Arc::new(SkipListStore::<u64, u64>::new(max_threads, splits))
        }
        StructureKind::StoreCitrus => Arc::new(CitrusStore::<u64, u64>::new(max_threads, splits)),
        StructureKind::StoreList => Arc::new(LazyListStore::<u64, u64>::new(max_threads, splits)),
        other => panic!("{other:?} is not a sharded store kind"),
    }
}

/// Construct a *bundled* structure with a relaxed global timestamp
/// (Appendix A): the clock is only advanced every `t`-th update per thread.
/// Panics for non-bundled kinds.
pub fn make_relaxed_structure(kind: StructureKind, max_threads: usize, t: u64) -> Arc<DynSet> {
    match kind {
        StructureKind::SkipListBundle => {
            Arc::new(BundledSkipList::<u64, u64>::with_relaxation(max_threads, t))
        }
        StructureKind::CitrusBundle => Arc::new(BundledCitrusTree::<u64, u64>::with_relaxation(
            max_threads,
            t,
        )),
        StructureKind::ListBundle => {
            Arc::new(BundledLazyList::<u64, u64>::with_relaxation(max_threads, t))
        }
        other => panic!("relaxation only applies to bundled structures, not {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_operates() {
        for kind in ALL_KINDS {
            let s = make_structure(kind, 2);
            assert!(s.insert(0, 10, 100), "{kind:?}");
            assert!(s.contains(1, &10), "{kind:?}");
            let mut out = Vec::new();
            assert_eq!(s.range_query(0, &0, &20, &mut out), 1, "{kind:?}");
            assert_eq!(out, vec![(10, 100)]);
            assert!(s.remove(1, &10), "{kind:?}");
            assert!(s.is_empty(0), "{kind:?}");
        }
    }

    #[test]
    fn names_and_counterparts_are_consistent() {
        for kind in ALL_KINDS {
            assert!(!kind.name().is_empty());
            let counter = kind.unsafe_counterpart();
            assert!(!counter.is_bundled());
            assert_eq!(counter.unsafe_counterpart(), counter);
        }
        assert_eq!(StructureKind::ListBundle.default_key_range(), 10_000);
        assert_eq!(StructureKind::SkipListBundle.default_key_range(), 100_000);
    }

    #[test]
    fn store_kinds_construct_with_custom_sharding() {
        for kind in [
            StructureKind::StoreSkipList,
            StructureKind::StoreCitrus,
            StructureKind::StoreList,
        ] {
            assert!(kind.is_store() && kind.is_bundled(), "{kind:?}");
            assert!(!kind.unsafe_counterpart().is_store());
            for shards in [1, 3] {
                let s = make_store_structure(kind, 2, shards, 1_000);
                for k in (0..1_000u64).step_by(100) {
                    assert!(s.insert(0, k, k), "{kind:?}/{shards}");
                }
                let mut out = Vec::new();
                assert_eq!(
                    s.range_query(1, &0, &1_000, &mut out),
                    10,
                    "{kind:?}/{shards}"
                );
                assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
        assert!(!StructureKind::SkipListBundle.is_store());
    }

    #[test]
    fn relaxed_structures_construct_for_bundled_kinds() {
        for kind in [
            StructureKind::SkipListBundle,
            StructureKind::CitrusBundle,
            StructureKind::ListBundle,
        ] {
            let s = make_relaxed_structure(kind, 1, 10);
            for k in 0..50u64 {
                s.insert(0, k, k);
            }
            assert_eq!(s.len(0), 50);
        }
    }
}
