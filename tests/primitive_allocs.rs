//! The paper's primitive updates allocate what they *create* and nothing
//! for their bookkeeping: an `insert` its node and the bundle head it
//! displaces in its predecessor, a `remove` the one displaced head, an
//! operation that fails nothing at all — no `Vec` of pending entries, of
//! lock guards or of bundle updates per call. A counting global allocator
//! pins that per thread (as in `tests/txn_allocs.rs`), on all three
//! backends. Metrics add nothing to it: the same primitives on a store
//! built `with_obs` allocate exactly what they allocate on a plain one.

mod common;

use bundled_refs::bundle::api::{ConcurrentSet, RangeQuerySet};
use bundled_refs::bundle::TwoPhase;
use bundled_refs::citrus::BundledCitrusTree;
use bundled_refs::ebr::ReclaimMode;
use bundled_refs::lazylist::BundledLazyList;
use bundled_refs::obs::MetricsRegistry;
use bundled_refs::skiplist::BundledSkipList;
use bundled_refs::store::{uniform_splits, BundledStore, ShardBackend};
use common::allocs_in;

/// Even keys below this are prefilled; odd ones come and go.
const KEY_RANGE: u64 = 4_000;
/// The first key prefilled: in the tree, the node under the sentinel, with
/// two children.
const FIRST: u64 = KEY_RANGE / 2;
const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 500;

fn primitives_allocate_only_what_they_create<S: TwoPhase<Key = u64, Value = u64>>() -> S {
    let s = S::new(1);
    let evens = KEY_RANGE / 2;
    // Every even key, in a scattered order (a sorted prefill would make
    // the tree a list); then churn until the EBR limbo list has reached
    // its high-water capacity.
    for i in 0..evens {
        assert!(s.insert(0, (FIRST + i * 2 * 389) % KEY_RANGE, i));
    }
    for i in 0..WARM_UP {
        let k = (i * 997) % evens * 2 + 1;
        assert!(s.insert(0, k, i) && s.remove(0, &k));
    }
    for i in 0..MEASURED {
        // A fresh odd key: in the tree a leaf, so its remove is a splice.
        let k = (i * 613) % evens * 2 + 1;
        let (n, applied) = allocs_in(|| s.insert(0, k, i));
        assert!(applied && n <= 2, "insert({k}) allocated {n} times");
        let (n, applied) = allocs_in(|| s.insert(0, k, i));
        assert!(!applied && n == 0, "failed insert({k}) allocated {n} times");
        let (n, applied) = allocs_in(|| s.remove(0, &k));
        assert!(applied && n <= 1, "remove({k}) allocated {n} times");
        let (n, applied) = allocs_in(|| s.remove(0, &k));
        assert!(!applied && n == 0, "failed remove({k}) allocated {n} times");
    }
    s
}

#[test]
fn skiplist_primitives_allocate_only_what_they_create() {
    primitives_allocate_only_what_they_create::<BundledSkipList<u64, u64>>();
}

#[test]
fn lazylist_primitives_allocate_only_what_they_create() {
    primitives_allocate_only_what_they_create::<BundledLazyList<u64, u64>>();
}

#[test]
fn citrus_primitives_allocate_only_what_they_create() {
    let tree = primitives_allocate_only_what_they_create::<BundledCitrusTree<u64, u64>>();
    // The tree's third remove case creates more: a node with two children
    // is replaced by a copy of its successor, which displaces the head of
    // the parent's bundle and, when the successor is moved out of a slot
    // further down, that slot's too.
    let (n, applied) = allocs_in(|| tree.remove(0, &FIRST));
    assert!(applied && n <= 3, "relocating remove allocated {n} times");
}

/// The allocations of every op of one warm churn script on a 4-shard
/// store; `registry` builds it `with_obs`.
fn store_churn_allocs<S: ShardBackend<u64, u64>>(registry: Option<&MetricsRegistry>) -> Vec<u64> {
    let (mode, splits) = (ReclaimMode::Reclaim, uniform_splits(4, KEY_RANGE));
    let s = match registry {
        Some(r) => BundledStore::<u64, u64, S>::with_obs(1, mode, splits, r),
        None => BundledStore::<u64, u64, S>::with_mode(1, mode, splits),
    };
    let evens = KEY_RANGE / 2;
    for i in 0..evens {
        assert!(s.insert(0, (FIRST + i * 2 * 389) % KEY_RANGE, i));
    }
    for i in 0..WARM_UP {
        let k = (i * 997) % evens * 2 + 1;
        assert!(s.insert(0, k, i) && s.remove(0, &k));
    }
    let mut counts = Vec::with_capacity(4 * MEASURED as usize);
    for i in 0..MEASURED {
        let k = (i * 613) % evens * 2 + 1;
        counts.push(allocs_in(|| s.insert(0, k, i)).0);
        counts.push(allocs_in(|| s.insert(0, k, i)).0);
        counts.push(allocs_in(|| s.remove(0, &k)).0);
        counts.push(allocs_in(|| s.remove(0, &k)).0);
    }
    counts
}

fn metrics_add_no_allocation<S: ShardBackend<u64, u64>>() {
    let plain = store_churn_allocs::<S>(None);
    let observed = store_churn_allocs::<S>(Some(&MetricsRegistry::new()));
    assert_eq!(observed, plain);
}

#[test]
fn skiplist_store_primitives_allocate_the_same_with_metrics() {
    metrics_add_no_allocation::<BundledSkipList<u64, u64>>();
}

#[test]
fn lazylist_store_primitives_allocate_the_same_with_metrics() {
    metrics_add_no_allocation::<BundledLazyList<u64, u64>>();
}

#[test]
fn citrus_store_primitives_allocate_the_same_with_metrics() {
    metrics_add_no_allocation::<BundledCitrusTree<u64, u64>>();
}

/// A warm cross-shard range query pins once and collects every fragment
/// after the first through the session's warm read buffer.
fn warm_cross_shard_range_query_allocates_nothing<S: ShardBackend<u64, u64>>() {
    let s = BundledStore::<u64, u64, S>::new(1, uniform_splits(4, KEY_RANGE));
    for i in 0..KEY_RANGE / 2 {
        assert!(s.insert(0, (FIRST + i * 2 * 389) % KEY_RANGE, i));
    }
    let mut out = Vec::new();
    s.range_query(0, &0, &KEY_RANGE, &mut out);
    let (n, len) = allocs_in(|| s.range_query(0, &0, &KEY_RANGE, &mut out));
    assert_eq!((n, len), (0, KEY_RANGE as usize / 2), "allocations, keys");
}

#[test]
fn warm_cross_shard_range_queries_allocate_nothing() {
    warm_cross_shard_range_query_allocates_nothing::<BundledSkipList<u64, u64>>();
    warm_cross_shard_range_query_allocates_nothing::<BundledLazyList<u64, u64>>();
    warm_cross_shard_range_query_allocates_nothing::<BundledCitrusTree<u64, u64>>();
}
