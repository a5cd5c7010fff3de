//! The paper's primitive updates allocate what they *create* and nothing
//! for their bookkeeping: an `insert` its node and the bundle head it
//! displaces in its predecessor, a `remove` the one displaced head, an
//! operation that fails nothing at all — no `Vec` of pending entries, of
//! lock guards or of bundle updates per call. A counting global allocator
//! pins that per thread (as in `tests/txn_allocs.rs`), on all three
//! backends.

mod common;

use bundled_refs::bundle::api::ConcurrentSet;
use bundled_refs::bundle::TwoPhase;
use bundled_refs::citrus::BundledCitrusTree;
use bundled_refs::lazylist::BundledLazyList;
use bundled_refs::skiplist::BundledSkipList;
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
