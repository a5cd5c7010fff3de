//! The two-phase kernel's contract, checked once and run on every
//! backend: each scenario is a function generic over
//! [`TwoPhase`] (model-checked against a `BTreeMap`), instantiated for the
//! skip list, the lazy list and the Citrus tree at the bottom of the file.
//!
//! Prefill orders are tree-shaped (`50, 25, 75, …`) so the same scenario
//! gives Citrus leaves, one-child nodes and two-children nodes (whose
//! remove relocates the successor); the chains do not care about order.
//! Structure-specific behaviour (towers, search gates, gap pins, cursor
//! frontiers) is tested next to each structure.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use bundled_refs::bundle::api::RangeQuerySet;
use bundled_refs::bundle::{
    Bundle, BundledNode, Conflict, PrepareCursor, RqContext, TwoPhase, TxnValidateError,
};
use bundled_refs::citrus::BundledCitrusTree;
use bundled_refs::ebr::Shared;
use bundled_refs::lazylist::BundledLazyList;
use bundled_refs::skiplist::BundledSkipList;

type Model = BTreeMap<u64, u64>;

/// Seven keys, inserted so that a BST gets two leaves' parents with two
/// children each (`25`, `75`) under a two-children root (`50`).
const TREE_ORDER: [u64; 7] = [50, 25, 75, 10, 30, 60, 90];

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn model_range(model: &Model, low: u64, high: u64) -> Vec<(u64, u64)> {
    model.range(low..=high).map(|(k, v)| (*k, *v)).collect()
}

/// A structure over `ctx` holding `keys` (value `f(key)`), and its model.
fn filled<S: TwoPhase<Key = u64, Value = u64>>(
    ctx: &RqContext,
    keys: &[u64],
    f: impl Fn(u64) -> u64,
) -> (S, Model) {
    let s = S::with_context(ctx);
    let mut model = Model::new();
    for &k in keys {
        assert!(s.insert(0, k, f(k)));
        model.insert(k, f(k));
    }
    (s, model)
}

/// `low..=high` at the caller-fixed snapshot `ts`.
fn scan_at<S: TwoPhase<Key = u64, Value = u64>>(
    s: &S,
    ts: u64,
    low: u64,
    high: u64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    s.range_query_at(1, ts, &low, &high, &mut out);
    out
}

/// A transactional read of `low..=high` at `ts`: `(rows, read set)`.
type Read = (Vec<(u64, u64)>, Vec<(u64, usize)>);

fn read_at<S: TwoPhase<Key = u64, Value = u64>>(s: &S, ts: u64, low: u64, high: u64) -> Read {
    let (mut out, mut nodes) = (Vec::new(), Vec::new());
    s.txn_range_read(1, ts, &low, &high, &mut out, &mut nodes);
    (out, nodes)
}

/// Validate `nodes` as a read of `low..=high` on a fresh token, then
/// release whatever it pinned.
fn validate_alone<S: TwoPhase<Key = u64, Value = u64>>(
    s: &S,
    low: u64,
    high: u64,
    nodes: &[(u64, usize)],
) -> Result<(), TxnValidateError> {
    let mut txn = s.txn_begin(1);
    let verdict = s.txn_validate(&mut txn, &low, &high, nodes);
    s.txn_abort(txn);
    verdict
}

/// Every reachable bundle's address and the node it resolves to at `ts`.
fn bundles_at<S: TwoPhase<Key = u64, Value = u64>>(s: &S, ts: u64) -> Vec<(usize, Option<usize>)> {
    let (guard, mut out) = (s.pin(1), Vec::new());
    s.for_each_bundle(&guard, |b| {
        let at = b.dereference(ts, &guard).map(|n| n.as_raw() as usize);
        out.push((b as *const _ as usize, at));
    });
    out
}

fn insert_remove_contains_roundtrip<S: TwoPhase<Key = u64, Value = u64>>() {
    let (s, mut model) = filled::<S>(&RqContext::new(1), &TREE_ORDER, |k| k + 1);
    assert!(!s.insert(0, 30, 0), "duplicate insert rejected");
    assert_eq!(s.len(0), 7);
    assert!(s.contains(0, &60));
    assert_eq!(s.get(0, &90), Some(91));
    // In a BST: a leaf, then a node left with a single child, then the
    // root of a subtree with two children.
    for k in [10u64, 25, 50] {
        assert!(s.remove(0, &k), "remove {k}");
        model.remove(&k);
    }
    assert!(!s.remove(0, &50), "second remove misses");
    assert_eq!(s.len(0), 4);
    for k in 0..100u64 {
        assert_eq!(s.contains(0, &k), model.contains_key(&k), "contains {k}");
        assert_eq!(s.get(0, &k), model.get(&k).copied(), "get {k}");
    }
}

fn range_query_returns_sorted_snapshot<S: TwoPhase<Key = u64, Value = u64>>() {
    // A shuffled insertion order, so the tree is not one long path.
    let mut keys: Vec<u64> = (0..200).map(|i| (i * 37) % 500).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut seed = 7u64;
    for i in (1..keys.len()).rev() {
        keys.swap(i, (xorshift(&mut seed) % (i as u64 + 1)) as usize);
    }
    let (s, model) = filled::<S>(&RqContext::new(1), &keys, |k| k * 10);
    let mut out = Vec::new();
    for (low, high) in [(100u64, 400u64), (30, 90), (0, 1000), (501, 1000)] {
        let n = s.range_query(0, &low, &high, &mut out);
        assert_eq!(out, model_range(&model, low, high), "[{low}, {high}]");
        assert_eq!(n, out.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }
    assert!(out.is_empty(), "nothing above the largest key");
    assert_eq!(s.range_query_vec(0, &0, &1000).len(), model.len());
}

fn matches_btreemap_model_sequentially<S: TwoPhase<Key = u64, Value = u64>>() {
    let s = S::new(1);
    let mut model = Model::new();
    let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..4000 {
        let k = xorshift(&mut seed) % 512;
        match xorshift(&mut seed) % 3 {
            0 => assert_eq!(s.insert(0, k, k), model.insert(k, k).is_none()),
            1 => assert_eq!(s.remove(0, &k), model.remove(&k).is_some()),
            _ => assert_eq!(s.contains(0, &k), model.contains_key(&k)),
        }
    }
    assert_eq!(s.len(0), model.len());
    for (low, high) in [(8u64, 40u64), (64, 256), (100, 300)] {
        assert_eq!(
            s.range_query_vec(0, &low, &high),
            model_range(&model, low, high)
        );
    }
}

fn concurrent_mixed_operations_preserve_integrity<S: TwoPhase<Key = u64, Value = u64>>() {
    const THREADS: usize = 4;
    const OPS: usize = 3_000;
    let s = S::new(THREADS);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut seed = (tid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut out = Vec::new();
                for _ in 0..OPS {
                    let k = xorshift(&mut seed) % 512;
                    match xorshift(&mut seed) % 4 {
                        0 => {
                            s.insert(tid, k, k);
                        }
                        1 => {
                            s.remove(tid, &k);
                        }
                        2 => {
                            let _ = s.contains(tid, &k);
                        }
                        _ => {
                            let lo = k.saturating_sub(64);
                            s.range_query(tid, &lo, &k, &mut out);
                            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            assert!(out.iter().all(|(x, _)| *x >= lo && *x <= k));
                        }
                    }
                }
            });
        }
    });
    // Final structural sanity: sorted, no duplicates, nothing lost.
    let out = s.range_query_vec(0, &0, &(u64::MAX - 2));
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(out.len(), s.len(0));
}

/// One writer inserts `order` front to back while a reader scans: a
/// linearizable range query sees a gap-free *prefix of the insertion
/// order* (seeing the i-th inserted key implies seeing every earlier one).
fn prefix_insertion_has_no_gaps<S: TwoPhase<Key = u64, Value = u64>>(order: &[u64]) {
    let max = order.len() as u64;
    let mut index_of = vec![0usize; order.len()];
    for (i, &k) in order.iter().enumerate() {
        index_of[k as usize] = i;
    }
    let s = S::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, &k) in order.iter().enumerate() {
                assert!(s.insert(0, k, i as u64));
            }
        });
        scope.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..200 {
                s.range_query(1, &0, &max, &mut out);
                assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
                let mut seen: Vec<usize> = out.iter().map(|e| index_of[e.0 as usize]).collect();
                seen.sort_unstable();
                assert!(
                    seen.iter().copied().eq(0..seen.len()),
                    "range query observed a gap"
                );
            }
        });
    });
    assert_eq!(s.len(0), order.len());
}

fn range_query_prefix_insertion_has_no_gaps<S: TwoPhase<Key = u64, Value = u64>>() {
    const MAX: u64 = 3_000;
    // Strictly increasing keys (appends), then low/high interleaved
    // (inserts into the middle; keeps the unbalanced tree off one path).
    let ascending: Vec<u64> = (0..MAX).collect();
    prefix_insertion_has_no_gaps::<S>(&ascending);
    let interleaved: Vec<u64> = (0..MAX)
        .map(|i| if i % 2 == 0 { i / 2 } else { MAX - 1 - i / 2 })
        .collect();
    prefix_insertion_has_no_gaps::<S>(&interleaved);
}

fn cleanup_prunes_stale_bundle_entries<S: TwoPhase<Key = u64, Value = u64>>() {
    let keys: Vec<u64> = (0..64).map(|k| k * 3 % 64).collect();
    let (s, _) = filled::<S>(&RqContext::new(2), &keys, |k| k);
    // Churn on the same keys grows the bundles.
    for _ in 0..5 {
        for k in 0..64u64 {
            assert!(s.remove(0, &k));
            assert!(s.insert(0, k, k));
        }
    }
    let before = s.bundle_entries(0);
    let reclaimed = s.cleanup_bundles(1);
    let after = s.bundle_entries(0);
    assert!(reclaimed > 0, "cleanup should reclaim stale entries");
    assert_eq!(after, before - reclaimed);
    // With no active range query every reachable bundle shrinks to the
    // single entry a new snapshot needs.
    let mut bundles = 0;
    s.for_each_bundle(&s.pin(0), |_| bundles += 1);
    assert_eq!(after, bundles);
    // And the structure still answers queries correctly.
    assert_eq!(s.len(0), 64);
    assert_eq!(s.range_query_vec(0, &0, &63).len(), 64);
}

fn relaxed_clock_still_produces_consistent_ranges<S: TwoPhase<Key = u64, Value = u64>>() {
    for t in [10u64, 50] {
        let s = S::with_relaxation(2, t);
        for k in 0..500u64 {
            assert!(s.insert(0, k, k));
        }
        let out = s.range_query_vec(1, &100, &200);
        assert_eq!(out.len(), 101);
        assert!(out.iter().map(|e| e.0).eq(100..=200));
    }
}

fn range_query_at_respects_fixed_snapshot<S: TwoPhase<Key = u64, Value = u64>>() {
    let (s, then) = filled::<S>(&RqContext::new(2), &TREE_ORDER, |k| k * 2);
    let ts = s.context().read();
    let mut now = then.clone();
    assert!(s.remove(0, &25));
    now.remove(&25);
    for k in [99u64, 26, 5] {
        assert!(s.insert(0, k, k));
        now.insert(k, k);
    }
    // At the fixed snapshot the removal and the late inserts are invisible.
    assert_eq!(scan_at(&s, ts, 0, 200), model_range(&then, 0, 200));
    assert_eq!(scan_at(&s, ts, 20, 60), model_range(&then, 20, 60));
    // A current snapshot sees the new state.
    assert_eq!(
        scan_at(&s, s.context().read(), 0, 200),
        model_range(&now, 0, 200)
    );
    // The guaranteed bundle-only walk produces the same snapshot.
    let mut snap = Vec::new();
    s.collect_snapshot_at(ts, &20, &60, &s.pin(1), |node| {
        snap.push(bundled_refs::bundle::key_value::<S>(&node));
    });
    assert_eq!(snap, model_range(&then, 20, 60));
    // An ancient snapshot sees the empty structure.
    assert_eq!(scan_at(&s, 0, 0, 1000), vec![]);
}

fn shared_context_spans_structures<S: TwoPhase<Key = u64, Value = u64>>() {
    // Two structures on one context: updates interleave on one clock, and
    // a fixed-timestamp query over both sees one atomic cut.
    let ctx = RqContext::new(2);
    let a = S::with_context(&ctx);
    let b = S::with_context(&ctx);
    assert!(a.context().same_as(b.context()));
    a.insert(0, 1, 1); // ts 1
    b.insert(0, 2, 2); // ts 2
    a.insert(0, 3, 3); // ts 3
    assert_eq!(ctx.read(), 3, "both structures advance the one clock");
    // Snapshot fixed between the two `a` inserts: sees {1} and {2}.
    let announced = ctx.announce_rq(1);
    assert_eq!(announced.ts(), 3);
    assert_eq!(scan_at(&a, 2, 0, 10), vec![(1, 1)], "not the ts=3 insert");
    assert_eq!(scan_at(&b, 2, 0, 10), vec![(2, 2)]);
}

fn txn_commit_is_atomic_under_a_fixed_snapshot<S: TwoPhase<Key = u64, Value = u64>>() {
    let ctx = RqContext::new(2);
    let (s, pre) = filled::<S>(&ctx, &TREE_ORDER, |k| k);
    let before = ctx.read();

    // Two adjacent new keys (the second links through the first's fresh
    // link, restaging its pending entry), a `Set` (remove then re-insert:
    // both go through the predecessor's one link), a remove of a
    // pre-existing key (two children in a BST, and a backward seek), and
    // the two no-op outcomes.
    let mut cur = s.txn_cursor(s.txn_begin(0));
    assert_eq!(cur.seek_prepare_put(26, 260), Ok(true));
    assert_eq!(cur.seek_prepare_put(27, 270), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&60), Ok(true));
    assert_eq!(cur.seek_prepare_put(60, 600), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&25), Ok(true));
    assert_eq!(cur.seek_prepare_put(50, 999), Ok(false), "no-op dup");
    assert_eq!(cur.seek_prepare_remove(&77), Ok(false), "no-op miss");
    let stats = cur.stats();
    assert!(stats.hinted >= 2, "sorted seeks must resume: {stats:?}");
    let txn = cur.finish();
    assert_eq!(txn.staged_ops(), 5);
    let ts = ctx.advance(0);
    s.txn_finalize(txn, ts);
    let mut post = pre.clone();
    post.remove(&25);
    post.extend([(26, 260), (27, 270), (60, 600)]);
    // Each changed link holds one entry at the commit timestamp, however
    // often the token staged through it.
    let mut stamped = Vec::new();
    s.for_each_bundle(&s.pin(1), |b| {
        stamped.push(b.iter().filter(|e| e.1 == ts).count())
    });
    assert!(
        stamped.iter().all(|&n| n <= 1) && stamped.contains(&1),
        "{stamped:?}"
    );

    let announced = ctx.announce_rq(1);
    assert!(announced.ts() >= ts);
    // Pre-commit snapshot: none of the transaction's writes.
    assert_eq!(scan_at(&s, before, 0, 100), model_range(&pre, 0, 100));
    // Commit snapshot: all of them.
    assert_eq!(scan_at(&s, ts, 0, 100), model_range(&post, 0, 100));
    assert_eq!(s.len(0), post.len());
}

fn txn_abort_restores_structure_and_snapshots<S: TwoPhase<Key = u64, Value = u64>>() {
    let ctx = RqContext::new(2);
    let (s, mut model) = filled::<S>(&ctx, &TREE_ORDER, |k| k);
    let clock_before = ctx.read();
    let bundles_before = bundles_at(&s, clock_before);

    let mut cur = s.txn_cursor(s.txn_begin(0));
    assert_eq!(cur.seek_prepare_put(55, 550), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&50), Ok(true), "two children");
    assert_eq!(cur.seek_prepare_remove(&10), Ok(true), "a leaf");
    assert_eq!(cur.seek_prepare_put(56, 560), Ok(true));
    // A `Set`: two writes through one link.
    assert_eq!(cur.seek_prepare_remove(&90), Ok(true));
    assert_eq!(cur.seek_prepare_put(90, 900), Ok(true));
    // The cursor reads its own eager writes through the frontier.
    assert_eq!(cur.seek_read(&56), Some(560));
    assert_eq!(cur.seek_read(&50), None);
    let txn = cur.finish();
    // Mid-transaction the eager changes are physically visible...
    assert!(s.contains(1, &55));
    assert!(!s.contains(1, &50));
    s.txn_abort(txn);

    // ...but after the abort everything is exactly as before, down to
    // what every bundle resolves to.
    assert_eq!(ctx.read(), clock_before, "abort never advances the clock");
    assert_eq!(bundles_at(&s, clock_before), bundles_before);
    for k in 0..100u64 {
        assert_eq!(s.contains(0, &k), model.contains_key(&k), "contains {k}");
    }
    assert_eq!(s.len(0), 7);
    assert_eq!(s.range_query_vec(1, &0, &100), model_range(&model, 0, 100));
    // Fixed-timestamp reads across the aborted window agree too.
    assert_eq!(
        scan_at(&s, clock_before, 0, 100),
        model_range(&model, 0, 100)
    );
    // And the structure still accepts updates on the touched keys.
    assert!(s.insert(0, 55, 551));
    assert!(s.remove(0, &50));
    assert!(s.remove(0, &10));
    model.insert(55, 551);
    model.remove(&50);
    model.remove(&10);
    assert_eq!(s.len(0), 6);
    assert_eq!(s.range_query_vec(1, &0, &100), model_range(&model, 0, 100));
}

fn txn_remove_of_own_staged_insert_nets_out<S: TwoPhase<Key = u64, Value = u64>>() {
    let s = S::new(1);
    s.insert(0, 10, 10);
    let mut cur = s.txn_cursor(s.txn_begin(0));
    assert_eq!(cur.seek_prepare_put(5, 50), Ok(true));
    // Equal-key seek: the frontier sits *at* 5 (never strictly before
    // it), so the remove re-locates the staged node and must unlink it.
    assert_eq!(cur.seek_prepare_remove(&5), Ok(true));
    let ts = s.context().advance(0);
    s.txn_finalize(cur.finish(), ts);
    assert!(!s.contains(0, &5));
    assert_eq!(s.len(0), 1);
    assert_eq!(s.range_query_vec(0, &0, &20), vec![(10, 10)]);
}

fn txn_reads_validate_and_detect_staleness<S: TwoPhase<Key = u64, Value = u64>>() {
    let ctx = RqContext::new(2);
    let (s, model) = filled::<S>(&ctx, &TREE_ORDER, |k| k * 2);
    let _pin = s.pin(1);
    let lease = ctx.lease_read(1);
    let (out, nodes) = read_at(&s, lease.ts(), 20, 70);
    assert_eq!(out, model_range(&model, 20, 70));
    assert!(
        nodes.iter().map(|n| n.0).eq(out.iter().map(|e| e.0)),
        "one recorded node per row, in key order"
    );
    // Point reads are the degenerate range (what `StoreSnapshot::get` does).
    let (hit, hit_nodes) = read_at(&s, lease.ts(), 30, 30);
    assert_eq!((hit, hit_nodes.len()), (vec![(30, 60)], 1));
    let (miss, miss_nodes) = read_at(&s, lease.ts(), 31, 31);
    assert!(miss.is_empty() && miss_nodes.is_empty());
    let (empty, empty_nodes) = read_at(&s, lease.ts(), 31, 45);
    assert!(empty.is_empty() && empty_nodes.is_empty());
    drop(lease);

    // Nothing changed: every read validates (and its pins release).
    assert_eq!(validate_alone(&s, 20, 70, &nodes), Ok(()));
    assert_eq!(validate_alone(&s, 30, 30, &hit_nodes), Ok(()));
    assert_eq!(validate_alone(&s, 31, 45, &empty_nodes), Ok(()));
    // A neighbour's staged insert holds a node inside the range: the walk
    // locks the nodes before it, then conflicts. Its locks stay in its
    // token, and the abort frees them for the next one.
    let mut neighbour = s.txn_cursor(s.txn_begin(0));
    assert_eq!(neighbour.seek_prepare_put(65, 650), Ok(true));
    let neighbour = neighbour.finish();
    let conflict = Err(TxnValidateError::Conflict);
    assert_eq!(validate_alone(&s, 20, 70, &nodes), conflict);
    s.txn_abort(neighbour);
    assert_eq!(validate_alone(&s, 20, 70, &nodes), Ok(()));
    // A foreign remove of a read key invalidates the range...
    assert!(s.remove(0, &30));
    let stale = Err(TxnValidateError::Invalidated);
    assert_eq!(validate_alone(&s, 20, 70, &nodes), stale);
    assert_eq!(validate_alone(&s, 30, 30, &hit_nodes), stale);
    // ...a phantom inserted into a read-empty range does too...
    assert!(s.insert(0, 40, 400));
    assert_eq!(validate_alone(&s, 31, 45, &empty_nodes), stale);
    // ...and so does a foreign insert between two read keys.
    let lease = ctx.lease_read(1);
    let (_, fresh) = read_at(&s, lease.ts(), 20, 70);
    drop(lease);
    // (The stale walks locked their whole ranges; their aborts freed them.)
    assert_eq!(validate_alone(&s, 20, 70, &fresh), Ok(()), "a fresh read");
    assert!(s.insert(0, 55, 550));
    assert_eq!(validate_alone(&s, 20, 70, &fresh), stale);
}

fn txn_validate_reconciles_own_staged_writes<S: TwoPhase<Key = u64, Value = u64>>() {
    let ctx = RqContext::new(2);
    let (s, mut model) = filled::<S>(&ctx, &[50, 25, 75, 60, 90, 55], |k| k);
    let _pin = s.pin(1);
    let lease = ctx.lease_read(1);
    let (out, all) = read_at(&s, lease.ts(), 0, 100);
    assert_eq!(out, model_range(&model, 0, 100));
    let (_, part) = read_at(&s, lease.ts(), 52, 80);

    // The transaction itself removes a read key (two children in a BST:
    // its successor 55 relocates into a fresh copy), upserts another and
    // inserts new ones — its own eager changes must not trip the
    // validation of its own reads.
    let mut cur = s.txn_cursor(s.txn_begin(1));
    assert_eq!(cur.seek_prepare_remove(&50), Ok(true));
    assert_eq!(cur.seek_prepare_put(70, 700), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&75), Ok(true));
    assert_eq!(cur.seek_prepare_put(75, 999), Ok(true));
    assert_eq!(cur.seek_prepare_put(15, 150), Ok(true));
    let mut txn = cur.finish();
    assert_eq!(s.txn_validate(&mut txn, &0, &100, &all), Ok(()));
    assert_eq!(s.txn_validate(&mut txn, &52, &80, &part), Ok(()));
    let ts = ctx.advance(1);
    s.txn_finalize(txn, ts);
    drop(lease);
    model.remove(&50);
    model.extend([(70, 700), (75, 999), (15, 150)]);
    assert_eq!(s.range_query_vec(0, &0, &100), model_range(&model, 0, 100));
}

fn one_op_cursors_accumulate_into_one_token<S: TwoPhase<Key = u64, Value = u64>>() {
    // A fresh cursor per op (one root descent each — the point-prepare
    // discipline) must stage into the same token with batch-identical
    // outcomes.
    let s = S::new(1);
    s.insert(0, 10, 10);
    let mut txn = s.txn_begin(0);
    for (op, expect) in [
        ((Some(50u64), 5u64), true),
        ((Some(99), 10), false),
        ((None, 10), true),
        ((None, 77), false),
    ] {
        let mut cur = s.txn_cursor(txn);
        match op {
            (Some(v), k) => assert_eq!(cur.seek_prepare_put(k, v), Ok(expect)),
            (None, k) => assert_eq!(cur.seek_prepare_remove(&k), Ok(expect)),
        }
        txn = cur.finish();
    }
    assert_eq!(txn.staged_ops(), 2);
    let ts = s.context().advance(0);
    s.txn_finalize(txn, ts);
    assert_eq!(s.range_query_vec(0, &0, &100), vec![(5, 50)]);
}

/// A node that a token locks only to validate a read comes back unlocked
/// at finalize and at abort, with its bundles exactly as they were: the
/// token resolves the pending heads it finds under its locks, and a
/// validated node has none.
fn validation_locks_come_back_unlocked_with_their_bundles_unchanged<S>()
where
    S: TwoPhase<Key = u64, Value = u64>,
{
    let ctx = RqContext::new(3);
    let (s, _) = filled::<S>(&ctx, &TREE_ORDER, |k| k);
    let pin = s.pin(1);
    // SAFETY: `from_raw` of nodes a read recorded under `pin`, which is
    // held to the end; nothing removes them.
    let node = |addr: usize| unsafe { Shared::from_raw(addr as *mut S::Node, &pin) };
    let history = |addr: usize| -> Vec<Vec<(usize, u64)>> {
        let n = node(addr);
        let entries = |b: &Bundle<_>| b.iter().map(|(p, ts)| (p as usize, ts)).collect();
        n.bundles().iter().map(entries).collect()
    };
    for (round, commit) in [(0u64, true), (1, false)] {
        let lease = ctx.lease_read(1);
        let (_, nodes) = read_at(&s, lease.ts(), 20, 70);
        drop(lease);
        assert_eq!(nodes.len(), 4, "25, 30, 50 and 60");
        let before: Vec<_> = nodes.iter().map(|&(_, n)| history(n)).collect();
        // The write is outside the range, so the read's nodes are only
        // locked to pin it.
        let mut cur = s.txn_cursor(s.txn_begin(1));
        assert_eq!(cur.seek_prepare_put(95 + round, 1), Ok(true));
        let mut txn = cur.finish();
        assert_eq!(s.txn_validate(&mut txn, &20, &70, &nodes), Ok(()));
        assert!(nodes.iter().all(|&(_, n)| node(n).lock().held_by(1)));
        if commit {
            let ts = ctx.advance(1);
            s.txn_finalize(txn, ts);
        } else {
            s.txn_abort(txn);
        }
        for (&(key, n), before) in nodes.iter().zip(&before) {
            assert!(!node(n).lock().held_by(1), "{key} still locked");
            assert!(node(n).lock().try_lock(2).is_some(), "{key} not free");
            assert_eq!(history(n), *before, "{key}'s bundles changed");
        }
    }
    assert!(s.contains(0, &95) && !s.contains(0, &96));
}

/// A primitive writer hammers the keys a token stages; the token aborts
/// on `Conflict` and retries. Every round terminates: a primitive's
/// blocking node lock and a token's bounded `try_lock` never wait on each
/// other in a cycle.
fn txn_conflicts_surface_instead_of_deadlocking<S: TwoPhase<Key = u64, Value = u64>>() {
    let s = S::new(3);
    for k in 0..64u64 {
        s.insert(0, k, k);
    }
    std::thread::scope(|scope| {
        let token = scope.spawn(|| {
            for round in 0..300u64 {
                loop {
                    let mut cur = s.txn_cursor(s.txn_begin(1));
                    let a = cur.seek_prepare_put(100 + (round % 8), round);
                    let b = a.and_then(|_| cur.seek_prepare_remove(&(round % 64)));
                    let txn = cur.finish();
                    match b {
                        Ok(_) => {
                            let ts = s.context().advance(1);
                            s.txn_finalize(txn, ts);
                            break;
                        }
                        Err(Conflict) => {
                            s.txn_abort(txn);
                            std::thread::yield_now();
                        }
                    }
                }
                s.remove(1, &(100 + (round % 8)));
            }
        });
        // The primitive writer, until the token's rounds are done (or it
        // panicked).
        let mut k = 0u64;
        while !token.is_finished() {
            s.remove(0, &(k % 64));
            s.insert(0, k % 64, k);
            k += 1;
        }
        token.join().unwrap();
    });
    let out = s.range_query_vec(2, &0, &200);
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(
        out.iter().all(|(k, _)| *k < 64),
        "every staged put was removed"
    );
}

/// A value whose `clone` panics while [`FRAGILE`] is set.
#[derive(Debug, PartialEq)]
struct Fragile(u64);

static FRAGILE: AtomicBool = AtomicBool::new(false);

impl Clone for Fragile {
    fn clone(&self) -> Self {
        assert!(!FRAGILE.load(Ordering::SeqCst), "fragile clone");
        Fragile(self.0)
    }
}

/// The three instantiations share [`FRAGILE`], so they run as one test.
fn a_panicking_clone_does_not_leave_the_range_query_announced<S>()
where
    S: TwoPhase<Key = u64, Value = Fragile>,
{
    let s = S::new(2);
    for k in [50u64, 25, 75] {
        assert!(s.insert(0, k, Fragile(k)));
    }
    FRAGILE.store(true, Ordering::SeqCst);
    let unwound = catch_unwind(AssertUnwindSafe(|| s.range_query_vec(1, &0, &100)));
    FRAGILE.store(false, Ordering::SeqCst);
    assert!(unwound.is_err(), "the clone must have panicked");
    assert_eq!(
        s.context().active_rqs(),
        0,
        "the unwound query is still announced: bundle reclamation is pinned"
    );
    // Reclamation moves again and a later query on the same thread works.
    assert!(s.remove(0, &25) && s.insert(0, 25, Fragile(26)));
    assert!(s.cleanup_bundles(0) > 0);
    let keys: Vec<u64> = s.range_query_vec(1, &0, &100).iter().map(|e| e.0).collect();
    assert_eq!(keys, vec![25, 50, 75]);
}

#[test]
fn a_panicking_clone_does_not_leave_the_range_query_announced_on_any_backend() {
    a_panicking_clone_does_not_leave_the_range_query_announced::<BundledSkipList<u64, Fragile>>();
    a_panicking_clone_does_not_leave_the_range_query_announced::<BundledLazyList<u64, Fragile>>();
    a_panicking_clone_does_not_leave_the_range_query_announced::<BundledCitrusTree<u64, Fragile>>();
}

/// One `#[test]` per scenario and backend.
macro_rules! conformance_suite {
    ($($backend:ident: $ty:ty),+ => $tests:tt) => {
        $(mod $backend {
            conformance_suite!(@tests $ty, $tests);
        })+
    };
    (@tests $ty:ty, [$($test:ident),+ $(,)?]) => {
        $(#[test]
        fn $test() {
            super::$test::<$ty>();
        })+
    };
}

conformance_suite!(
    skiplist: super::BundledSkipList<u64, u64>,
    lazylist: super::BundledLazyList<u64, u64>,
    citrus: super::BundledCitrusTree<u64, u64>
    => [
        insert_remove_contains_roundtrip,
        range_query_returns_sorted_snapshot,
        matches_btreemap_model_sequentially,
        concurrent_mixed_operations_preserve_integrity,
        range_query_prefix_insertion_has_no_gaps,
        cleanup_prunes_stale_bundle_entries,
        relaxed_clock_still_produces_consistent_ranges,
        range_query_at_respects_fixed_snapshot,
        shared_context_spans_structures,
        txn_commit_is_atomic_under_a_fixed_snapshot,
        txn_abort_restores_structure_and_snapshots,
        txn_remove_of_own_staged_insert_nets_out,
        txn_reads_validate_and_detect_staleness,
        txn_validate_reconciles_own_staged_writes,
        one_op_cursors_accumulate_into_one_token,
        validation_locks_come_back_unlocked_with_their_bundles_unchanged,
        txn_conflicts_surface_instead_of_deadlocking,
    ]
);
