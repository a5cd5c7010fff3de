//! Abort-path property test for read-write transactions.
//!
//! Every round opens a `ReadWriteTxn`, performs validated reads, then —
//! with probability 1/2 — a second session commits a conflicting update
//! to a read key *before* the transaction commits, forcing a validation
//! failure. The properties checked after every round, on all three
//! backends:
//!
//! * a forced-stale commit returns `TxnAborted` and an undisturbed one
//!   succeeds — deterministically;
//! * **no snapshot ever observes an abort artifact**: the aborted
//!   transaction's pending bundle entries were neutralized (duplicates of
//!   the entry beneath, or `TOMBSTONE_TS` for transaction-created nodes),
//!   so a full range scan at the *current* timestamp and a re-scan of a
//!   snapshot whose timestamp was leased *before* the abort both equal
//!   the reference model exactly — nothing of the rolled-back write set,
//!   no resurrected removed keys, no tombstone-satisfying ghosts;
//! * the store keeps matching the model for every later round, i.e. the
//!   abort left the structures fully operational (locks released, clock
//!   untouched, no wedged bundles).
//!
//! The second half covers **covered reads** — a `get(k)` of a key the
//! transaction also writes. Commit validates those from the write's
//! staged images (the prepare's locks already pin the key) instead of
//! walking the structure, so the cases below check both directions: a
//! foreign commit to `k` between the read and the commit still aborts,
//! and an undisturbed read-modify-write validates with zero walks.

use std::collections::BTreeMap;

use bundled_refs::bundle::TxnValidateError;
use bundled_refs::prelude::*;
use bundled_refs::store::{BundledStore, ShardBackend, TxnAborted};
use bundled_refs::txn::ReadWriteTxn;

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn forced_validation_aborts<S: ShardBackend<u64, u64>>(label: &str) {
    const KEY_RANGE: u64 = 240;
    const ROUNDS: u64 = 300;
    // tid 0 = the transaction, tid 1 = the interferer, tid 2 = snapshots.
    let store = BundledStore::<u64, u64, S>::new(3, uniform_splits(4, KEY_RANGE));
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut seed = 0x5eed_cafe_u64;
    for k in (0..KEY_RANGE).step_by(3) {
        store.insert(0, k, k);
        model.insert(k, k);
    }
    let scan_hi = KEY_RANGE + ROUNDS + 1;

    let mut forced = 0u64;
    for round in 0..ROUNDS {
        let k = xorshift(&mut seed) % KEY_RANGE;
        let mut txn = ReadWriteTxn::with_tid(&store, 0);
        // Validated reads: the target key and a small range around it.
        let v = txn.get(&k);
        assert_eq!(v, model.get(&k).copied(), "{label}: leased read");
        let lo = k.saturating_sub(8);
        let hi = (k + 8).min(KEY_RANGE - 1);
        let mut out = Vec::new();
        txn.range(&lo, &hi, &mut out);

        // Inject the conflict: flip the read key through another session.
        let interfere = xorshift(&mut seed).is_multiple_of(2);
        if interfere {
            forced += 1;
            if model.remove(&k).is_some() {
                assert!(store.remove(1, &k));
            } else {
                assert!(store.insert(1, k, round));
                model.insert(k, round);
            }
        }

        // A snapshot leased *now*, before the commit attempt: whatever the
        // commit does (succeed or neutralize an abort), this snapshot's
        // view must stay exactly the current model.
        let pre_model: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
        let pre_snap = store.snapshot(2);

        // Writes derived from the reads: an update of the read key plus a
        // fresh key in the last shard (so the abort path also exercises
        // the transaction-created-node tombstone).
        match v {
            Some(x) => txn.set(k, x.wrapping_add(1)),
            None => txn.put(k, round),
        };
        txn.put(KEY_RANGE + round, round);
        let outcome = txn.commit();

        if interfere {
            assert_eq!(
                outcome,
                Err(TxnAborted),
                "{label}: a stale validated read must abort the commit"
            );
        } else {
            let receipt = outcome.unwrap_or_else(|_| {
                panic!("{label}: an undisturbed rw txn must commit (round {round})")
            });
            assert_eq!(receipt.applied_count(), 2, "{label}");
            match v {
                Some(x) => model.insert(k, x.wrapping_add(1)),
                None => model.insert(k, round),
            };
            model.insert(KEY_RANGE + round, round);
        }

        // The pre-commit snapshot re-reads its own (older) timestamp: an
        // aborted transaction's neutralized entries and tombstones must
        // resolve as if the prepare never happened.
        let mut view = Vec::new();
        pre_snap.range(&0, &scan_hi, &mut view);
        assert_eq!(
            view, pre_model,
            "{label}: round {round}: a snapshot fixed before the commit \
             attempt observed an abort artifact"
        );
        drop(pre_snap);

        // And the current state equals the model exactly.
        let now = store.snapshot(2);
        let mut all = Vec::new();
        now.range(&0, &scan_hi, &mut all);
        let expect: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(
            all, expect,
            "{label}: round {round}: post-commit state diverged from the model"
        );
        drop(now);
    }
    assert!(forced > ROUNDS / 4, "{label}: the test must force aborts");
    assert_eq!(
        store.txn_stats().validation_failures,
        forced,
        "{label}: every forced conflict aborted exactly once"
    );
}

#[test]
fn forced_validation_aborts_leave_no_artifacts_skiplist() {
    forced_validation_aborts::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn forced_validation_aborts_leave_no_artifacts_lazylist() {
    forced_validation_aborts::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn forced_validation_aborts_leave_no_artifacts_citrus() {
    forced_validation_aborts::<BundledCitrusTree<u64, u64>>("citrus");
}

/// Store-level covered reads: every `get` below is of a key the same
/// transaction writes, so commit decides it from the staged images.
fn covered_reads<S: ShardBackend<u64, u64>>(label: &str) {
    // tid 0 = the transaction, tid 1 = the interferer.
    let store = BundledStore::<u64, u64, S>::new(2, uniform_splits(2, 200));
    // Neighbours on both sides, so tree nodes have children and list
    // nodes have live predecessors.
    for k in [50u64, 25, 75, 60, 90, 150, 125, 175] {
        store.insert(0, k, k);
    }
    let aborts = |s: &BundledStore<u64, u64, S>| s.txn_stats().validation_failures;

    // get(k) then set(k), a foreign *commit* to k in between: stale.
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&50), Some(50), "{label}");
    assert_eq!(store.apply_txn(1, &[TxnOp::Set(50, 7)]), vec![true]);
    txn.set(50, 51);
    assert_eq!(
        txn.commit().err(),
        Some(TxnAborted),
        "{label}: set after a foreign set"
    );
    assert_eq!(
        store.get(0, &50),
        Some(7),
        "{label}: the foreign value stands"
    );

    // Same shape, the foreign update being remove + re-insert of the very
    // same value: node identity is value identity, still stale.
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&150), Some(150), "{label}");
    assert!(store.remove(1, &150) && store.insert(1, 150, 150));
    txn.set(150, 151);
    assert_eq!(
        txn.commit().err(),
        Some(TxnAborted),
        "{label}: set after remove+insert"
    );
    assert_eq!(store.get(0, &150), Some(150), "{label}");

    // get(k) == None then put(k), a foreign insert in between: stale.
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&40), None, "{label}");
    assert!(store.insert(1, 40, 4));
    txn.put(40, 400);
    assert_eq!(
        txn.commit().err(),
        Some(TxnAborted),
        "{label}: put after a foreign insert"
    );
    assert_eq!(store.get(0, &40), Some(4), "{label}");

    // get(k) then remove(k), a foreign remove in between: stale.
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&75), Some(75), "{label}");
    assert!(store.remove(1, &75));
    txn.remove(&75);
    assert_eq!(
        txn.commit().err(),
        Some(TxnAborted),
        "{label}: remove after a foreign remove"
    );
    assert_eq!(
        aborts(&store),
        4,
        "{label}: each stale covered read aborted once"
    );

    // No interference: the same four shapes commit, on both shards, in
    // one transaction.
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&50), Some(7), "{label}");
    assert_eq!(txn.get(&30), None, "{label}");
    assert_eq!(txn.get(&60), Some(60), "{label}");
    assert_eq!(txn.get(&175), Some(175), "{label}");
    txn.set(50, 8).put(30, 3).remove(&60).set(175, 176);
    let receipt = txn
        .commit()
        .unwrap_or_else(|_| panic!("{label}: undisturbed RMW must commit"));
    assert_eq!(receipt.applied_count(), 4, "{label}");
    assert_eq!(aborts(&store), 4, "{label}");
    let snap = store.snapshot(0);
    let mut all = Vec::new();
    snap.range(&0, &200, &mut all);
    assert_eq!(
        all,
        vec![
            (25, 25),
            (30, 3),
            (40, 4),
            (50, 8),
            (90, 90),
            (125, 125),
            (150, 150),
            (175, 176)
        ],
        "{label}: committed state"
    );
}

#[test]
fn covered_reads_abort_on_foreign_commits_and_commit_otherwise() {
    covered_reads::<BundledSkipList<u64, u64>>("skiplist");
    covered_reads::<BundledLazyList<u64, u64>>("lazylist");
    covered_reads::<BundledCitrusTree<u64, u64>>("citrus");
}

/// Structure-level: a read-modify-write's reads are validated with zero
/// walks (the token counts them), an uncovered read on the same token
/// still walks, and a stale covered read is `Invalidated` without one.
fn covered_rmw_validates_without_a_walk<S: TwoPhase<Key = u64, Value = u64>>() {
    let ctx = RqContext::new(2);
    let s = S::with_context(2, ReclaimMode::Reclaim, &ctx);
    for k in [50u64, 25, 75, 60, 90, 55] {
        s.insert(0, k, k);
    }
    let _pin = s.collector().pin(1);
    let lease = ctx.lease_read(1);
    // Point reads the way the store makes them: the degenerate range.
    let read_at = |ts: u64, k: u64| {
        let (mut out, mut nodes) = (Vec::new(), Vec::new());
        s.txn_range_read(1, ts, &k, &k, &mut out, &mut nodes);
        (out.first().map(|e| e.1), nodes)
    };
    let read = |k: u64| read_at(lease.ts(), k);
    let (r25, r40, r50, r90) = (read(25), read(40), read(50), read(90));
    assert_eq!(
        (r25.0, r40.0, r50.0, r90.0),
        (Some(25), None, Some(50), Some(90))
    );

    // remove 25, insert 40, upsert 50 (remove + put), remove a
    // key that is not there (30): all four shapes of staged image.
    let (_, r30) = read(30);
    let mut cur = s.txn_cursor(s.txn_begin(1));
    assert_eq!(cur.seek_prepare_remove(&25), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&30), Ok(false));
    assert_eq!(cur.seek_prepare_put(40, 400), Ok(true));
    assert_eq!(cur.seek_prepare_remove(&50), Ok(true));
    assert_eq!(cur.seek_prepare_put(50, 51), Ok(true));
    let mut txn = cur.finish();
    for (k, nodes) in [(25, &r25.1), (30, &r30), (40, &r40.1), (50, &r50.1)] {
        assert_eq!(s.txn_validate(&mut txn, &k, &k, nodes), Ok(()), "key {k}");
    }
    assert_eq!(txn.validate_walks(), 0, "covered reads must not walk");
    assert_eq!(s.txn_validate(&mut txn, &90, &90, &r90.1), Ok(()));
    assert_eq!(txn.validate_walks(), 1, "an uncovered read walks");
    // A range is never covered, even one holding only written keys.
    let mut range = r25.1.clone();
    range.extend(&r50.1);
    assert_eq!(s.txn_validate(&mut txn, &20, &52, &range), Ok(()));
    assert_eq!(txn.validate_walks(), 2);
    s.txn_finalize(txn, ctx.advance(1));
    drop(lease);
    let mut scan = Vec::new();
    s.range_query(0, &0, &100, &mut scan);
    assert_eq!(
        scan,
        vec![(40, 400), (50, 51), (55, 55), (60, 60), (75, 75), (90, 90)]
    );

    // Stale covered read: the key changed between the read and
    // the prepare. Decided from the images, still without a walk.
    let lease = ctx.lease_read(1);
    let (v60, nodes) = read_at(lease.ts(), 60);
    assert_eq!(v60, Some(60));
    assert!(s.remove(0, &60) && s.insert(0, 60, 61));
    let mut cur = s.txn_cursor(s.txn_begin(1));
    assert_eq!(cur.seek_prepare_remove(&60), Ok(true));
    let mut txn = cur.finish();
    assert_eq!(
        s.txn_validate(&mut txn, &60, &60, &nodes),
        Err(TxnValidateError::Invalidated)
    );
    assert_eq!(txn.validate_walks(), 0);
    s.txn_abort(txn);
    assert_eq!(s.get(0, &60), Some(61), "aborted remove rolled back");
}

#[test]
fn covered_rmw_walks_nothing_skiplist() {
    covered_rmw_validates_without_a_walk::<BundledSkipList<u64, u64>>();
}

#[test]
fn covered_rmw_walks_nothing_lazylist() {
    covered_rmw_validates_without_a_walk::<BundledLazyList<u64, u64>>();
}

#[test]
fn covered_rmw_walks_nothing_citrus() {
    covered_rmw_validates_without_a_walk::<BundledCitrusTree<u64, u64>>();
}

/// Citrus only: the transaction's *own* two-children remove relocates the
/// successor key into a fresh node. A covered read of that successor
/// recorded the old node — the relocation's staged `pre` image — and must
/// still validate, end to end through the store.
#[test]
fn citrus_covered_read_survives_the_transactions_own_relocation() {
    let store = CitrusStore::<u64, u64>::new(2, vec![]);
    for k in [50u64, 25, 75, 60, 90, 55] {
        store.insert(0, k, k);
    }
    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    assert_eq!(txn.get(&55), Some(55));
    assert_eq!(txn.get(&50), Some(50));
    txn.remove(&50); // two children: relocates 55
    txn.set(55, 56); // and then rewrites the relocated key
    let receipt = txn.commit().expect("own relocation must not invalidate");
    assert_eq!(receipt.applied_count(), 2);
    let mut scan = Vec::new();
    store.range_query(1, &0, &100, &mut scan);
    assert_eq!(scan, vec![(25, 25), (55, 56), (60, 60), (75, 75), (90, 90)]);
    assert_eq!(store.txn_stats().validation_failures, 0);
}
