//! A warm session runs a small read-write transaction almost entirely on
//! memory it already owns: tokens, cursor spine, read set, write set,
//! commit plan and snapshot buffers are reused, and what is left is what
//! the transaction *creates* — a node and a spilled bundle head per
//! written key, and the receipt. A counting global allocator pins that,
//! per thread, so the tests of this binary do not disturb each other.
//!
//! The transaction is the benchmark's `txn_contended` transfer: 4 `get`,
//! one 16-key `range`, 4 `set`, `commit`, on a 4-shard Citrus store.
//! Metrics add nothing to it: on every backend, a store built `with_obs`
//! allocates exactly what a plain one does per transfer.

mod common;

use std::sync::Arc;

use bundled_refs::citrus::BundledCitrusTree;
use bundled_refs::ebr::ReclaimMode;
use bundled_refs::lazylist::BundledLazyList;
use bundled_refs::obs::MetricsRegistry;
use bundled_refs::skiplist::BundledSkipList;
use bundled_refs::store::{
    uniform_splits, BundledStore, CitrusStore, ShardBackend, TxnAborted, TxnOp,
};
use bundled_refs::txn::StoreTxnExt;
use common::allocs_in;

const KEY_RANGE: u64 = 4_000;
const HOT: u64 = 40;

fn store() -> Arc<CitrusStore<u64, u64>> {
    store_on(None)
}

/// A prefilled 4-shard store over `S`; `registry` builds it `with_obs`.
fn store_on<S: ShardBackend<u64, u64>>(
    registry: Option<&MetricsRegistry>,
) -> Arc<BundledStore<u64, u64, S>> {
    let (mode, splits) = (ReclaimMode::Reclaim, uniform_splits(4, KEY_RANGE));
    let store = Arc::new(match registry {
        Some(r) => BundledStore::with_obs(3, mode, splits, r),
        None => BundledStore::with_mode(3, mode, splits),
    });
    let h = store.register();
    // Every fourth key, inserted in a scattered order (a sorted prefill
    // would make the tree a list).
    for i in 0..KEY_RANGE / 4 {
        let k = (i * 389) % (KEY_RANGE / 4) * 4;
        h.insert(k, 1_000);
    }
    store
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Four distinct hot keys (spread over the shards) and a range start.
fn draw(seed: &mut u64) -> ([u64; 4], u64) {
    let mut keys = [0u64; 4];
    let mut n = 0;
    while n < 4 {
        let k = xorshift(seed) % (KEY_RANGE / HOT) * HOT;
        if !keys[..n].contains(&k) {
            keys[n] = k;
            n += 1;
        }
    }
    (keys, xorshift(seed) % (KEY_RANGE - 64))
}

/// The reads and stagings of one transfer; the caller commits.
fn transfer_body<'a, S>(
    txn: &mut bundled_refs::txn::ReadWriteTxn<'a, u64, u64, S>,
    keys: &[u64; 4],
    range_low: u64,
    out: &mut Vec<(u64, u64)>,
) where
    S: bundled_refs::store::ShardBackend<u64, u64>,
{
    let mut balances = [0u64; 4];
    for (b, k) in balances.iter_mut().zip(keys) {
        *b = txn.get(k).expect("hot keys are prefilled");
    }
    txn.range(&range_low, &(range_low + 63), out);
    txn.set(keys[0], balances[0].wrapping_sub(1))
        .set(keys[1], balances[1].wrapping_add(1))
        .set(keys[2], balances[2].wrapping_sub(1))
        .set(keys[3], balances[3].wrapping_add(1));
}

#[test]
fn a_warm_transfer_allocates_only_what_it_creates() {
    const WARM_UP: usize = 200;
    const MEASURED: u64 = 400;
    let store = store();
    let h = store.register();
    let mut seed = 0x5eed_0001_u64;
    let mut out = Vec::with_capacity(64);
    let mut run = |seed: &mut u64| {
        let (keys, low) = draw(seed);
        let mut txn = h.rw_txn();
        transfer_body(&mut txn, &keys, low, &mut out);
        let receipt = txn.commit().expect("single-threaded: nothing interferes");
        assert_eq!(receipt.applied.len(), 4);
    };
    // Warm-up: every reused buffer reaches its high-water capacity, every
    // hot key has become a leaf again (a `set` re-inserts its key).
    for _ in 0..WARM_UP {
        run(&mut seed);
    }
    let (allocs, ()) = allocs_in(|| {
        for _ in 0..MEASURED {
            run(&mut seed);
        }
    });
    let per_txn = allocs as f64 / MEASURED as f64;
    println!("allocations per warm transfer: {per_txn:.1}");
    // Inherent: 4 nodes + 4 spilled bundle heads + the receipt = 9, plus
    // the odd two-children remove and EBR bag growth. 92.8 on this tape
    // before the tokens, sets and buffers were kept warm.
    assert!(
        per_txn <= 16.0,
        "a warm transfer allocated {per_txn:.1} times: some per-transaction \
         buffer is rebuilt again instead of reused"
    );
}

/// The allocations of each of 200 warm transfers.
fn transfer_allocs<S: ShardBackend<u64, u64>>(registry: Option<&MetricsRegistry>) -> Vec<u64> {
    let store = store_on::<S>(registry);
    let h = store.register();
    let mut seed = 0x5eed_0003_u64;
    let mut out = Vec::with_capacity(64);
    let mut run = |seed: &mut u64| {
        let (keys, low) = draw(seed);
        let mut txn = h.rw_txn();
        transfer_body(&mut txn, &keys, low, &mut out);
        txn.commit().expect("single-threaded: nothing interferes");
    };
    (0..100).for_each(|_| run(&mut seed));
    (0..200).map(|_| allocs_in(|| run(&mut seed)).0).collect()
}

fn metrics_add_no_allocation<S: ShardBackend<u64, u64>>() {
    let plain = transfer_allocs::<S>(None);
    let observed = transfer_allocs::<S>(Some(&MetricsRegistry::new()));
    assert_eq!(observed, plain);
}

#[test]
fn a_warm_transfer_allocates_the_same_with_metrics_skiplist() {
    metrics_add_no_allocation::<BundledSkipList<u64, u64>>();
}

#[test]
fn a_warm_transfer_allocates_the_same_with_metrics_lazylist() {
    metrics_add_no_allocation::<BundledLazyList<u64, u64>>();
}

#[test]
fn a_warm_transfer_allocates_the_same_with_metrics_citrus() {
    metrics_add_no_allocation::<BundledCitrusTree<u64, u64>>();
}

#[test]
fn an_aborted_attempt_allocates_no_more_than_a_committed_one() {
    const ROUNDS: u64 = 200;
    let store = store();
    let (h, other) = (store.register(), store.register());
    let mut seed = 0x5eed_0002_u64;
    let mut out = Vec::with_capacity(64);
    let (mut committed, mut aborted) = (0u64, 0u64);
    for round in 0..2 * ROUNDS {
        let (keys, low) = draw(&mut seed);
        let mut txn = h.rw_txn();
        let (body, ()) = allocs_in(|| transfer_body(&mut txn, &keys, low, &mut out));
        let interfere = round % 2 == 1;
        if interfere {
            // Not counted: a foreign commit to a read key.
            assert!(other.remove(&keys[2]));
            assert!(other.insert(keys[2], round));
        }
        let (commit, outcome) = allocs_in(|| txn.commit());
        assert_eq!(outcome.is_err(), interfere, "round {round}");
        if round < ROUNDS {
            continue; // warm-up, both paths
        }
        match outcome {
            Ok(_) => committed += body + commit,
            Err(TxnAborted) => aborted += body + commit,
        }
    }
    println!(
        "allocations per attempt: committed {:.1}, aborted {:.1}",
        committed as f64 / (ROUNDS / 2) as f64,
        aborted as f64 / (ROUNDS / 2) as f64
    );
    assert!(
        aborted <= committed,
        "aborted attempts allocated {aborted} times against {committed} for \
         as many committed ones: the abort path drops a warm buffer"
    );
}

/// Allocations per warm 1024-op group of `Set`s of present keys on a
/// 4-shard store over `S`, the group's keys `spread` keys apart: every key
/// is present, those off the groups' four residues from a scattered
/// prefill (a sorted one would make the tree a list).
fn group_allocs<S: ShardBackend<u64, u64>>(spread: u64) -> f64 {
    const GROUP: u64 = 1024;
    const GROUPS: u64 = 8;
    let range = GROUP * spread;
    let store = Arc::new(BundledStore::<u64, u64, S>::new(
        2,
        uniform_splits(4, range),
    ));
    let h = store.register();
    for i in 0..range {
        let k = i * 389 % range;
        if k % spread >= 4 {
            h.insert(k, 0);
        }
    }
    let group = |round: u64| -> Vec<TxnOp<u64, u64>> {
        (0..GROUP)
            .map(|i| TxnOp::Set(i * spread + round % 4, round))
            .collect()
    };
    for round in 0..4 {
        assert_eq!(h.apply_grouped(&group(round)).applied.len() as u64, GROUP);
    }
    let mut allocs = 0;
    for round in 4..4 + GROUPS {
        let ops = group(round);
        allocs += allocs_in(|| h.apply_grouped(&ops)).0;
    }
    allocs as f64 / GROUPS as f64
}

#[test]
fn a_1024_op_group_allocates_no_more_than_it_used_to() {
    let per_group = group_allocs::<BundledCitrusTree<u64, u64>>(4);
    println!("allocations per 1024-op group (citrus): {per_group:.1}");
    // What the ops create (a `Set` of a present key: nodes, spilled
    // bundle heads) is 4096 a group here. On top of that the pipeline's own
    // bookkeeping cost 297 allocations a group (4393.0 in all) when every
    // token, map and plan was built per call; warm it is ~10.
    assert!(
        per_group <= 4393.0,
        "a 1024-op group allocated {per_group:.1} times: more than when \
         nothing was reused"
    );
    // The skip list's count is exact: a `Set` of a present key creates a
    // node and spills its predecessor's bundle head (the re-insert restages
    // that head in place), 2048 a group, and the pipeline adds 6. Its keys
    // are 32 nodes apart, sparse enough that the cursors plan them, so a
    // per-group buffer, such as planned positions kept anywhere but the
    // warm token, shows up here.
    let per_group = group_allocs::<BundledSkipList<u64, u64>>(32);
    println!("allocations per 1024-op group (skiplist): {per_group:.1}");
    assert!(
        per_group <= 2054.0,
        "a 1024-op skip-list group allocated {per_group:.1} times: some \
         per-group buffer is rebuilt instead of reused"
    );
}
