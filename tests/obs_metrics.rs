//! Integration tests for the store's and the ingest front-end's metrics
//! over the real pipeline.
//!
//! Six properties, end to end:
//!
//! * a **forced validation abort** (a second session flips a validated
//!   read before commit) is counted in `store.txn.aborts.invalidated`,
//!   and a `run_rw` that hits the same abort is counted in
//!   `store.txn.rw_retries` — on all three backends;
//! * an instrumented store returns exactly what a plain one returns for
//!   the same script of primitives, batches, groups and read-write
//!   transactions, commit timestamps included — on all three backends;
//! * a non-blocking submission rejected by a full ingest queue
//!   (`try_submit_batch` against a depth-1 lingering queue) comes back
//!   whole, and every admitted ticket still resolves — on all three
//!   backends;
//! * concurrent sessions' primitive ops land **exactly** in the
//!   `store.shard<i>.ops` counter of the shard that owns their key
//!   (nothing double-counted, nothing lost, nothing misrouted);
//! * the `ingest.*` histograms agree with `Ingest::stats` — on all three
//!   backends;
//! * an ingest front-end over a store built on an inert registry commits
//!   everything and snapshots nothing.

use std::sync::Arc;
use std::time::Duration;

use bundled_refs::obs;
use bundled_refs::prelude::*;
use bundled_refs::txn::ReadWriteTxn;

const SHARDS: usize = 4;
const KEY_RANGE: u64 = 1_000;

fn obs_store<S>(slots: usize) -> BundledStore<u64, u64, S>
where
    S: ShardBackend<u64, u64>,
{
    BundledStore::<u64, u64, S>::with_obs(
        slots,
        ReclaimMode::Reclaim,
        uniform_splits(SHARDS, KEY_RANGE),
        &MetricsRegistry::new(),
    )
}

fn counter<S: ShardBackend<u64, u64>>(store: &BundledStore<u64, u64, S>, name: &str) -> u64 {
    let snap = store.obs_snapshot(0).expect("store built with obs");
    match snap.get(name) {
        Some(&obs::SnapshotValue::Counter(c)) => c,
        other => panic!("{name} missing or mistyped: {other:?}"),
    }
}

/// tid 0 = the transaction, tid 1 = the interferer.
fn forced_abort_is_counted<S: ShardBackend<u64, u64>>(label: &str) {
    let store = obs_store::<S>(2);
    for k in (0..KEY_RANGE).step_by(2) {
        store.insert(0, k, k);
    }

    let mut txn = ReadWriteTxn::with_tid(&store, 0);
    let v = txn
        .get(&2)
        .unwrap_or_else(|| panic!("{label}: prefilled key"));
    // Flip the validated read through another session before the commit.
    assert!(store.remove(1, &2), "{label}");
    txn.set(2, v.wrapping_add(1));
    assert_eq!(
        txn.commit(),
        Err(TxnAborted),
        "{label}: a stale validated read must abort"
    );
    assert_eq!(
        counter(&store, "store.txn.aborts.invalidated"),
        1,
        "{label}"
    );
    assert_eq!(counter(&store, "store.txn.commits"), 0, "{label}");

    // `run_rw` re-runs its closure after such an abort and counts the
    // re-run as an application-visible retry (`store.txn.rw_retries`).
    let store = Arc::new(store);
    let session = store.register();
    let mut attempts = 0;
    session.run_rw(|txn| {
        attempts += 1;
        let v = txn.get(&4).unwrap_or(0);
        if attempts == 1 {
            assert!(store.remove(1, &4), "{label}");
        }
        txn.set(4, v.wrapping_add(1));
    });
    assert_eq!(attempts, 2, "{label}: one abort, one clean re-run");
    assert_eq!(counter(&store, "store.txn.rw_retries"), 1, "{label}");
    assert_eq!(
        counter(&store, "store.txn.aborts.invalidated"),
        2,
        "{label}"
    );
    assert_eq!(counter(&store, "store.txn.commits"), 1, "{label}");
}

#[test]
fn forced_validation_abort_is_counted_skiplist() {
    forced_abort_is_counted::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn forced_validation_abort_is_counted_lazylist() {
    forced_abort_is_counted::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn forced_validation_abort_is_counted_citrus() {
    forced_abort_is_counted::<BundledCitrusTree<u64, u64>>("citrus");
}

/// Every outcome of one deterministic single-session script.
#[derive(Debug, PartialEq)]
struct Transcript {
    primitives: Vec<bool>,
    batches: Vec<Vec<bool>>,
    groups: Vec<GroupReceipt>,
    rw: Vec<TxnReceipt<u64>>,
    scans: Vec<Vec<(u64, u64)>>,
    stats: TxnStats,
}

fn run_script<S: ShardBackend<u64, u64>>(store: &BundledStore<u64, u64, S>) -> Transcript {
    let mut t = Transcript {
        primitives: Vec::new(),
        batches: Vec::new(),
        groups: Vec::new(),
        rw: Vec::new(),
        scans: Vec::new(),
        stats: TxnStats::default(),
    };
    for round in 0..40u64 {
        let k = round * 37 % KEY_RANGE;
        t.primitives.push(store.insert(0, k, round));
        t.primitives.push(store.insert(0, k, round));
        t.primitives.push(store.remove(0, &(k / 2)));
        t.batches.push(store.apply_txn(
            0,
            &[
                TxnOp::Set(k, round + 1),
                TxnOp::Put((k + 500) % KEY_RANGE, round),
                TxnOp::Remove((k + 250) % KEY_RANGE),
            ],
        ));
        let mut group: Vec<_> = (0..8).map(|i| (round * 11 + i * 113) % KEY_RANGE).collect();
        group.sort_unstable();
        group.dedup();
        let ops: Vec<_> = group.iter().map(|&k| TxnOp::Set(k, round)).collect();
        t.groups.push(store.apply_grouped(0, &ops));
        let mut txn = ReadWriteTxn::with_tid(store, 0);
        let v = txn.get(&k).unwrap_or(0);
        let mut out = Vec::new();
        txn.range(&k, &(k + 60), &mut out);
        txn.set(k, v + out.len() as u64);
        t.rw.push(txn.commit().expect("one session: nothing interferes"));
        t.scans.push(store.range_query_vec(0, &0, &KEY_RANGE));
    }
    t.stats = store.txn_stats();
    t
}

fn metrics_change_no_outcome<S: ShardBackend<u64, u64>>(label: &str) {
    let plain = BundledStore::<u64, u64, S>::new(1, uniform_splits(SHARDS, KEY_RANGE));
    let observed = obs_store::<S>(1);
    let (want, got) = (run_script(&plain), run_script(&observed));
    assert_eq!(got, want, "{label}");
    assert_eq!(counter(&observed, "store.txn.commits"), want.stats.commits);
}

#[test]
fn metrics_change_no_outcome_skiplist() {
    metrics_change_no_outcome::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn metrics_change_no_outcome_lazylist() {
    metrics_change_no_outcome::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn metrics_change_no_outcome_citrus() {
    metrics_change_no_outcome::<BundledCitrusTree<u64, u64>>("citrus");
}

fn queue_full_rejection_hands_the_batch_back<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    let store = Arc::new(obs_store::<S>(4));
    // Depth-1 queues and a long linger: the committer sits on the first
    // submission while the burst below fills and overflows the queue.
    let ingest = Ingest::spawn(
        Arc::clone(&store),
        IngestConfig {
            committers: 1,
            max_queue_depth: 1,
            linger: Duration::from_millis(200),
        },
    );
    let mut tickets = Vec::new();
    let mut rejected = None;
    for i in 0..KEY_RANGE {
        match ingest.try_submit_batch(vec![TxnOp::Put(i, i), TxnOp::Put(i + 1, i)]) {
            Ok(t) => tickets.push(t),
            Err(qf) => {
                rejected = Some((i, qf));
                break;
            }
        }
    }
    let (i, qf) = rejected.expect("a depth-1 lingering queue must reject a burst");
    assert_eq!(
        qf.ops,
        vec![TxnOp::Put(i, i), TxnOp::Put(i + 1, i)],
        "{label}: the rejected batch comes back whole"
    );
    ingest.flush();
    let admitted = tickets.len() as u64;
    for t in tickets {
        assert_eq!(t.wait().applied.len(), 2, "{label}");
    }
    assert_eq!(ingest.stats().submissions, admitted, "{label}");
    ingest.shutdown();
    let reg = store.obs_registry().expect("store built with obs");
    let waits = reg.histogram("ingest.ticket_wait_ns").summary().count;
    assert_eq!(waits, admitted, "{label}: one wait per admitted ticket");
}

#[test]
fn queue_full_rejection_hands_the_batch_back_skiplist() {
    queue_full_rejection_hands_the_batch_back::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn queue_full_rejection_hands_the_batch_back_lazylist() {
    queue_full_rejection_hands_the_batch_back::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn queue_full_rejection_hands_the_batch_back_citrus() {
    queue_full_rejection_hands_the_batch_back::<BundledCitrusTree<u64, u64>>("citrus");
}

#[test]
fn shard_op_counters_account_every_op_exactly_once() {
    const THREADS: usize = 2;
    const OPS_PER_THREAD: u64 = 20_000;
    // Thread `w`'s `i`-th op: an insert on even `i`, a get on odd `i`.
    // Its key strides over the lowest `1 + i % 4` quarters of the
    // keyspace, so every shard sees a different count and an op
    // credited to the wrong shard cannot cancel out.
    let key = |w: u64, i: u64| (w * 7 + i * 13) % (KEY_RANGE / 4 * (1 + i % 4));
    let store = Arc::new(obs_store::<BundledSkipList<u64, u64>>(THREADS));
    let workers: Vec<_> = (0..THREADS as u64)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let handle = store.register();
                for i in 0..OPS_PER_THREAD {
                    if i % 2 == 0 {
                        handle.insert(key(w, i), i);
                    } else {
                        let _ = handle.get(&key(w, i));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    let mut expected = [0u64; SHARDS];
    for w in 0..THREADS as u64 {
        for i in 0..OPS_PER_THREAD {
            expected[store.shard_of(&key(w, i))] += 1;
        }
    }
    assert!(
        expected[SHARDS - 1] > 0 && expected.windows(2).all(|p| p[0] > p[1]),
        "the sequence must touch every shard, each a different number of times: {expected:?}"
    );
    let mut counted = 0;
    for (shard, &want) in expected.iter().enumerate() {
        let got = counter(&store, &format!("store.shard{shard}.ops"));
        assert_eq!(got, want, "ops whose key maps to shard {shard}");
        counted += got;
    }
    assert_eq!(
        counted,
        THREADS as u64 * OPS_PER_THREAD,
        "every op counted once"
    );
}

fn ingest_histograms_account_every_submission<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    let store = Arc::new(obs_store::<S>(2));
    let config = IngestConfig {
        committers: 1,
        ..IngestConfig::default()
    };
    let ingest = Ingest::spawn(Arc::clone(&store), config);
    let tickets: Vec<_> = (0..200)
        .map(|i| ingest.submit_batch(vec![TxnOp::Put(i, i); 1 + i as usize % 3]))
        .collect();
    tickets.into_iter().for_each(|t| drop(t.wait()));
    ingest.flush();
    let stats = ingest.stats();
    ingest.shutdown();
    let reg = store.obs_registry().expect("store built with obs");
    let h = |name: &str| reg.histogram(name).summary();
    assert_eq!(
        h("ingest.ticket_wait_ns").count,
        200,
        "{label}: one wait per ticket"
    );
    assert_eq!(
        h("ingest.queue_depth").sum,
        200,
        "{label}: drained once each"
    );
    let groups = h("ingest.group_size");
    assert_eq!(
        (groups.count, groups.sum),
        (stats.groups, stats.ops),
        "{label}"
    );
    assert_eq!(
        h("ingest.linger_occupancy_pct").count,
        stats.groups,
        "{label}"
    );
    assert_eq!(
        reg.counter("store.txn.commits").value(),
        stats.groups,
        "{label}"
    );
}

#[test]
fn ingest_histograms_account_every_submission_skiplist() {
    ingest_histograms_account_every_submission::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn ingest_histograms_account_every_submission_lazylist() {
    ingest_histograms_account_every_submission::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn ingest_histograms_account_every_submission_citrus() {
    ingest_histograms_account_every_submission::<BundledCitrusTree<u64, u64>>("citrus");
}

#[test]
fn ingest_over_an_inert_registry_commits_everything_and_snapshots_nothing() {
    let store = Arc::new(SkipListStore::<u64, u64>::with_obs(
        2,
        ReclaimMode::Reclaim,
        uniform_splits(SHARDS, KEY_RANGE),
        &MetricsRegistry::disabled(),
    ));
    let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
    let tickets = ingest.submit_all((0..100).map(|k| TxnOp::Put(k * 7, k)));
    for t in tickets {
        assert_eq!(t.wait().applied, vec![true]);
    }
    ingest.shutdown();
    assert_eq!(store.register().len(), 100);
    assert!(store.obs_snapshot(0).unwrap().entries.is_empty());
}
