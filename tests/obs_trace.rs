//! Integration tests for the flight recorder and the store's metrics
//! over the real store pipeline.
//!
//! Four properties, end to end:
//!
//! * a **forced validation abort** (a second session flips a validated
//!   read before commit) snapshots a flight-recorder anomaly whose tail
//!   contains the `abort_invalidated` event itself, and a `run_rw`
//!   that hits the same abort is counted in `store.txn.rw_retries` — on
//!   all three backends;
//! * a non-blocking submission rejected by a full ingest queue
//!   (`try_submit_batch` against a depth-1 lingering queue) snapshots a
//!   `queue_full` anomaly and records the rejection event;
//! * concurrent sessions' primitive ops land **exactly** in the
//!   `store.shard<i>.ops` counter of the shard that owns their key
//!   (nothing double-counted, nothing lost, nothing misrouted);
//! * the `ingest.*` histograms and group events agree with `Ingest::stats`.

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

/// tid 0 = the transaction, tid 1 = the interferer.
fn forced_abort_dumps_anomaly<S: ShardBackend<u64, u64>>(label: &str) {
    let store = obs_store::<S>(2);
    for k in (0..KEY_RANGE).step_by(2) {
        store.insert(0, k, k);
    }
    let trace = Arc::clone(
        store
            .obs_trace()
            .expect("with_obs attaches a flight recorder"),
    );

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

    assert_eq!(trace.anomaly_total(), 1, "{label}");
    let anomalies = trace.anomalies();
    let snap = anomalies
        .iter()
        .find(|a| matches!(a.cause, obs::AnomalyCause::InvalidatedAbort))
        .unwrap_or_else(|| panic!("{label}: abort must snapshot an anomaly"));
    assert_eq!(snap.tid, 0, "{label}: the aborting session's tid");
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == obs::TraceKind::AbortInvalidated && e.tid == 0),
        "{label}: the anomaly tail must contain the abort event itself"
    );
    // The tail also holds the pipeline stages that led up to the abort.
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == obs::TraceKind::StageEnd),
        "{label}: the tail must show pipeline history"
    );
    // Counter and recorder agree on the abort count.
    let metrics = store.obs_snapshot(0).expect("store built with obs");
    assert_eq!(
        metrics.get("store.txn.aborts.invalidated"),
        Some(&obs::SnapshotValue::Counter(1)),
        "{label}"
    );

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
    let metrics = store
        .obs_snapshot(session.tid())
        .expect("store built with obs");
    assert_eq!(
        metrics.get("store.txn.rw_retries"),
        Some(&obs::SnapshotValue::Counter(1)),
        "{label}"
    );
}

#[test]
fn forced_validation_abort_dumps_anomaly_skiplist() {
    forced_abort_dumps_anomaly::<BundledSkipList<u64, u64>>("skiplist");
}

#[test]
fn forced_validation_abort_dumps_anomaly_lazylist() {
    forced_abort_dumps_anomaly::<BundledLazyList<u64, u64>>("lazylist");
}

#[test]
fn forced_validation_abort_dumps_anomaly_citrus() {
    forced_abort_dumps_anomaly::<BundledCitrusTree<u64, u64>>("citrus");
}

#[test]
fn queue_full_rejection_snapshots_an_anomaly() {
    let store = Arc::new(obs_store::<BundledSkipList<u64, u64>>(4));
    // Depth-1 queues and a long linger: the committer sits on the first
    // submission while the burst below fills and overflows the queue.
    let ingest = Ingest::spawn(
        Arc::clone(&store),
        IngestConfig {
            committers: 1,
            max_queue_depth: 1,
            linger: Duration::from_millis(200),
            ..IngestConfig::default()
        },
    );
    let mut tickets = Vec::new();
    let mut rejected = None;
    for i in 0..10_000u64 {
        match ingest.try_submit_batch(vec![TxnOp::Put(i % KEY_RANGE, i)]) {
            Ok(t) => tickets.push(t),
            Err(qf) => {
                rejected = Some(qf);
                break;
            }
        }
    }
    let qf = rejected.expect("a depth-1 lingering queue must reject a burst");
    assert_eq!(qf.ops.len(), 1, "the rejected batch comes back whole");

    let trace = store
        .obs_trace()
        .expect("with_obs attaches a flight recorder");
    assert!(
        trace
            .anomalies()
            .iter()
            .any(|a| matches!(a.cause, obs::AnomalyCause::QueueFull)),
        "the rejection must snapshot a queue_full anomaly"
    );
    assert!(
        trace
            .dump()
            .iter()
            .any(|e| e.kind == obs::TraceKind::QueueFull),
        "the rejection event itself must be in the ring"
    );
    ingest.flush();
    for t in tickets {
        t.wait();
    }
    ingest.shutdown();
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
    let metrics = store.obs_snapshot(0).expect("store built with obs");
    let mut counted = 0;
    for (shard, &want) in expected.iter().enumerate() {
        let name = format!("store.shard{shard}.ops");
        match metrics.get(&name) {
            Some(&obs::SnapshotValue::Counter(got)) => {
                assert_eq!(got, want, "{name}: ops whose key maps to shard {shard}");
                counted += got;
            }
            other => panic!("{name} missing or mistyped: {other:?}"),
        }
    }
    assert_eq!(
        counted,
        THREADS as u64 * OPS_PER_THREAD,
        "every op counted once"
    );
}

#[test]
fn ingest_histograms_and_events_account_every_submission() {
    let store = Arc::new(obs_store::<BundledSkipList<u64, u64>>(2));
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
    assert_eq!(h("ingest.ticket_wait_ns").count, 200, "one wait per ticket");
    assert_eq!(h("ingest.queue_depth").sum, 200, "drained once each");
    let groups = h("ingest.group_size");
    assert_eq!((groups.count, groups.sum), (stats.groups, stats.ops));
    assert_eq!(reg.counter("store.txn.commits").value(), stats.groups);
    let events = store.obs_trace().expect("with_obs traces").dump();
    let published = events
        .iter()
        .filter(|e| e.kind == obs::TraceKind::GroupPublish);
    assert_eq!(published.map(|e| e.payload).sum::<u64>(), stats.ops);
}
