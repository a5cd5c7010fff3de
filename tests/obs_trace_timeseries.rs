//! Integration tests for the obs v2 flight recorder and time-series
//! sampler over the real store pipeline.
//!
//! Three properties, end to end:
//!
//! * a **forced validation abort** (a second session flips a validated
//!   read before commit) snapshots a flight-recorder anomaly whose tail
//!   contains the `abort_invalidated` event itself, and a `run_rw`
//!   that hits the same abort is counted in `store.txn.rw_retries` — on
//!   all three backends;
//! * a non-blocking submission rejected by a full ingest queue
//!   (`try_submit_batch` against a depth-1 lingering queue) snapshots a
//!   `queue_full` anomaly and records the rejection event;
//! * a background [`obs::TimeseriesSampler`] over a live multi-threaded
//!   store emits windows whose per-shard op deltas **sum exactly** to
//!   the final `store.shard<i>.ops` counters (nothing double-counted,
//!   nothing lost between windows).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
fn window_shard_deltas_reconcile_with_final_counters() {
    const THREADS: usize = 2;
    // Reserved slot `THREADS` is the sampler's dedicated tid.
    let store = Arc::new(obs_store::<BundledSkipList<u64, u64>>(THREADS + 1));
    let st = Arc::clone(&store);
    let sampler = obs::TimeseriesSampler::spawn(Duration::from_millis(10), 512, move || {
        st.obs_snapshot(THREADS).expect("store built with obs")
    });

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let handle = store.register();
                let mut k = w as u64;
                while !stop.load(Ordering::Relaxed) {
                    handle.insert(k % KEY_RANGE, k);
                    let _ = handle.get(&((k + 7) % KEY_RANGE));
                    k = k.wrapping_add(13);
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_millis(80);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }

    assert_eq!(sampler.dropped(), 0, "512-slot ring must not evict");
    let windows = sampler.stop();
    assert!(
        windows.len() >= 3,
        "an 80ms run at 10ms cadence must emit at least 3 windows, got {}",
        windows.len()
    );
    // Windows are consecutive and internally consistent.
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index, i as u64);
        assert_eq!(
            w.skew.total_ops,
            w.shard_ops.iter().sum::<u64>(),
            "window {i}: skew totals must match the shard vector"
        );
    }
    // The reconciliation: per-shard window deltas sum exactly to the
    // final counters — the sampler's base snapshot predates every op and
    // its final partial window closed after the last one.
    let finals = store.obs_snapshot(0).expect("store built with obs");
    for shard in 0..SHARDS {
        let summed: u64 = windows
            .iter()
            .map(|w| w.shard_ops.get(shard).copied().unwrap_or(0))
            .sum();
        let name = format!("store.shard{shard}.ops");
        match finals.get(&name) {
            Some(&obs::SnapshotValue::Counter(total)) => assert_eq!(
                summed, total,
                "shard {shard}: window deltas must sum to the final counter"
            ),
            other => panic!("{name} missing or mistyped: {other:?}"),
        }
    }
}
