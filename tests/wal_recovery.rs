//! End-to-end crash-recovery: a store with an attached [`GroupWal`]
//! commits known groups through the real pipeline, the log is cut at an
//! arbitrary byte boundary (simulating a crash mid-write), and
//! [`WalRecovery::replay`] rebuilds a fresh store that must equal a
//! plain decode-and-fold of the surviving log prefix — on every backend.
//! The last two tests drive the log the way production does — concurrent
//! producers through [`Ingest`] — and hold the recovered store against
//! what each producer was *acknowledged*.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use bundled_refs::obs;
use bundled_refs::prelude::*;
use bundled_refs::store::{uniform_splits, BundledStore, CommitLog, ShardBackend, TxnOp};
use bundled_refs::wal::{LogPosition, WalRecovery};

const KEY_RANGE: u64 = 1024;
const SHARDS: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wal-int-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic op mix: group `g` touches keys spread over every shard,
/// mixing fresh puts, upserts, duplicate puts and removes so the logged
/// outcome flags carry real information.
fn group_ops(g: u64) -> Vec<TxnOp<u64, u64>> {
    let base = (g * 37) % (KEY_RANGE / 2);
    vec![
        TxnOp::Put(base, g),
        TxnOp::Set(base + 200, g * 10),
        TxnOp::Put(base + 400, g + 1),
        TxnOp::Remove((g * 53) % KEY_RANGE),
    ]
}

/// Run `groups` commits through a WAL-attached store, then return the
/// log dir and the final durable position.
fn write_log<S>(dir: &PathBuf, groups: u64) -> LogPosition
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    let splits = uniform_splits(SHARDS, KEY_RANGE);
    let mut store = BundledStore::<u64, u64, S>::new(2, splits);
    let wal = Arc::new(GroupWal::<u64, u64>::create(dir, SyncPolicy::Always).expect("create"));
    store.attach_commit_log(Arc::clone(&wal) as Arc<dyn CommitLog<u64, u64>>);
    let store = Arc::new(store);
    let handle = store.register();
    for g in 0..groups {
        let mut ops = group_ops(g);
        ops.sort_by_key(|op| *op.key());
        ops.dedup_by(|a, b| a.key() == b.key());
        handle.apply_grouped(&ops);
    }
    wal.durable_position()
}

/// Fold one op and its recorded outcome into a model map: `Set` always
/// lands, `Put`/`Remove` only when the outcome says they applied.
fn fold_op(state: &mut BTreeMap<u64, u64>, op: &TxnOp<u64, u64>, applied: bool) {
    match op {
        TxnOp::Put(k, v) if applied => {
            state.insert(*k, *v);
        }
        TxnOp::Set(k, v) => {
            state.insert(*k, *v);
        }
        TxnOp::Remove(k) if applied => {
            state.remove(k);
        }
        _ => {}
    }
}

/// Fold the decoded log into the expected final map.
fn fold_log(dir: &PathBuf) -> BTreeMap<u64, u64> {
    let decoded = WalRecovery::scan::<u64, u64>(dir).expect("scan");
    let mut state = BTreeMap::new();
    for record in &decoded.records {
        for gop in &record.ops {
            fold_op(&mut state, &gop.op, gop.applied);
        }
    }
    state
}

/// Replay the (possibly cut) log into a fresh store and return its full
/// contents.
fn replay_state<S>(dir: &PathBuf) -> BTreeMap<u64, u64>
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    let splits = uniform_splits(SHARDS, KEY_RANGE);
    let store = Arc::new(BundledStore::<u64, u64, S>::new(2, splits));
    WalRecovery::replay(dir, &store).expect("replay");
    let handle = store.register();
    handle.range_query_vec(&0, &u64::MAX).into_iter().collect()
}

/// Clean replay (no cut): the recovered store equals the decode-fold and
/// replays every group, on every backend.
#[test]
fn clean_replay_matches_fold_on_every_backend() {
    fn check<S>(tag: &str)
    where
        S: ShardBackend<u64, u64> + Send + Sync + 'static,
    {
        let dir = tmpdir(tag);
        write_log::<S>(&dir, 40);
        let recovered = replay_state::<S>(&dir);
        let expected = fold_log(&dir);
        assert_eq!(recovered, expected, "{tag}: recovered != decode-fold");
        assert!(!recovered.is_empty(), "{tag}: writes survived");
        let _ = std::fs::remove_dir_all(&dir);
    }
    check::<BundledSkipList<u64, u64>>("clean-skiplist");
    check::<BundledCitrusTree<u64, u64>>("clean-citrus");
    check::<BundledLazyList<u64, u64>>("clean-list");
}

/// Cut the log at every byte boundary of its tail region: whatever
/// survives must decode to a group-aligned prefix and the replayed store
/// must equal its fold — a crash at any byte is recoverable.
#[test]
fn cut_at_every_byte_boundary_recovers_a_group_prefix() {
    type S = BundledSkipList<u64, u64>;
    let dir = tmpdir("sweep");
    let durable = write_log::<S>(&dir, 12);
    let full = std::fs::read(
        std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path(),
    )
    .expect("read segment");
    assert_eq!(full.len() as u64, durable.bytes);
    let full_groups = WalRecovery::scan::<u64, u64>(&dir)
        .expect("scan")
        .stats
        .groups;
    assert_eq!(full_groups, 12);
    // Sweep the last few frames byte-by-byte (the whole file would be
    // slow for no extra coverage — every tear class appears in the tail).
    let start = full.len().saturating_sub(200);
    let seg_path = wal_segment_path(&dir, durable.segment);
    for cut in (start..=full.len()).rev() {
        std::fs::write(&seg_path, &full[..cut]).expect("rewrite");
        let outcome = WalRecovery::scan::<u64, u64>(&dir).expect("scan cut");
        assert!(
            outcome.stats.groups <= full_groups,
            "cut {cut}: groups grew"
        );
        let recovered = replay_state::<S>(&dir);
        let expected = fold_log(&dir);
        assert_eq!(recovered, expected, "cut at byte {cut}: replay != fold");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `WalRecovery::cut` at a sampled durable position plus torn bytes:
/// replay on every backend equals the fold of the surviving prefix, and
/// the prefix is exactly the groups durable at the sample.
#[test]
fn kill_point_recovery_on_every_backend() {
    fn check<S>(tag: &str)
    where
        S: ShardBackend<u64, u64> + Send + Sync + 'static,
    {
        let dir = tmpdir(tag);
        let durable = write_log::<S>(&dir, 20);
        // Re-open and append 5 more groups WITHOUT syncing (policy Off):
        // they are past the sampled durable position.
        {
            let wal = GroupWal::<u64, u64>::open(&dir, SyncPolicy::Off).expect("open");
            for g in 100..105u64 {
                let mut ops = group_ops(g);
                ops.sort_by_key(|op| *op.key());
                ops.dedup_by(|a, b| a.key() == b.key());
                let order: Vec<usize> = (0..ops.len()).collect();
                let applied = vec![true; ops.len()];
                wal.log_group(0, g, &ops, &order, &applied, &[0]);
            }
        }
        // Crash: drop everything past the durable sample except 7 torn
        // bytes of the next frame.
        WalRecovery::cut(&dir, durable, 7).expect("cut");
        let outcome = WalRecovery::scan::<u64, u64>(&dir).expect("scan");
        assert_eq!(outcome.stats.groups, 20, "{tag}: durable groups survive");
        assert_eq!(outcome.stats.truncated_bytes, 7, "{tag}: torn tail cut");
        let recovered = replay_state::<S>(&dir);
        assert_eq!(recovered, fold_log(&dir), "{tag}: replay != fold");
        let _ = std::fs::remove_dir_all(&dir);
    }
    check::<BundledSkipList<u64, u64>>("kill-skiplist");
    check::<BundledCitrusTree<u64, u64>>("kill-citrus");
    check::<BundledLazyList<u64, u64>>("kill-list");
}

/// Concurrent producers through `Ingest` over a `GroupWal`, a simulated
/// kill at the sampled durable position, replay, and three checks
/// against the producers' journals of *acknowledged* outcomes.
///
/// * **A** — replay through the real pipeline equals a decode-and-fold
///   of the cut log.
/// * **B** — every key's recovered value is the fold of some prefix of
///   that key's acked journal (keys are striped per producer, so a
///   producer's journal is the total history of its keys), and no key
///   appears that was never acked.
/// * **C** (`Always` only) — nothing acknowledged is lost: the recovered
///   store equals the fold of every journal in full.
///
/// The stores and the log share one metrics registry, so the run also
/// pins the `wal.*` instrument family end to end.
fn concurrent_ingest_recovery<S>(tag: &str, policy: SyncPolicy)
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    const PRODUCERS: u64 = 2;
    const BATCHES: usize = 40;
    const BATCH: usize = 8;
    // 128 keys a producer, spread over every shard: dense enough that
    // duplicate puts and removes of absent keys are common.
    const KEYS_PER_PRODUCER: u64 = 128;
    const TORN_BYTES: u64 = 13;
    type Acked = (TxnOp<u64, u64>, bool);
    type Journal = Vec<Acked>;

    let dir = tmpdir(tag);
    let splits = uniform_splits(SHARDS, KEY_RANGE);
    let registry = MetricsRegistry::new();
    let mut original =
        BundledStore::<u64, u64, S>::with_obs(4, ReclaimMode::Reclaim, splits.clone(), &registry);
    let mut wal = GroupWal::<u64, u64>::create(&dir, policy).expect("create");
    wal.attach_obs(&registry);
    let wal = Arc::new(wal);
    original.attach_commit_log(Arc::clone(&wal) as Arc<dyn CommitLog<u64, u64>>);
    let ingest = Ingest::spawn(
        Arc::new(original),
        IngestConfig {
            committers: 2,
            ..IngestConfig::default()
        },
    );

    let journals: Vec<Journal> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ingest = &ingest;
                scope.spawn(move || {
                    let mut seed = (p + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut journal = Journal::new();
                    for _ in 0..BATCHES {
                        let ops: Vec<TxnOp<u64, u64>> = (0..BATCH)
                            .map(|_| {
                                seed ^= seed << 13;
                                seed ^= seed >> 7;
                                seed ^= seed << 17;
                                let slot = seed % KEYS_PER_PRODUCER;
                                let key = p + slot * (KEY_RANGE / KEYS_PER_PRODUCER);
                                match (seed >> 20) % 3 {
                                    0 => TxnOp::Put(key, seed >> 32),
                                    1 => TxnOp::Set(key, seed >> 32),
                                    _ => TxnOp::Remove(key),
                                }
                            })
                            .collect();
                        // One ticket per batch, waited before the next:
                        // the journal is in acknowledgment order.
                        let outcome = ingest.submit_batch(ops.clone()).wait();
                        journal.extend(ops.into_iter().zip(outcome.applied));
                    }
                    journal
                })
            })
            .collect();
        producers
            .into_iter()
            .map(|p| p.join().expect("producer panicked"))
            .collect()
    });

    // The crash point: the durable position, sampled with no flush. One
    // more batch is in flight when the process dies — written after the
    // sample, never acknowledged to anyone — and the cut keeps only a
    // torn piece of its frame. (The orderly shutdown fsyncs the tail, but
    // the cut rewinds the file to the sample.)
    let durable = wal.durable_position();
    let _ = ingest.submit_batch(vec![TxnOp::Set(2, 1)]).wait();
    ingest.shutdown();
    drop(ingest);
    WalRecovery::cut(&dir, durable, TORN_BYTES).expect("cut");

    let recovered = Arc::new(BundledStore::<u64, u64, S>::with_obs(
        2,
        ReclaimMode::Reclaim,
        splits,
        &registry,
    ));
    let stats = WalRecovery::replay(&dir, &recovered).expect("replay");
    assert_eq!(stats.truncated_bytes, TORN_BYTES, "{tag}: torn frame cut");
    let handle = recovered.register();
    let state: BTreeMap<u64, u64> = handle.range_query_vec(&0, &u64::MAX).into_iter().collect();

    // A: the log is the oracle; its two consumers agree.
    assert_eq!(state, fold_log(&dir), "{tag}: replay != decode-fold");

    // B: per key, the recovered value is reachable by a journal prefix.
    let mut per_key: BTreeMap<u64, Vec<&Acked>> = BTreeMap::new();
    for entry in journals.iter().flatten() {
        per_key.entry(*entry.0.key()).or_default().push(entry);
    }
    for (key, history) in &per_key {
        let recovered_value = state.get(key);
        let mut model = BTreeMap::new();
        let mut reachable = recovered_value.is_none();
        for (op, applied) in history {
            fold_op(&mut model, op, *applied);
            reachable |= model.get(key) == recovered_value;
        }
        assert!(
            reachable,
            "{tag}: key {key} recovered as {recovered_value:?}, which no prefix of its \
             {}-op acked journal produces",
            history.len()
        );
    }
    for key in state.keys() {
        assert!(
            per_key.contains_key(key),
            "{tag}: key {key} was never acked"
        );
    }

    // C: under Always an acknowledged op is a durable op.
    if policy == SyncPolicy::Always {
        let mut full = BTreeMap::new();
        for (op, applied) in journals.iter().flatten() {
            fold_op(&mut full, op, *applied);
        }
        assert_eq!(state, full, "{tag}: an acknowledged op was lost");
        assert!(!state.is_empty(), "{tag}: writes survived");
    }

    // The wal.* instruments saw the writes and the replay.
    let snap = recovered
        .obs_snapshot(handle.tid())
        .expect("store built with obs");
    let counter = |name: &str| match snap.get(name) {
        Some(&obs::SnapshotValue::Counter(c)) => c,
        other => panic!("{tag}: {name} missing or mistyped: {other:?}"),
    };
    assert!(counter("wal.groups") >= stats.groups, "{tag}");
    assert!(counter("wal.bytes") >= stats.bytes, "{tag}");
    assert_eq!(
        counter("wal.recovery_replayed_groups"),
        stats.groups,
        "{tag}"
    );
    for name in ["wal.append_ns", "wal.fsync_ns"] {
        match snap.get(name) {
            Some(obs::SnapshotValue::Histogram(h)) => {
                assert!(h.count >= 1, "{tag}: {name} never recorded");
            }
            other => panic!("{tag}: {name} missing or mistyped: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_ingest_recovery_loses_nothing_acked_on_every_backend() {
    concurrent_ingest_recovery::<BundledSkipList<u64, u64>>("ingest-skiplist", SyncPolicy::Always);
    concurrent_ingest_recovery::<BundledCitrusTree<u64, u64>>("ingest-citrus", SyncPolicy::Always);
    concurrent_ingest_recovery::<BundledLazyList<u64, u64>>("ingest-list", SyncPolicy::Always);
}

/// A volatile policy may lose a tail of acknowledged groups, but what it
/// recovers is still a consistent prefix (checks A and B).
#[test]
fn concurrent_ingest_recovery_under_every_8_groups_is_a_consistent_prefix() {
    concurrent_ingest_recovery::<BundledSkipList<u64, u64>>(
        "ingest-every8",
        SyncPolicy::EveryNGroups(8),
    );
}

/// Two threads of read-write transactions on **one shard**, logging
/// under `SyncPolicy::Off`. Only node locks arbitrate between commits,
/// so they reach the log concurrently and not in timestamp order; what
/// the log must still order is every pair of commits that conflict. Each
/// transaction mixes keys both threads fight over — counters bumped by a
/// validated read-modify-write, and a put / remove pair whose logged
/// outcome flags depend on which commit came first — with keys of the
/// thread's own stripe. Replaying the log must rebuild exactly the live
/// store's final state (and, in this debug build, reproduce every logged
/// outcome flag: `WalRecovery::replay` asserts them).
#[test]
fn concurrent_rw_transactions_on_one_shard_replay_to_the_live_state() {
    fn check<S>(tag: &str)
    where
        S: ShardBackend<u64, u64> + Send + Sync + 'static,
    {
        const THREADS: u64 = 2;
        const TXNS: u64 = 300;
        const SHARED: u64 = 6;
        let dir = tmpdir(tag);
        let mut store = BundledStore::<u64, u64, S>::new(THREADS as usize + 1, vec![]);
        let wal = Arc::new(GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off).expect("create"));
        store.attach_commit_log(Arc::clone(&wal) as Arc<dyn CommitLog<u64, u64>>);
        let store = Arc::new(store);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = &store;
                scope.spawn(move || {
                    let h = store.register();
                    let mut seed = (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut next = move || {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed
                    };
                    for i in 0..TXNS {
                        let (counter, flag, own) = (next() % SHARED, next() % SHARED, next() % 64);
                        h.run_rw(|txn| {
                            // Overlapping: a counter and an outcome-exact flag.
                            let c = txn.get(&counter).unwrap_or(0);
                            txn.set(counter, c + 1);
                            if (i + t).is_multiple_of(2) {
                                txn.put(100 + flag, i);
                            } else {
                                txn.remove(&(100 + flag));
                            }
                            // Disjoint: the thread's own stripe.
                            txn.set(1_000 * (t + 1) + own, i);
                            txn.remove(&(1_000 * (t + 1) + (own + 7) % 64));
                        });
                    }
                });
            }
        });
        wal.sync();
        let live: BTreeMap<u64, u64> = store
            .register()
            .range_query_vec(&0, &u64::MAX)
            .into_iter()
            .collect();
        let bumps: u64 = (0..SHARED).filter_map(|k| live.get(&k)).sum();
        assert_eq!(bumps, THREADS * TXNS, "{tag}: a counter bump was lost");
        let scanned = WalRecovery::scan::<u64, u64>(&dir).expect("scan");
        assert_eq!(scanned.stats.groups, THREADS * TXNS, "{tag}");
        assert_eq!(
            scanned.stats.last_ts,
            store.context().read(),
            "{tag}: the newest logged timestamp is the clock"
        );
        let recovered = Arc::new(BundledStore::<u64, u64, S>::new(2, vec![]));
        WalRecovery::replay(&dir, &recovered).expect("replay");
        let replayed: BTreeMap<u64, u64> = recovered
            .register()
            .range_query_vec(&0, &u64::MAX)
            .into_iter()
            .collect();
        assert_eq!(replayed, live, "{tag}: replay != live store");
        assert_eq!(fold_log(&dir), live, "{tag}: decode-fold != live store");
        let _ = std::fs::remove_dir_all(&dir);
    }
    check::<BundledSkipList<u64, u64>>("rw-skiplist");
    check::<BundledCitrusTree<u64, u64>>("rw-citrus");
    check::<BundledLazyList<u64, u64>>("rw-list");
}

fn wal_segment_path(dir: &std::path::Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}
