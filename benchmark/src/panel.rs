//! The layer panel: fixed-count, single-threaded measurements of the
//! calls no workload isolates. The op stream comes from the seed, so the
//! counts (and `cursor_hint_rate`) repeat exactly; only the times vary.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use bundle::{PrepareCursor, RqContext};
use citrus::{BundledCitrusTree, UnsafeCitrusTree};
use ebr::{Collector, ReclaimMode};
use lazylist::{BundledLazyList, UnsafeLazyList};
use rand::prelude::*;
use skiplist::{BundledSkipList, UnsafeSkipList};
use store::{uniform_splits, BundledStore, CommitLog, ShardBackend, SkipListStore, TxnOp};
use wal::{GroupWal, SyncPolicy, WalRecovery};

use crate::gen::{sub_seed, value_of};
use crate::spec::*;
use crate::stats::median;
use crate::timed::{Timed, TimedLog};
use crate::trace::{self, Kind};

type Metrics = Vec<(String, f64)>;

const GROUP: usize = 1024;
/// `sub_seed` workload slot of the panel's streams.
const PANEL_STREAMS: usize = 99;

fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(sub_seed(seed, PANEL_STREAMS, stream))
}

/// Mean nanoseconds of one of `n` calls.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn kernel(out: &mut Metrics) {
    const N: usize = 1_000_000;
    let ctx = RqContext::new(MAX_THREADS);
    out.push((
        "bundle.clock_advance_ns".into(),
        ns_per(N, |_| {
            black_box(ctx.advance(0));
        }),
    ));
    out.push((
        "bundle.rq_announce_ns".into(),
        ns_per(N, |_| {
            black_box(ctx.start_rq(0));
            ctx.finish_rq(0);
        }),
    ));
    let collector = Collector::new(MAX_THREADS, ReclaimMode::Reclaim);
    out.push((
        "ebr.pin_ns".into(),
        ns_per(N, |_| {
            black_box(&collector.pin(0));
        }),
    ));
}

/// Every other key of `0..range`, inserted in random order.
fn prefill(set: &impl ConcurrentSet<u64, u64>, range: u64, rng: &mut SmallRng) {
    for k in crate::gen::shuffled(range / 2, rng) {
        set.insert(0, 2 * k, value_of(2 * k));
    }
}

fn primitives(
    name: &str,
    set: &impl RangeQuerySet<u64, u64>,
    range: u64,
    n: usize,
    seed: u64,
    out: &mut Metrics,
) {
    let mut r = rng(seed, 1);
    prefill(set, range, &mut r);
    let keys: Vec<u64> = (0..n).map(|_| r.gen_range(0..range)).collect();
    let mut buf = Vec::with_capacity(RQ_LEN as usize);
    let insert = ns_per(n, |i| {
        black_box(set.insert(0, keys[i], value_of(keys[i])));
    });
    let contains = ns_per(n, |i| {
        black_box(set.contains(0, &keys[n - 1 - i]));
    });
    let rq = ns_per(n / 4, |i| {
        let low = keys[i].min(range - RQ_LEN);
        black_box(set.range_query(0, &low, &(low + RQ_LEN - 1), &mut buf));
    });
    let remove = ns_per(n, |i| {
        black_box(set.remove(0, &keys[i]));
    });
    out.push((format!("{name}.insert_ns"), insert));
    out.push((format!("{name}.remove_ns"), remove));
    out.push((format!("{name}.contains_ns"), contains));
    out.push((format!("{name}.rq50_ns"), rq));
}

/// Mean ns of `n` range queries of 50 while a second thread updates.
fn rq50_under_updates(set: &impl RangeQuerySet<u64, u64>, range: u64, n: usize, seed: u64) -> f64 {
    let mut r = rng(seed, 2);
    prefill(set, range, &mut r);
    let lows: Vec<u64> = (0..n).map(|_| r.gen_range(0..=range - RQ_LEN)).collect();
    let updates: Vec<u64> = (0..1 << 16).map(|_| r.gen_range(0..range)).collect();
    let stop = AtomicBool::new(false);
    let mut buf = Vec::with_capacity(RQ_LEN as usize);
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, &k) in updates.iter().cycle().enumerate() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if i % 2 == 0 {
                    set.insert(1, k, value_of(k));
                } else {
                    set.remove(1, &k);
                }
            }
        });
        let ns = ns_per(n, |i| {
            black_box(set.range_query(0, &lows[i], &(lows[i] + RQ_LEN - 1), &mut buf));
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// The paper's headline: a bundled range query's cost over the
/// non-linearizable baseline's, both under updates.
fn unsafe_ratio(
    name: &str,
    bundled: &impl RangeQuerySet<u64, u64>,
    unsafe_rq: &impl RangeQuerySet<u64, u64>,
    range: u64,
    n: usize,
    seed: u64,
    out: &mut Metrics,
) {
    let ratio =
        rq50_under_updates(bundled, range, n, seed) / rq50_under_updates(unsafe_rq, range, n, seed);
    out.push((format!("{name}.rq50_unsafe_ratio"), ratio));
}

/// `GROUP` distinct ascending keys of `0..range`.
fn sorted_run(range: u64, r: &mut SmallRng) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..GROUP * 2).map(|_| r.gen_range(0..range)).collect();
    keys.sort_unstable();
    keys.dedup();
    // Thin evenly rather than truncate, so the run spans the key space.
    let step = keys.len() as f64 / GROUP as f64;
    (0..GROUP)
        .map(|i| keys[(i as f64 * step) as usize])
        .collect()
}

fn staging<S: ShardBackend<u64, u64>>(
    name: &str,
    range: u64,
    rounds: usize,
    seed: u64,
    out: &mut Metrics,
) {
    let ctx = RqContext::new(MAX_THREADS);
    let shard = S::build(MAX_THREADS, ReclaimMode::Reclaim, &ctx);
    let mut r = rng(seed, 3);
    prefill(&shard, range, &mut r);
    let (mut sorted_ns, mut point_ns, mut finalize_ns) = (0.0, 0.0, 0.0);
    let (mut hinted, mut descents) = (0u64, 0u64);
    fn stage<C: PrepareCursor<u64, u64>>(cur: &mut C, i: usize, k: u64) {
        let staged = if i.is_multiple_of(2) {
            cur.seek_prepare_put(k, value_of(k))
        } else {
            cur.seek_prepare_remove(&k)
        };
        staged.expect("a single thread cannot conflict");
    }
    for _ in 0..rounds {
        let keys = sorted_run(range, &mut r);
        let t = Instant::now();
        let mut cur = shard.txn_cursor(shard.txn_begin_write_only(0));
        for (i, &k) in keys.iter().enumerate() {
            stage(&mut cur, i, k);
        }
        let stats = cur.stats();
        let txn = cur.finish();
        sorted_ns += t.elapsed().as_nanos() as f64;
        hinted += stats.hinted;
        descents += stats.descents;
        let ts = ctx.advance(0);
        let t = Instant::now();
        shard.txn_finalize(txn, ts);
        finalize_ns += t.elapsed().as_nanos() as f64;

        let keys = sorted_run(range, &mut r);
        let t = Instant::now();
        let mut txn = shard.txn_begin_write_only(0);
        for (i, &k) in keys.iter().enumerate() {
            let mut cur = shard.txn_cursor(txn);
            stage(&mut cur, i, k);
            txn = cur.finish();
        }
        point_ns += t.elapsed().as_nanos() as f64;
        shard.txn_finalize(txn, ctx.advance(0));
    }
    let ops = (rounds * GROUP) as f64;
    out.push((format!("{name}.stage_sorted_ns"), sorted_ns / ops));
    out.push((format!("{name}.stage_point_ns"), point_ns / ops));
    out.push((format!("{name}.finalize_ns"), finalize_ns / ops));
    out.push((
        format!("{name}.cursor_hint_rate"),
        hinted as f64 / (hinted + descents).max(1) as f64,
    ));

    // Validate a recorded 16-key read that nothing invalidated.
    let validations = rounds * 40;
    let (mut rows, mut nodes) = (Vec::new(), Vec::new());
    let mut validate_ns = 0.0;
    for _ in 0..validations {
        let low = r.gen_range(0..=range - TXN_RANGE_LEN);
        let high = low + TXN_RANGE_LEN - 1;
        let _pin = shard.pin(1);
        let lease = ctx.lease_read(1);
        shard.txn_range_read(1, lease.ts(), &low, &high, &mut rows, &mut nodes);
        let mut txn = shard.txn_begin(0);
        let t = Instant::now();
        let verdict = shard.txn_validate(&mut txn, &low, &high, &nodes);
        validate_ns += t.elapsed().as_nanos() as f64;
        assert!(verdict.is_ok(), "an undisturbed read must validate");
        shard.txn_abort(txn);
    }
    out.push((
        format!("{name}.validate_ns"),
        validate_ns / validations as f64,
    ));
}

/// `rounds` groups of `GROUP` ops, ascending and distinct per group.
fn groups(rounds: usize, r: &mut SmallRng) -> Vec<Vec<TxnOp<u64, u64>>> {
    (0..rounds)
        .map(|_| {
            sorted_run(KEY_RANGE, r)
                .into_iter()
                .enumerate()
                .map(|(i, k)| {
                    if i % 2 == 0 {
                        TxnOp::Put(k, value_of(k))
                    } else {
                        TxnOp::Remove(k)
                    }
                })
                .collect()
        })
        .collect()
}

fn panel_store<S: ShardBackend<u64, u64>>(r: &mut SmallRng) -> BundledStore<u64, u64, S> {
    let store = BundledStore::with_mode(
        MAX_THREADS,
        ReclaimMode::Reclaim,
        uniform_splits(SHARDS, KEY_RANGE),
    );
    prefill(&store, KEY_RANGE, r);
    store
}

fn store_panel(seed: u64, out: &mut Metrics) {
    const ROUNDS: usize = 100;
    let mut r = rng(seed, 4);
    let store = Arc::new(panel_store::<Timed<BundledSkipList<u64, u64>>>(&mut r));
    let h = store.register();
    let groups = groups(ROUNDS, &mut r);
    trace::set_on(true);
    for g in &groups {
        let mut span = trace::span(Kind::StoreApplyGrouped);
        if let Some(s) = &mut span {
            s.count = g.len() as u32;
        }
        black_box(h.apply_grouped(g));
    }
    trace::set_on(false);
    trace::flush_thread();
    let spans = trace::link_all(&trace::drain());
    let agg = trace::aggregate(&spans, Kind::StoreApplyGrouped);
    out.push((
        "store.apply_grouped_1024_ns_per_op".into(),
        agg.total_ns as f64 / agg.count as f64,
    ));
    out.push((
        "store.self_ns_per_op".into(),
        agg.self_ns as f64 / agg.count as f64,
    ));

    let n = 100_000;
    let keys: Vec<u64> = (0..n).map(|_| r.gen_range(0..KEY_RANGE)).collect();
    out.push((
        "store.direct_put_ns".into(),
        ns_per(n, |i| {
            black_box(h.insert(keys[i], value_of(keys[i])));
        }),
    ));
}

fn wal_panel(seed: u64, scratch: &Path, out: &mut Metrics) {
    const ROUNDS: usize = 100;
    const SYNCS: usize = 20;
    let dir = scratch.join("panel-wal");
    let mut r = rng(seed, 5);
    let wal = Arc::new(
        GroupWal::<u64, u64>::create(&dir, SyncPolicy::Off).expect("creating the panel WAL"),
    );
    let mut store = panel_store::<BundledSkipList<u64, u64>>(&mut rng(seed, 6));
    let log: Arc<dyn CommitLog<u64, u64>> = wal.clone();
    store.attach_commit_log(Arc::new(TimedLog::new(log)));
    let store = Arc::new(store);
    let h = store.register();
    let groups = groups(ROUNDS + SYNCS, &mut r);
    trace::set_on(true);
    for g in &groups[..ROUNDS] {
        black_box(h.apply_grouped(g));
    }
    trace::set_on(false);
    trace::flush_thread();
    let spans = trace::link_all(&trace::drain());
    let agg = trace::aggregate(&spans, Kind::WalLogGroup);
    out.push((
        "wal.append_ns_per_op".into(),
        agg.total_ns as f64 / agg.count as f64,
    ));

    let syncs: Vec<f64> = groups[ROUNDS..]
        .iter()
        .map(|g| {
            h.apply_grouped(g);
            let t = Instant::now();
            store.sync_commit_log();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(("wal.fsync_us".into(), median(&syncs).expect("syncs ran")));
    drop((h, store, wal));

    let fresh = Arc::new(panel_store::<BundledSkipList<u64, u64>>(&mut rng(seed, 6)));
    let t = Instant::now();
    let stats = WalRecovery::replay(&dir, &fresh).expect("replaying the panel WAL");
    out.push((
        "wal.replay_ops_per_s".into(),
        stats.ops as f64 / t.elapsed().as_secs_f64(),
    ));
    assert_eq!(
        stats.groups as usize,
        ROUNDS + SYNCS,
        "the panel's log replays whole"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn obs_panel(seed: u64, out: &mut Metrics) {
    const ROUNDS: usize = 200;
    let registry = obs::MetricsRegistry::new();
    let plain = Arc::new(panel_store::<BundledSkipList<u64, u64>>(&mut rng(seed, 7)));
    let observed: Arc<SkipListStore<u64, u64>> = Arc::new({
        let s = BundledStore::with_obs_trace_capacity(
            MAX_THREADS,
            ReclaimMode::Reclaim,
            uniform_splits(SHARDS, KEY_RANGE),
            &registry,
            0,
        );
        prefill(&s, KEY_RANGE, &mut rng(seed, 7));
        s
    });
    let (hp, ho) = (plain.register(), observed.register());
    let groups = groups(ROUNDS, &mut rng(seed, 8));
    // Alternate the two stores group by group so drift hits both alike.
    let (mut plain_ns, mut obs_ns) = (0u128, 0u128);
    for g in &groups {
        let t = Instant::now();
        black_box(hp.apply_grouped(g));
        plain_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(ho.apply_grouped(g));
        obs_ns += t.elapsed().as_nanos();
    }
    out.push((
        "obs.metrics_overhead_ratio".into(),
        obs_ns as f64 / plain_ns as f64,
    ));
    let snaps: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(observed.obs_snapshot(ho.tid()));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push((
        "obs.snapshot_us".into(),
        median(&snaps).expect("snapshots ran"),
    ));
}

/// Run the whole panel. `scratch` holds the panel's WAL while it runs.
pub fn run(seed: u64, scratch: &Path) -> Metrics {
    trace::set_sampled(true);
    let mut out = Metrics::new();
    kernel(&mut out);

    const N: usize = 200_000;
    const LIST_RANGE: u64 = 10_000;
    const LIST_N: usize = 4_000;
    let mode = ReclaimMode::Reclaim;
    primitives(
        "skiplist",
        &BundledSkipList::with_mode(MAX_THREADS, mode),
        KEY_RANGE,
        N,
        seed,
        &mut out,
    );
    primitives(
        "citrus",
        &BundledCitrusTree::with_mode(MAX_THREADS, mode),
        KEY_RANGE,
        N,
        seed,
        &mut out,
    );
    primitives(
        "lazylist",
        &BundledLazyList::with_mode(MAX_THREADS, mode),
        LIST_RANGE,
        LIST_N,
        seed,
        &mut out,
    );

    unsafe_ratio(
        "skiplist",
        &BundledSkipList::with_mode(MAX_THREADS, mode),
        &UnsafeSkipList::with_mode(MAX_THREADS, mode),
        KEY_RANGE,
        N / 4,
        seed,
        &mut out,
    );
    unsafe_ratio(
        "citrus",
        &BundledCitrusTree::with_mode(MAX_THREADS, mode),
        &UnsafeCitrusTree::with_mode(MAX_THREADS, mode),
        KEY_RANGE,
        N / 4,
        seed,
        &mut out,
    );
    unsafe_ratio(
        "lazylist",
        &BundledLazyList::with_mode(MAX_THREADS, mode),
        &UnsafeLazyList::with_mode(MAX_THREADS, mode),
        LIST_RANGE,
        LIST_N,
        seed,
        &mut out,
    );

    staging::<BundledSkipList<u64, u64>>("skiplist", KEY_RANGE, 50, seed, &mut out);
    staging::<BundledCitrusTree<u64, u64>>("citrus", KEY_RANGE, 50, seed, &mut out);
    staging::<BundledLazyList<u64, u64>>("lazylist", LIST_RANGE, 10, seed, &mut out);

    store_panel(seed, &mut out);
    wal_panel(seed, scratch, &mut out);
    obs_panel(seed, &mut out);
    trace::set_sampled(false);
    out
}
