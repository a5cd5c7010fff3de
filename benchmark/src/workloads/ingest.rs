//! The two ingest workloads: the same `ingest` and `store` code used in
//! opposite ways.
//!
//! `ingest_pipelined` keeps the committer saturated: one thread submits
//! windows of 256 single-key ops and waits for all tickets, no commit
//! log. `ingest_durable` is about latency: 2000 single-op submits per
//! second, open loop, each group fsynced (`SyncPolicy::Always`) before
//! its tickets resolve. In both, the second thread probes with 1000
//! range queries of 50 keys per second.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ::ingest::{Ingest, IngestConfig};
use skiplist::BundledSkipList;
use store::{CommitLog, TxnOp};
use wal::{GroupWal, SyncPolicy};

use super::*;
use crate::gen::{value_of, IngestInputs, Write};
use crate::harness::*;
use crate::oracle::{check_range, check_recovery, plain_value, SetModel};
use crate::pace::{account, Schedule};
use crate::timed::{Timed, TimedLog};
use crate::trace::{self, Kind};

type SkipList = BundledSkipList<u64, u64>;
type Wal = GroupWal<u64, u64>;

/// One frame's user payload: an 8-byte key and an 8-byte value.
const USER_BYTES_PER_OP: f64 = 16.0;

fn op_of(w: Write) -> TxnOp<u64, u64> {
    if w.put {
        TxnOp::Put(w.key, value_of(w.key))
    } else {
        TxnOp::Remove(w.key)
    }
}

struct Env<S: Backend> {
    // Declared first: the committer drains and joins before the store's
    // recycler stops, and the WAL directory goes last.
    ingest: Ingest<u64, u64, S>,
    store: StoreEnv<S>,
    wal: Option<(Arc<Wal>, WalDir)>,
}

/// A WAL directory that disappears with its owner.
struct WalDir(PathBuf);

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_wal_dir(scratch: &Path) -> WalDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    WalDir(scratch.join(format!("wal-{n}")))
}

fn setup<S: Backend>(cfg: &RunCfg, inputs: &IngestInputs, durable: bool) -> Env<S> {
    let mut store = new_store::<S>(KEY_RANGE);
    for &k in &inputs.prefill {
        // Before the store is shared: no session exists yet, tid 0 is free.
        bundle::api::ConcurrentSet::insert(&store, 0, k, value_of(k));
    }
    let wal = durable.then(|| {
        let dir = fresh_wal_dir(&cfg.scratch);
        let wal = Arc::new(Wal::create(&dir.0, SyncPolicy::Always).expect("creating the WAL"));
        let log: Arc<dyn CommitLog<u64, u64>> = wal.clone();
        store.attach_commit_log(if cfg.trace {
            Arc::new(TimedLog::new(log))
        } else {
            log
        });
        (wal, dir)
    });
    let store = StoreEnv::new(Arc::new(store), RECYCLER_DELAY_MS);
    let ingest = Ingest::spawn(
        Arc::clone(&store.store),
        IngestConfig {
            committers: 1,
            ..IngestConfig::default()
        },
    );
    Env { ingest, store, wal }
}

/// Closed loop: submit a window, wait for every ticket, check every
/// outcome flag against the sequential model.
fn pipeline<S: Backend>(
    ingest: &Ingest<u64, u64, S>,
    writes: &[Write],
    model: &mut SetModel,
    timeline: &Timeline,
) -> Recorder {
    let mut rec = Recorder::new(timeline, 1 << 15);
    let mut applied = Vec::with_capacity(INGEST_WINDOW);
    for window in writes.chunks_exact(INGEST_WINDOW).cycle() {
        let t0 = Instant::now();
        let phase = timeline.phase(t0);
        if phase == Phase::Done {
            break;
        }
        let mut request = trace::span(Kind::IngestRequest);
        let mut submit = trace::span(Kind::IngestSubmit);
        let tickets = ingest.submit_all(window.iter().map(|&w| op_of(w)));
        if let Some(s) = &mut submit {
            s.count = INGEST_WINDOW as u32;
        }
        drop(submit);
        applied.clear();
        let mut ts = 0;
        for t in tickets {
            let outcome = t.wait();
            ts = outcome.ts;
            applied.push(outcome.applied == [true]);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(s) = &mut request {
            s.count = INGEST_WINDOW as u32;
            drop(request);
            trace::stamp(ts);
        }
        rec.all_main_ops += INGEST_WINDOW as u64;
        rec.all_write_ops += INGEST_WINDOW as u64;
        let mismatches = window
            .iter()
            .zip(&applied)
            .filter(|(w, got)| model.apply(**w) != **got)
            .count();
        for _ in 0..mismatches {
            rec.violation("a ticket's applied flag differs from the sequential model".into());
        }
        let Phase::Slice(slice) = phase else { continue };
        rec.main_ops[slice] += INGEST_WINDOW as u64;
        rec.attempted += INGEST_WINDOW as u64;
        rec.write.push(slice, ns);
    }
    trace::flush_thread();
    rec
}

/// Open loop: one submit per due time, waited for before the next.
fn trickle<S: Backend>(
    ingest: &Ingest<u64, u64, S>,
    writes: &[Write],
    model: &mut SetModel,
    timeline: &Timeline,
) -> Recorder {
    let mut rec = Recorder::new(timeline, 1 << 13);
    let interval = Duration::from_nanos(1_000_000_000 / DURABLE_RATE_PER_S);
    let mut sched = Schedule::new(timeline.start, interval, 1);
    for &w in writes.iter().cycle() {
        let due = sched.next_due_ns();
        let phase = timeline.phase_at(due);
        if phase == Phase::Done {
            break;
        }
        let send = sched.wait_until(due);
        let request = trace::span(Kind::IngestRequest);
        let submit = trace::span(Kind::IngestSubmit);
        let ticket = ingest.submit(op_of(w));
        drop(submit);
        let outcome = ticket.wait();
        let done = sched.now_ns();
        let sent = account(due, send, done);
        if request.is_some() {
            drop(request);
            trace::stamp(outcome.ts);
        }
        rec.all_main_ops += 1;
        rec.all_write_ops += 1;
        if outcome.applied != [model.apply(w)] {
            rec.violation("a ticket's applied flag differs from the sequential model".into());
        }
        // Throughput counts an op where it completed; its latency belongs
        // to the slice it was due in.
        if let Phase::Slice(slice) = timeline.phase_at(done) {
            rec.main_ops[slice] += 1;
        }
        let Phase::Slice(slice) = phase else { continue };
        rec.attempted += 1;
        let ns = rec.open_loop(sent);
        rec.write.push(slice, ns);
    }
    trace::flush_thread();
    rec
}

fn probe<S: Backend>(h: &Handle<S>, lows: &[u64], timeline: &Timeline) -> Recorder {
    let mut rec = Recorder::new(timeline, 1 << 12);
    let interval = Duration::from_nanos(1_000_000_000 / PROBE_RATE_PER_S);
    let mut sched = Schedule::new(timeline.start, interval, 1);
    let mut out = Vec::with_capacity(RQ_LEN as usize);
    for (n, &low) in lows.iter().cycle().enumerate() {
        let high = low + RQ_LEN - 1;
        let due = sched.next_due_ns();
        let phase = timeline.phase_at(due);
        if phase == Phase::Done {
            break;
        }
        let send = sched.wait_until(due);
        let span = trace::span(Kind::StoreRangeQuery);
        h.range_query(&low, &high, &mut out);
        let sent = account(due, send, sched.now_ns());
        if span.is_some() {
            drop(span);
            trace::stamp(trace::local_req(n));
        }
        let Phase::Slice(slice) = phase else { continue };
        rec.attempted += 1;
        let ns = rec.open_loop(sent);
        rec.rq.push(slice, ns);
        if let Err(e) = check_range(&out, low, high, plain_value) {
            rec.violation(format!("probe: {e}"));
        }
    }
    trace::flush_thread();
    rec
}

fn run_on<S: Backend>(cfg: &RunCfg, durable: bool) -> Measured {
    let name = if durable {
        "ingest_durable"
    } else {
        "ingest_pipelined"
    };
    let inputs = IngestInputs::generate(cfg.seed, name);
    let mut setup_s = Vec::new();
    let env = timed_setup(&mut setup_s, || setup::<S>(cfg, &inputs, durable));
    let store = &env.store.store;
    let (prober, main) = (store.register(), store.register());
    let mut model = SetModel::new(KEY_RANGE, &inputs.prefill);
    let advances0 = store.context().advance_calls();
    let log0 = env.wal.as_ref().map(|(w, _)| w.position());

    let timeline = Timeline::starting_now(cfg);
    let (mut rec, cpu_s) = std::thread::scope(|s| {
        let (inputs, timeline, ingest, model) = (&inputs, &timeline, &env.ingest, &mut model);
        let writer = s.spawn(move || {
            if durable {
                trickle(ingest, &inputs.writes, model, timeline)
            } else {
                pipeline(ingest, &inputs.writes, model, timeline)
            }
        });
        let prober = s.spawn(move || probe(&prober, &inputs.probes, timeline));
        let cpu_s = run_slices(timeline, cfg.trace, |_| {});
        let mut rec = writer.join().expect("the writer panicked");
        rec.merge(prober.join().expect("the probe panicked"));
        (rec, cpu_s)
    });

    // Every ticket has resolved. Under `Always` that already means
    // flushed, so sample the durable position *before* the orderly
    // shutdown fsyncs anything more.
    let durable_at = env
        .wal
        .as_ref()
        .map(|(w, _)| (w.durable_position(), w.position()));
    env.ingest.shutdown();
    let stats = env.ingest.stats();
    let scan = main.range_query_vec(&0, &(KEY_RANGE - 1));
    if let Err(e) = model.check_scan(&scan) {
        rec.violation(format!("final scan: {e}"));
    }

    let mut layer = space_metrics(&main);
    let ops = rec.all_write_ops.max(1) as f64;
    layer.push((
        "bundle.advances_per_op",
        (store.context().advance_calls() - advances0) as f64 / ops,
    ));
    layer.push(("ingest.ops_per_group", stats.ops_per_group()));
    layer.push((
        "ingest.folded_share",
        1.0 - stats.folded_ops as f64 / stats.ops.max(1) as f64,
    ));
    let txn = store.txn_stats();
    layer.push((
        "store.intent_conflicts_per_commit",
        txn.conflicts as f64 / txn.commits.max(1) as f64,
    ));
    if let (Some((_, dir)), Some((durable_pos, end)), Some(start)) = (&env.wal, durable_at, log0) {
        assert_eq!(
            start.segment, end.segment,
            "the run fits one 64 MiB segment"
        );
        let bytes_per_op = (end.bytes - start.bytes) as f64 / ops;
        layer.push(("wal.bytes_per_op", bytes_per_op));
        layer.push(("wal.write_amp", bytes_per_op / USER_BYTES_PER_OP));
        if let Err(e) = check_recovery(
            &dir.0,
            durable_pos,
            KEY_RANGE,
            SHARDS,
            &inputs.prefill,
            &model,
        ) {
            rec.violation(format!("recovery: {e}"));
        }
    }
    drop((main, env));
    repeat_setups(cfg, &mut setup_s, || setup::<S>(cfg, &inputs, durable));
    Measured::collect(&timeline, rec, cpu_s, layer, setup_s)
}

pub fn run(cfg: &RunCfg, durable: bool) -> Measured {
    if cfg.trace {
        run_on::<Timed<SkipList>>(cfg, durable)
    } else {
        run_on::<SkipList>(cfg, durable)
    }
}
