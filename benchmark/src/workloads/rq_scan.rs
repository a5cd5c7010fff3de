//! `rq_scan`: Fig. 3's shape through the store. One thread runs
//! 1000-key range queries back to back over a 100k-key Citrus store
//! (about ten times L2); the other is a paced writer, 20 direct
//! inserts/removes every millisecond, that only disturbs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use citrus::BundledCitrusTree;

use super::*;
use crate::gen::{value_of, ScanInputs, Write};
use crate::harness::*;
use crate::oracle::{check_range, plain_value};
use crate::pace::{account, Schedule};
use crate::timed::Timed;
use crate::trace::{self, Kind};

type Citrus = BundledCitrusTree<u64, u64>;

fn scan<S: Backend>(h: &Handle<S>, lows: &[u64], timeline: &Timeline) -> Recorder {
    let mut rec = Recorder::new(timeline, 1 << 17);
    let mut out = Vec::with_capacity(SCAN_SPAN as usize);
    for (n, &low) in lows.iter().cycle().enumerate() {
        let high = low + SCAN_SPAN - 1;
        let t0 = Instant::now();
        let phase = timeline.phase(t0);
        if phase == Phase::Done {
            break;
        }
        let span = trace::span(Kind::StoreRangeQuery);
        h.range_query(&low, &high, &mut out);
        let ns = t0.elapsed().as_nanos() as u64;
        if span.is_some() {
            drop(span);
            trace::stamp(trace::local_req(n));
        }
        rec.all_main_ops += 1;
        let Phase::Slice(slice) = phase else { continue };
        rec.main_ops[slice] += 1;
        rec.attempted += 1;
        rec.rq.push(slice, ns);
        if let Err(e) = check_range(&out, low, high, plain_value) {
            rec.violation(format!("range query: {e}"));
        }
    }
    trace::flush_thread();
    rec
}

/// Returns the recorder and successful inserts minus successful removes.
fn write<S: Backend>(h: &Handle<S>, writes: &[Write], timeline: &Timeline) -> (Recorder, i64) {
    let mut rec = Recorder::new(timeline, 1 << 16);
    let mut sched = Schedule::new(
        timeline.start,
        Duration::from_micros(SCAN_TICK_US),
        SCAN_WRITES_PER_TICK,
    );
    let mut net = 0i64;
    for (n, w) in writes.iter().cycle().enumerate() {
        let due = sched.next_due_ns();
        let phase = timeline.phase_at(due);
        if phase == Phase::Done {
            break;
        }
        let send = sched.wait_until(due);
        let span = trace::span(Kind::StoreWrite);
        if w.put {
            net += i64::from(h.insert(w.key, value_of(w.key)));
        } else {
            net -= i64::from(h.remove(&w.key));
        }
        let sent = account(due, send, sched.now_ns());
        if span.is_some() {
            drop(span);
            trace::stamp(trace::local_req(n));
        }
        rec.all_write_ops += 1;
        let Phase::Slice(slice) = phase else { continue };
        rec.attempted += 1;
        let ns = rec.open_loop(sent);
        rec.write.push(slice, ns);
    }
    trace::flush_thread();
    (rec, net)
}

fn run_on<S: Backend>(cfg: &RunCfg) -> Measured {
    let inputs = ScanInputs::generate(cfg.seed);
    let setup = || {
        let store = Arc::new(new_store::<S>(SCAN_KEY_RANGE));
        let h = store.register();
        for &k in &inputs.prefill {
            h.insert(k, value_of(k));
        }
        drop(h);
        StoreEnv::new(store, RECYCLER_DELAY_MS)
    };
    let mut setup_s = Vec::new();
    let env = timed_setup(&mut setup_s, setup);
    let (scanner, writer, main) = (
        env.store.register(),
        env.store.register(),
        env.store.register(),
    );
    let advances0 = env.store.context().advance_calls();
    let timeline = Timeline::starting_now(cfg);
    let (mut rec, net, cpu_s) = std::thread::scope(|s| {
        // Sessions are `Send`, not `Sync`: each moves into its thread.
        let (inputs, timeline) = (&inputs, &timeline);
        let scan_thread = s.spawn(move || scan(&scanner, &inputs.rq_lows, timeline));
        let write_thread = s.spawn(move || write(&writer, &inputs.writes, timeline));
        let cpu_s = run_slices(timeline, cfg.trace, |_| {});
        let mut rec = scan_thread.join().expect("the scanner panicked");
        let (w, net) = write_thread.join().expect("the writer panicked");
        rec.merge(w);
        (rec, net, cpu_s)
    });

    let len = main.len();
    let expected = SCAN_PREFILL as i64 + net;
    if len as i64 != expected {
        rec.violation(format!(
            "final len {len}, prefill + inserts - removes = {expected}"
        ));
    }
    let mut layer = space_metrics(&main);
    layer.push((
        "bundle.advances_per_op",
        (env.store.context().advance_calls() - advances0) as f64 / rec.all_write_ops.max(1) as f64,
    ));
    drop((main, env));
    repeat_setups(cfg, &mut setup_s, setup);
    Measured::collect(&timeline, rec, cpu_s, layer, setup_s)
}

pub fn run(cfg: &RunCfg) -> Measured {
    if cfg.trace {
        run_on::<Timed<Citrus>>(cfg)
    } else {
        run_on::<Citrus>(cfg)
    }
}
