//! `paper_mix`: the paper's own experiment. Two closed-loop threads on
//! one raw `BundledSkipList`, each 50% updates / 40% contains / 10%
//! range queries of 50 keys (the midpoint of Fig. 2). No store, txn,
//! ingest or wal code runs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ebr::ReclaimMode;
use skiplist::BundledSkipList;

use crate::gen::{value_of, PaperInputs, PaperOp};
use crate::harness::*;
use crate::oracle::{check_range, plain_value};
use crate::spec::*;
use crate::trace::{self, Kind};

type List = BundledSkipList<u64, u64>;

const RECYCLER_TID: usize = 2;
const MAIN_TID: usize = 3;

struct Loader<'a> {
    list: &'a List,
    tid: usize,
    out: Vec<(u64, u64)>,
    /// Successful inserts minus successful removes, warm-up included.
    net: i64,
    updates: u64,
}

impl Loader<'_> {
    #[inline]
    fn exec(&mut self, op: PaperOp) {
        match op {
            PaperOp::Insert(k) => {
                self.updates += 1;
                self.net += i64::from(self.list.insert(self.tid, k, value_of(k)));
            }
            PaperOp::Remove(k) => {
                self.updates += 1;
                self.net -= i64::from(self.list.remove(self.tid, &k));
            }
            PaperOp::Contains(k) => {
                black_box(self.list.contains(self.tid, &k));
            }
            PaperOp::Rq(low) => {
                let high = low + RQ_LEN - 1;
                self.list.range_query(self.tid, &low, &high, &mut self.out);
            }
        }
    }
}

fn load(list: &List, tid: usize, tape: &[PaperOp], timeline: &Timeline) -> (Recorder, i64) {
    let mut rec = Recorder::new(timeline, 1 << 18);
    let mut me = Loader {
        list,
        tid,
        out: Vec::with_capacity(2 * RQ_LEN as usize),
        net: 0,
        updates: 0,
    };
    let mut ops = tape.iter().cycle();
    loop {
        // One block: the first op is timed (and, traced, spanned), the
        // rest run bare. The tape is random, so position-based sampling
        // is unbiased over op kinds.
        let op = *ops.next().expect("a cycle never ends");
        let t0 = Instant::now();
        let phase = timeline.phase(t0);
        if phase == Phase::Done {
            break;
        }
        let span = trace::span(match op {
            PaperOp::Insert(_) | PaperOp::Remove(_) => Kind::ListUpdate,
            PaperOp::Contains(_) => Kind::ListContains,
            PaperOp::Rq(_) => Kind::ListRq,
        });
        me.exec(op);
        let ns = t0.elapsed().as_nanos() as u64;
        drop(span);
        if let (Phase::Slice(slice), PaperOp::Rq(low)) = (phase, op) {
            rec.rq.push(slice, ns);
            if let Err(e) = check_range(&me.out, low, low + RQ_LEN - 1, plain_value) {
                rec.violation(format!("range query: {e}"));
            }
        }
        for _ in 1..PAPER_SAMPLE {
            me.exec(*ops.next().expect("a cycle never ends"));
        }
        rec.all_main_ops += PAPER_SAMPLE as u64;
        let Phase::Slice(slice) = phase else { continue };
        rec.main_ops[slice] += PAPER_SAMPLE as u64;
        rec.attempted += PAPER_SAMPLE as u64;
        if matches!(op, PaperOp::Insert(_) | PaperOp::Remove(_)) {
            rec.write.push(slice, ns);
        }
    }
    rec.all_write_ops = me.updates;
    trace::flush_thread();
    (rec, me.net)
}

pub fn run(cfg: &RunCfg) -> Measured {
    let inputs = PaperInputs::generate(cfg.seed);
    let setup = || {
        let list = Arc::new(List::with_mode(MAX_THREADS, ReclaimMode::Reclaim));
        for &k in &inputs.prefill {
            list.insert(MAIN_TID, k, value_of(k));
        }
        let recycler = list.spawn_recycler(RECYCLER_TID, Duration::from_millis(RECYCLER_DELAY_MS));
        (list, recycler)
    };
    let mut setup_s = Vec::new();
    let (list, recycler) = timed_setup(&mut setup_s, setup);
    let advances0 = list.clock().advance_calls();
    let timeline = Timeline::starting_now(cfg);
    let (mut rec, net, cpu_s) = std::thread::scope(|s| {
        let threads: Vec<_> = inputs
            .tapes
            .iter()
            .enumerate()
            .map(|(tid, tape)| {
                let list = &*list;
                let timeline = &timeline;
                s.spawn(move || load(list, tid, tape, timeline))
            })
            .collect();
        let cpu_s = run_slices(&timeline, cfg.trace, |_| {});
        let mut threads = threads
            .into_iter()
            .map(|t| t.join().expect("a load thread panicked"));
        let (mut rec, mut net) = threads.next().expect("two load threads");
        for (r, n) in threads {
            rec.merge(r);
            net += n;
        }
        (rec, net, cpu_s)
    });
    recycler.stop();

    let len = list.len(MAIN_TID);
    let expected = PREFILL as i64 + net;
    if len as i64 != expected {
        rec.violation(format!(
            "final len {len}, prefill + inserts - removes = {expected}"
        ));
    }
    let layer = vec![
        (
            "bundle.advances_per_op",
            (list.clock().advance_calls() - advances0) as f64 / rec.all_write_ops.max(1) as f64,
        ),
        (
            "bundle.entries_per_key",
            list.bundle_entries(MAIN_TID) as f64 / len.max(1) as f64,
        ),
        (
            "ebr.retired_backlog",
            list.collector().stats().pending() as f64,
        ),
    ];
    drop(list);
    repeat_setups(cfg, &mut setup_s, setup);
    Measured::collect(&timeline, rec, cpu_s, layer, setup_s)
}
