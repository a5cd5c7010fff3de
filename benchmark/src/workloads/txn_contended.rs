//! `txn_contended`: serializable read-write transactions on a Citrus
//! store, keys Zipf-0.99 over a 10k hot set. Four in five operations
//! are a transfer (4 `get` + one 16-key `range` + 4 `set`, retried until
//! it commits); one in five is a standalone range query. The only
//! workload where wasted work (aborted attempts) sets the result.

use std::sync::Arc;
use std::time::Instant;

use citrus::BundledCitrusTree;
use store::TxnAborted;
use txn::StoreTxnExt;

use super::*;
use crate::gen::{value_of, TxnInput, TxnInputs};
use crate::harness::*;
use crate::oracle::check_range;
use crate::timed::Timed;
use crate::trace::{self, Kind};

type Citrus = BundledCitrusTree<u64, u64>;

/// Traced, one transfer in this many records spans (a transfer is ~15
/// spans; all of them would cost more than the 10% tracing may).
const TRACE_SAMPLE: usize = 4;

fn is_hot(key: u64) -> bool {
    key.is_multiple_of(KEY_RANGE / TXN_HOT_KEYS as u64)
}

fn initial_value(key: u64) -> u64 {
    if is_hot(key) {
        TXN_INITIAL_BALANCE
    } else {
        value_of(key)
    }
}

/// Hot keys hold a moving balance; every other key keeps its value.
fn value_ok(key: u64, value: u64) -> bool {
    is_hot(key) || value == value_of(key)
}

#[derive(Default)]
struct Counts {
    commits: u64,
    aborts: u64,
}

fn load<S: Backend>(h: &Handle<S>, tape: &[TxnInput], timeline: &Timeline) -> (Recorder, Counts) {
    let mut rec = Recorder::new(timeline, 1 << 18);
    let mut counts = Counts::default();
    let mut out = Vec::with_capacity(RQ_LEN as usize);
    for (n, input) in tape.iter().cycle().enumerate() {
        let t0 = Instant::now();
        let phase = timeline.phase(t0);
        if phase == Phase::Done {
            break;
        }
        match *input {
            TxnInput::Rq(low) => {
                let high = low + RQ_LEN - 1;
                trace::set_sampled(true);
                let span = trace::span(Kind::StoreRangeQuery);
                h.range_query(&low, &high, &mut out);
                let ns = t0.elapsed().as_nanos() as u64;
                if span.is_some() {
                    drop(span);
                    trace::stamp(trace::local_req(n));
                }
                let Phase::Slice(slice) = phase else { continue };
                rec.attempted += 1;
                rec.rq.push(slice, ns);
                if let Err(e) = check_range(&out, low, high, value_ok) {
                    rec.violation(format!("range query: {e}"));
                }
            }
            TxnInput::Transfer { keys, range_low } => {
                trace::set_sampled(n % TRACE_SAMPLE == 0);
                let mut request = trace::span(Kind::TxnRequest);
                let mut attempts = 0u32;
                let committed = loop {
                    attempts += 1;
                    let mut txn = h.rw_txn();
                    let mut balances = [0u64; TXN_GETS];
                    for (b, k) in balances.iter_mut().zip(&keys) {
                        let _span = trace::span(Kind::TxnGet);
                        // Hot keys are prefilled and only ever `set`.
                        *b = txn.get(k).unwrap_or(u64::MAX);
                    }
                    {
                        let _span = trace::span(Kind::TxnRange);
                        txn.range(&range_low, &(range_low + TXN_RANGE_LEN - 1), &mut out);
                    }
                    txn.set(keys[0], balances[0].wrapping_sub(1))
                        .set(keys[1], balances[1].wrapping_add(1))
                        .set(keys[2], balances[2].wrapping_sub(1))
                        .set(keys[3], balances[3].wrapping_add(1));
                    let span = trace::span(Kind::TxnCommit);
                    let outcome = txn.commit();
                    drop(span);
                    match outcome {
                        Ok(receipt) => break receipt.commit_ts,
                        Err(TxnAborted) => {
                            counts.aborts += 1;
                            if attempts >= TXN_MAX_ABORTS {
                                break None;
                            }
                        }
                    }
                };
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(s) = &mut request {
                    s.count = attempts;
                    drop(request);
                    trace::stamp(committed.unwrap_or(trace::local_req(n)));
                }
                counts.commits += u64::from(committed.is_some());
                rec.all_main_ops += 1;
                rec.all_write_ops += 1;
                let Phase::Slice(slice) = phase else { continue };
                rec.attempted += 1;
                if committed.is_some() {
                    rec.main_ops[slice] += 1;
                    rec.write.push(slice, ns);
                } else {
                    rec.violation(format!("gave up after {TXN_MAX_ABORTS} aborts"));
                }
            }
        }
    }
    trace::flush_thread();
    (rec, counts)
}

/// Transfers move units between hot keys, so the sum of all values
/// (wrapping) never changes; one full snapshot scan checks it.
fn check_conserved<S: Backend>(
    h: &Handle<S>,
    expected: u64,
    scan: &mut Vec<(u64, u64)>,
) -> Result<(), String> {
    h.range_query(&0, &(KEY_RANGE - 1), scan);
    check_range(scan, 0, KEY_RANGE - 1, value_ok)?;
    let sum = scan.iter().fold(0u64, |a, (_, v)| a.wrapping_add(*v));
    if sum != expected {
        return Err(format!("sum of values {sum}, expected {expected}"));
    }
    if scan.len() != PREFILL {
        return Err(format!("{} keys, expected {PREFILL}", scan.len()));
    }
    Ok(())
}

fn run_on<S: Backend>(cfg: &RunCfg) -> Measured {
    let inputs = TxnInputs::generate(cfg.seed);
    let setup = || {
        let store = Arc::new(new_store::<S>(KEY_RANGE));
        let h = store.register();
        for &k in &inputs.prefill {
            h.insert(k, initial_value(k));
        }
        drop(h);
        StoreEnv::new(store, RECYCLER_DELAY_MS)
    };
    let mut setup_s = Vec::new();
    let env = timed_setup(&mut setup_s, setup);
    let store = &env.store;
    let expected_sum = inputs
        .prefill
        .iter()
        .fold(0u64, |a, &k| a.wrapping_add(initial_value(k)));
    let (a, b, main) = (store.register(), store.register(), store.register());
    let advances0 = store.context().advance_calls();
    let stats0 = store.txn_stats();

    let timeline = Timeline::starting_now(cfg);
    let mut scan = Vec::with_capacity(PREFILL);
    let mut conservation = Vec::new();
    let (mut rec, counts, cpu_s) = std::thread::scope(|s| {
        let (inputs, timeline) = (&inputs, &timeline);
        let ta = s.spawn(move || load(&a, &inputs.tapes[0], timeline));
        let tb = s.spawn(move || load(&b, &inputs.tapes[1], timeline));
        let cpu_s = run_slices(timeline, cfg.trace, |slice| {
            if let Err(e) = check_conserved(&main, expected_sum, &mut scan) {
                conservation.push(format!("after slice {slice}: {e}"));
            }
        });
        let (mut rec, mut counts) = ta.join().expect("a load thread panicked");
        let (r, c) = tb.join().expect("a load thread panicked");
        rec.merge(r);
        counts.commits += c.commits;
        counts.aborts += c.aborts;
        (rec, counts, cpu_s)
    });
    if let Err(e) = check_conserved(&main, expected_sum, &mut scan) {
        conservation.push(format!("at the end: {e}"));
    }
    for e in conservation {
        rec.violation(e);
    }

    let stats = store.txn_stats();
    let commits = (stats.commits - stats0.commits).max(1) as f64;
    let invalidated = (stats.validation_failures - stats0.validation_failures) as f64;
    let mut layer = space_metrics(&main);
    layer.extend([
        (
            "bundle.advances_per_op",
            (store.context().advance_calls() - advances0) as f64 / rec.all_write_ops.max(1) as f64,
        ),
        (
            "txn.retries_per_commit",
            counts.aborts as f64 / counts.commits.max(1) as f64,
        ),
        (
            "txn.validation_fail_share",
            invalidated / (commits + invalidated),
        ),
        (
            "store.intent_conflicts_per_commit",
            (stats.conflicts - stats0.conflicts) as f64 / commits,
        ),
    ]);
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
