//! From what a workload measured to named metrics: the six end-to-end
//! numbers of an untraced run, the seventy per-layer numbers of a
//! traced one, and the run's result record.

use std::collections::HashMap;

use crate::harness::{peak_rss_mb, traced_slice, Measured};
use crate::json::Json;
use crate::spec::*;
use crate::stats::{highest_supported, median, percentile, supports, SlicedSamples};
use crate::trace::{aggregate, Kind, Linked};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One run of one workload, as printed and as stored in result files.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Untraced runs: the per-slice values behind each end-to-end metric
    /// (for `setup_s`, its repeats), in `END_TO_END` order.
    pub slices: Vec<Vec<f64>>,
    /// Sample counts, violations, and whatever else a reader should see.
    pub notes: Vec<String>,
}

fn per_slice_rate(ops: &[u64], slice_s: f64, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    ops.iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .map(|(_, &n)| n as f64 / slice_s)
        .collect()
}

/// Per-slice values of every end-to-end metric but `setup_s`, in
/// `END_TO_END` order, plus notes on what they rest on.
fn per_slice_values(m: &mut Measured, notes: &mut Vec<String>) -> Result<Vec<Vec<f64>>, String> {
    let write_p50 = m
        .rec
        .write
        .per_slice(0.50)
        .ok_or("the write stream has a slice without samples")?;
    for (stream, samples) in [("write", &m.rec.write), ("rq", &m.rec.rq)] {
        notes.push(format!(
            "{stream}: {} samples, at least {} per slice",
            samples.total(),
            samples.min_slice_samples()
        ));
    }
    if m.rec.open_sends > 0 {
        notes.push(format!(
            "open loop: {} sends, {} more than 1 ms late",
            m.rec.open_sends, m.rec.late_sends
        ));
    }
    Ok(vec![
        per_slice_rate(&m.rec.main_ops, m.slice_s, |_| true),
        write_p50.into_iter().map(|ns| ns / 1e3).collect(),
    ])
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order:
/// each the median of its per-slice values, `setup_s` of its repeats.
fn end_to_end(slices: &[Vec<f64>], setup_s: &[f64]) -> Option<Vec<Metric>> {
    let mut values: Vec<f64> = slices.iter().map(|v| median(v)).collect::<Option<_>>()?;
    values.push(median(setup_s)?);
    Some(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(spec, value)| Metric {
                name: spec.name.to_string(),
                value,
                unit: spec.unit,
            })
            .collect(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values that come from spans. `traced_s` is the wall time
/// spans were on for.
pub fn span_metrics(spans: &[Linked], traced_s: f64) -> Vec<(&'static str, f64)> {
    let kind_of: HashMap<u32, Kind> = spans.iter().map(|l| (l.id, l.span.kind)).collect();
    let cursor = aggregate(spans, Kind::BackendCursor);
    let finalize = aggregate(spans, Kind::BackendFinalize);
    let validate = aggregate(spans, Kind::BackendValidate);
    let rq = aggregate(spans, Kind::StoreRangeQuery);
    let txn = aggregate(spans, Kind::TxnRequest);
    let submit = aggregate(spans, Kind::IngestSubmit);
    let request = aggregate(spans, Kind::IngestRequest);
    let log = aggregate(spans, Kind::WalLogGroup);

    let (mut shard_ns, mut shard_spans) = (0u64, 0u64);
    for l in spans.iter().filter(|l| l.span.kind == Kind::BackendRangeAt) {
        if l.parent.and_then(|p| kind_of.get(&p)) == Some(&Kind::StoreRangeQuery) {
            shard_ns += l.span.dur_ns();
            shard_spans += 1;
        }
    }
    // What a committer thread does per group, seen from outside: its
    // cursor, log and finalize spans have no enclosing span.
    let committer_ns: u64 = spans
        .iter()
        .filter(|l| {
            l.parent.is_none()
                && matches!(
                    l.span.kind,
                    Kind::BackendCursor | Kind::BackendFinalize | Kind::WalLogGroup
                )
        })
        .map(|l| l.span.dur_ns())
        .sum();
    let ingest = request.spans > 0;
    let us = |p: f64| percentile(&log.durs_ns, p).map_or(0.0, |ns| ns as f64 / 1e3);

    vec![
        (
            "store.prepare_ns_per_op",
            ratio(cursor.total_ns as f64, cursor.count as f64),
        ),
        (
            "store.finalize_ns_per_op",
            ratio(finalize.total_ns as f64, cursor.count as f64),
        ),
        (
            "store.validate_ns_per_txn",
            ratio(validate.total_ns as f64, txn.spans as f64),
        ),
        ("store.rq_shard_ns", ratio(shard_ns as f64, rq.spans as f64)),
        (
            "store.rq_shards_per_query",
            ratio(shard_spans as f64, rq.spans as f64),
        ),
        (
            "store.rq_self_ns",
            ratio(rq.self_ns as f64, rq.spans as f64),
        ),
        ("txn.read_ns", aggregate(spans, Kind::TxnGet).mean_ns()),
        ("txn.range_ns", aggregate(spans, Kind::TxnRange).mean_ns()),
        ("txn.commit_ns", aggregate(spans, Kind::TxnCommit).mean_ns()),
        (
            "ingest.submit_ns_per_op",
            ratio(submit.total_ns as f64, submit.count as f64),
        ),
        (
            "ingest.committer_busy_share",
            if ingest {
                ratio(committer_ns as f64, traced_s * 1e9)
            } else {
                0.0
            },
        ),
        (
            "ingest.explained_share",
            ratio(
                (submit.total_ns + committer_ns) as f64,
                request.total_ns as f64,
            ),
        ),
        ("wal.log_group_us_p50", us(0.50)),
        ("wal.log_group_us_p99", us(0.99)),
        ("wal.groups_per_s", ratio(log.spans as f64, traced_s)),
    ]
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order. A
/// metric its workload has no part in reads 0.
fn per_layer(m: &mut Measured, panel: &[(String, f64)], notes: &mut Vec<String>) -> Vec<Metric> {
    let slices = m.rec.main_ops.len();
    let traced_s = (0..slices).filter(|s| traced_slice(*s)).count() as f64 * m.slice_s;
    let on = median(&per_slice_rate(&m.rec.main_ops, m.slice_s, traced_slice)).unwrap_or(0.0);
    let off = median(&per_slice_rate(&m.rec.main_ops, m.slice_s, |s| {
        !traced_slice(s)
    }));
    let main_ops: u64 = m.rec.main_ops.iter().sum();
    notes.push(format!(
        "{} spans; main stream {on:.0} ops/s traced, {:.0} ops/s untraced",
        m.spans.len(),
        off.unwrap_or(0.0)
    ));

    // Client-side latencies come from the slices tracing was off in.
    m.rec.write.retain_slices(|s| !traced_slice(s));
    m.rec.rq.retain_slices(|s| !traced_slice(s));
    let fewest = m
        .rec
        .write
        .min_slice_samples()
        .min(m.rec.rq.min_slice_samples());
    if !supports(fewest, 0.99) {
        notes.push(format!(
            "a p99 rests on {fewest} samples in some slice; highest supported percentile: {:?}",
            highest_supported(fewest)
        ));
    }
    let untraced_us = |samples: &mut SlicedSamples, p: f64| {
        samples.per_slice(p).and_then(|v| median(&v)).unwrap_or(0.0) / 1e3
    };
    let latencies = [
        ("rq_p50_us", untraced_us(&mut m.rec.rq, 0.50)),
        ("write_p99_us", untraced_us(&mut m.rec.write, 0.99)),
        ("rq_p99_us", untraced_us(&mut m.rec.rq, 0.99)),
    ];

    let mut values: HashMap<&str, f64> = HashMap::new();
    values.extend(latencies);
    values.extend(panel.iter().map(|(k, v)| (k.as_str(), *v)));
    values.extend(m.layer.iter().copied());
    values.extend(span_metrics(&m.spans, traced_s));
    values.extend([
        ("process.peak_rss_mb", peak_rss_mb()),
        (
            "process.cpu_s_per_mop",
            ratio(m.cpu_s, main_ops as f64 / 1e6),
        ),
        (
            "bench.trace_overhead_share",
            off.map_or(0.0, |off| 1.0 - ratio(on, off)),
        ),
        (
            "bench.generator_late_share",
            ratio(m.rec.late_sends as f64, m.rec.open_sends as f64),
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name.to_string(),
            value: values.get(spec.name).copied().unwrap_or(0.0),
            unit: spec.unit,
        })
        .collect()
}

impl RunResult {
    pub fn from_measured(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        mut m: Measured,
        panel: &[(String, f64)],
    ) -> RunResult {
        let mut notes = Vec::new();
        let mut correct = m.rec.violations.is_empty();
        let mut slices = Vec::new();
        let metrics = if trace {
            per_layer(&mut m, panel, &mut notes)
        } else {
            per_slice_values(&mut m, &mut notes)
                .and_then(|v| {
                    slices = v;
                    end_to_end(&slices, &m.setup_s).ok_or("nothing was measured".to_string())
                })
                .unwrap_or_else(|e| {
                    notes.push(format!("INVALID: {e}"));
                    correct = false;
                    Vec::new()
                })
        };
        slices.push(m.setup_s.clone());
        notes.extend(m.rec.violations.iter().map(|v| format!("VIOLATION: {v}")));
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            correct,
            attempted: m.rec.attempted.max(1),
            failed: m.rec.failed,
            metrics,
            slices: if trace { Vec::new() } else { slices },
            notes,
        }
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn last_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The record kept in result files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            (
                "slices",
                Json::obj(END_TO_END.iter().zip(&self.slices).map(|(spec, v)| {
                    (
                        spec.name,
                        Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                    )
                })),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let pass = if self.trace { "traced" } else { "untraced" };
        let mut out = format!(
            "== {} (seed {}, {} s, {pass}): attempted {}, failed {}, {}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<36} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        for n in &self.notes {
            out.push_str(&format!("  # {n}\n"));
        }
        out
    }
}

/// A result file: the runs of one invocation.
pub fn result_file(runs: &[RunResult]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}
