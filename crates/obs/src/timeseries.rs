//! Windowed time-series sampling over [`MetricsSnapshot`]s.
//!
//! Aggregate counters answer "how much over the whole run"; the open
//! online-resharding work needs **"how did load shift over time"** —
//! specifically `store.shard<i>.ops` *deltas per window*, the key-skew
//! feed a splitter consumes. A [`TimeseriesSampler`] is a background
//! thread that snapshots a registry at a fixed cadence, subtracts the
//! previous snapshot ([`MetricsSnapshot::delta`]), and turns each delta
//! into one [`Window`]: commit/conflict rates, the live ingest queue
//! depth, per-shard op counts, and a derived [`SkewReport`]. The last K
//! windows are kept in a ring; each window renders as one JSON line
//! ([`Window::json_line`]) or flattens into `(name, value)` metrics for
//! embedding in a run record.
//!
//! Stopping the sampler emits one final *partial* window, so — as long
//! as the ring has not evicted anything ([`TimeseriesSampler::dropped`]
//! is 0) — summing any counter's per-window deltas reproduces exactly
//! `final − at-spawn` of that counter. The reconciliation tests
//! (`window_deltas_sum_to_final_counters` here, and
//! `tests/obs_trace_timeseries.rs` over a live store) rely on this.
//!
//! [`MetricsSnapshot`]: crate::MetricsSnapshot
//! [`MetricsSnapshot::delta`]: crate::MetricsSnapshot::delta

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{Gauge, MetricsSnapshot, SnapshotValue};

/// The per-window callback [`TimeseriesSampler::spawn_with`] accepts
/// (runs on the sampler thread, in window order).
pub type WindowObserver = Box<dyn Fn(&Window) + Send>;

/// Default ring capacity (windows retained).
pub const DEFAULT_WINDOW_CAPACITY: usize = 512;

/// Per-window shard-load skew, derived from the `store.shard<i>.ops`
/// counter deltas — the signal the planned resharding policy consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Largest single shard's share of the window's ops, in `0.0..=1.0`
    /// (`0.0` when the window saw no shard ops). A perfectly uniform
    /// load reads `1/shards`; `1.0` means one shard took everything.
    pub max_share: f64,
    /// Mean per-shard share (`1/shards` whenever any ops landed — the
    /// uniform baseline `max_share` is compared against; `0.0` on an
    /// empty window).
    pub mean_share: f64,
    /// Shard with the most ops this window; `None` on an empty window.
    pub hottest_shard: Option<usize>,
    /// Total shard ops in the window (the share denominator).
    pub total_ops: u64,
}

impl SkewReport {
    /// Derive a report from one window's per-shard op deltas.
    #[must_use]
    pub fn from_shard_ops(shard_ops: &[u64]) -> SkewReport {
        let total: u64 = shard_ops.iter().sum();
        if total == 0 || shard_ops.is_empty() {
            return SkewReport {
                max_share: 0.0,
                mean_share: 0.0,
                hottest_shard: None,
                total_ops: 0,
            };
        }
        let (hottest, max) = shard_ops
            .iter()
            .enumerate()
            .max_by_key(|(_, ops)| **ops)
            .expect("non-empty");
        SkewReport {
            max_share: *max as f64 / total as f64,
            mean_share: 1.0 / shard_ops.len() as f64,
            hottest_shard: Some(hottest),
            total_ops: total,
        }
    }
}

/// One sampling window: the delta between two consecutive snapshots,
/// reduced to the rates and shares the harness and the skew feed need.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Window ordinal, 0-based from sampler spawn.
    pub index: u64,
    /// Window start, monotonic nanoseconds on the sampler's clock
    /// (0 = sampler spawn).
    pub start_ns: u64,
    /// Window length in nanoseconds (the final window is usually
    /// shorter than the cadence).
    pub dur_ns: u64,
    /// `store.txn.commits` delta.
    pub commits: u64,
    /// `store.txn.conflicts.{prepare,validate}` delta, summed.
    pub conflicts: u64,
    /// Commit throughput over the window, per second (`0.0` on a
    /// zero-length window).
    pub commits_per_s: f64,
    /// Conflicts per commit over the window (`0.0` when no commits).
    pub conflict_rate: f64,
    /// `ingest.depth` gauge at window end (pass-through level, not a
    /// delta; `0` when the run has no ingest front-end).
    pub queue_depth: i64,
    /// p99 of the `store.pipeline.finalize_ns` histogram *over this
    /// window* (bucket upper bound, ns; `0` when the window recorded no
    /// finalize samples) — the latency signal the health monitor's
    /// `LatencyBurn` check consumes.
    pub finalize_p99_ns: u64,
    /// Per-shard `store.shard<i>.ops` deltas, dense by shard index.
    pub shard_ops: Vec<u64>,
    /// Skew derived from [`Window::shard_ops`].
    pub skew: SkewReport,
}

/// Counter total in `snap`, 0 when missing or of another kind.
fn counter_of(snap: &MetricsSnapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(SnapshotValue::Counter(c)) => *c,
        _ => 0,
    }
}

impl Window {
    /// Reduce the delta between `earlier` and `current` (consecutive
    /// snapshots of one registry) to a window. `current` also supplies
    /// the pass-through gauge levels.
    #[must_use]
    pub fn from_snapshots(
        index: u64,
        start_ns: u64,
        dur_ns: u64,
        earlier: &MetricsSnapshot,
        current: &MetricsSnapshot,
    ) -> Window {
        let delta = current.delta(earlier);
        let commits = counter_of(&delta, "store.txn.commits");
        let conflicts = counter_of(&delta, "store.txn.conflicts.prepare")
            + counter_of(&delta, "store.txn.conflicts.validate");
        // `store.shard<i>.ops`, dense by `i` (entries are name-sorted,
        // but "shard10" sorts before "shard2" — place by parsed index).
        let mut shard_ops = Vec::new();
        for (name, v) in &delta.entries {
            if let (Some(rest), SnapshotValue::Counter(c)) = (name.strip_prefix("store.shard"), v) {
                if let Some(i) = rest
                    .strip_suffix(".ops")
                    .and_then(|n| n.parse::<usize>().ok())
                {
                    if shard_ops.len() <= i {
                        shard_ops.resize(i + 1, 0);
                    }
                    shard_ops[i] = *c;
                }
            }
        }
        let queue_depth = match current.get("ingest.depth") {
            Some(SnapshotValue::Gauge(g)) => *g,
            _ => 0,
        };
        let finalize_p99_ns = match delta.get("store.pipeline.finalize_ns") {
            Some(SnapshotValue::Histogram(h)) => h.quantile(0.99),
            _ => 0,
        };
        Window {
            index,
            start_ns,
            dur_ns,
            commits,
            conflicts,
            commits_per_s: if dur_ns == 0 {
                0.0
            } else {
                commits as f64 * 1e9 / dur_ns as f64
            },
            conflict_rate: if commits == 0 {
                0.0
            } else {
                conflicts as f64 / commits as f64
            },
            queue_depth,
            finalize_p99_ns,
            skew: SkewReport::from_shard_ops(&shard_ops),
            shard_ops,
        }
    }

    /// Render as one JSON-lines object (hand-rolled like the rest of the
    /// crate; all fields numeric, `skew.hottest_shard` is `-1` on an
    /// empty window).
    #[must_use]
    pub fn json_line(&self) -> String {
        let hottest = self.skew.hottest_shard.map_or(-1, |s| s as i64);
        let shard_ops = self
            .shard_ops
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"window\":{},\"start_ns\":{},\"dur_ns\":{},\"commits\":{},\"conflicts\":{},\
             \"commits_per_s\":{:.3},\"conflict_rate\":{:.6},\"queue_depth\":{},\
             \"finalize_p99_ns\":{},\
             \"skew.max_share\":{:.6},\"skew.mean_share\":{:.6},\"skew.hottest_shard\":{hottest},\
             \"skew.total_ops\":{},\"shard_ops\":[{shard_ops}]}}",
            self.index,
            self.start_ns,
            self.dur_ns,
            self.commits,
            self.conflicts,
            self.commits_per_s,
            self.conflict_rate,
            self.queue_depth,
            self.finalize_p99_ns,
            self.skew.max_share,
            self.skew.mean_share,
            self.skew.total_ops,
        )
    }

    /// Flatten into `(name, value)` metrics (the shape run records
    /// embed): scalar fields under their JSON names plus one
    /// `shard<i>.ops` per shard.
    #[must_use]
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("window".to_string(), self.index as f64),
            ("start_ns".to_string(), self.start_ns as f64),
            ("dur_ns".to_string(), self.dur_ns as f64),
            ("commits".to_string(), self.commits as f64),
            ("conflicts".to_string(), self.conflicts as f64),
            ("commits_per_s".to_string(), self.commits_per_s),
            ("conflict_rate".to_string(), self.conflict_rate),
            ("queue_depth".to_string(), self.queue_depth as f64),
            ("finalize_p99_ns".to_string(), self.finalize_p99_ns as f64),
            ("skew.max_share".to_string(), self.skew.max_share),
            ("skew.mean_share".to_string(), self.skew.mean_share),
            (
                "skew.hottest_shard".to_string(),
                self.skew.hottest_shard.map_or(-1.0, |s| s as f64),
            ),
            ("skew.total_ops".to_string(), self.skew.total_ops as f64),
        ];
        for (i, ops) in self.shard_ops.iter().enumerate() {
            out.push((format!("shard{i}.ops"), *ops as f64));
        }
        out
    }
}

struct Shared {
    stop: AtomicBool,
    capacity: usize,
    windows: Mutex<VecDeque<Window>>,
    dropped: AtomicU64,
}

impl Shared {
    fn push(&self, w: Window) {
        let mut g = self.windows.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() == self.capacity {
            g.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        g.push_back(w);
    }
}

/// A clonable read-only handle onto a sampler's window ring. Unlike the
/// [`TimeseriesSampler`] itself (whose `stop()` consumes it), a reader
/// can be handed to long-lived consumers — the export server's
/// `/windows.json` closure — and keeps answering after the sampler
/// stops (it sees the final ring contents, including the flushed
/// partial window).
#[derive(Clone)]
pub struct WindowsReader {
    shared: Arc<Shared>,
}

impl WindowsReader {
    /// The retained windows, oldest first.
    #[must_use]
    pub fn windows(&self) -> Vec<Window> {
        self.shared
            .windows
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Windows evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

/// A background sampling thread over one snapshot source. See the
/// module docs for the windowing and reconciliation contract.
pub struct TimeseriesSampler {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TimeseriesSampler {
    /// Spawn a sampler that calls `snapshot` every `interval` and keeps
    /// the last `capacity` windows. The base snapshot is taken *on the
    /// calling thread before spawn returns*, so the windows account for
    /// everything recorded after this call. `snapshot` must refresh any
    /// sampled gauges itself (the store's `obs_snapshot` does) and must
    /// be safe to call from the sampler thread — hand it its own
    /// registered store handle, not a live worker's thread id.
    pub fn spawn(
        interval: Duration,
        capacity: usize,
        snapshot: impl Fn() -> MetricsSnapshot + Send + 'static,
    ) -> TimeseriesSampler {
        Self::spawn_with(interval, capacity, snapshot, None, None)
    }

    /// [`TimeseriesSampler::spawn`] plus the obs-v3 hooks: `observer`
    /// runs on the sampler thread with each completed window *in order*
    /// (including the final partial one) — this is where a
    /// [`HealthMonitor`](crate::health::HealthMonitor) plugs in — and
    /// `dropped_gauge` (e.g. `obs.timeseries.dropped_windows`) is kept
    /// at the ring's eviction count after every window, so
    /// self-observability losses are scrapable rather than silent.
    pub fn spawn_with(
        interval: Duration,
        capacity: usize,
        snapshot: impl Fn() -> MetricsSnapshot + Send + 'static,
        observer: Option<WindowObserver>,
        dropped_gauge: Option<Gauge>,
    ) -> TimeseriesSampler {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            capacity: capacity.max(1),
            windows: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        let base = snapshot();
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obs-timeseries".into())
            .spawn(move || {
                let start = Instant::now();
                let mut prev = base;
                let mut prev_ns = 0u64;
                let mut index = 0u64;
                loop {
                    // Sleep in short slices so stop() never waits a
                    // whole cadence; the final window is the partial
                    // slice up to the stop.
                    let window_end = start.elapsed() + interval;
                    let stopping = loop {
                        if worker.stop.load(Ordering::Acquire) {
                            break true;
                        }
                        let now = start.elapsed();
                        if now >= window_end {
                            break false;
                        }
                        std::thread::sleep((window_end - now).min(Duration::from_millis(2)));
                    };
                    let now_ns = start.elapsed().as_nanos() as u64;
                    let cur = snapshot();
                    let w = Window::from_snapshots(
                        index,
                        prev_ns,
                        now_ns.saturating_sub(prev_ns),
                        &prev,
                        &cur,
                    );
                    if let Some(obs) = &observer {
                        obs(&w);
                    }
                    worker.push(w);
                    if let Some(g) = &dropped_gauge {
                        g.set(worker.dropped.load(Ordering::Relaxed) as i64);
                    }
                    index += 1;
                    prev = cur;
                    prev_ns = now_ns;
                    if stopping {
                        return;
                    }
                }
            })
            .expect("spawn obs-timeseries thread");
        TimeseriesSampler {
            shared,
            handle: Some(handle),
        }
    }

    /// A clonable read-only handle onto this sampler's window ring that
    /// stays valid after [`TimeseriesSampler::stop`].
    #[must_use]
    pub fn reader(&self) -> WindowsReader {
        WindowsReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The retained windows, oldest first.
    #[must_use]
    pub fn windows(&self) -> Vec<Window> {
        self.shared
            .windows
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Windows evicted from the ring so far (0 ⇒ the reconciliation
    /// contract in the module docs holds over [`Self::windows`]).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Stop sampling: emits the final partial window, joins the thread,
    /// and returns every retained window.
    #[must_use]
    pub fn stop(mut self) -> Vec<Window> {
        self.join();
        self.windows()
    }

    fn join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TimeseriesSampler {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn skew_report_shares() {
        let r = SkewReport::from_shard_ops(&[10, 30, 40, 20]);
        assert!((r.max_share - 0.4).abs() < 1e-12);
        assert!((r.mean_share - 0.25).abs() < 1e-12);
        assert_eq!(r.hottest_shard, Some(2));
        assert_eq!(r.total_ops, 100);
        let empty = SkewReport::from_shard_ops(&[0, 0]);
        assert_eq!(empty.max_share, 0.0);
        assert_eq!(empty.hottest_shard, None);
        assert_eq!(SkewReport::from_shard_ops(&[]).total_ops, 0);
    }

    #[test]
    fn window_reduces_a_delta() {
        let reg = MetricsRegistry::new();
        let commits = reg.counter("store.txn.commits");
        let prep = reg.counter("store.txn.conflicts.prepare");
        let val = reg.counter("store.txn.conflicts.validate");
        let s0 = reg.counter("store.shard0.ops");
        let s1 = reg.counter("store.shard1.ops");
        // shard10 exercises the numeric (not lexicographic) placement.
        let s10 = reg.counter("store.shard10.ops");
        let depth = reg.gauge("ingest.depth");
        let earlier = reg.snapshot();
        commits.add(0, 100);
        prep.add(0, 4);
        val.add(0, 6);
        s0.add(0, 30);
        s1.add(0, 60);
        s10.add(0, 10);
        depth.set(7);
        let w = Window::from_snapshots(3, 500, 2_000_000_000, &earlier, &reg.snapshot());
        assert_eq!(w.index, 3);
        assert_eq!(w.commits, 100);
        assert_eq!(w.conflicts, 10);
        assert!((w.commits_per_s - 50.0).abs() < 1e-9);
        assert!((w.conflict_rate - 0.1).abs() < 1e-12);
        assert_eq!(w.queue_depth, 7);
        assert_eq!(w.shard_ops.len(), 11, "dense up to shard10");
        assert_eq!(w.shard_ops[0], 30);
        assert_eq!(w.shard_ops[1], 60);
        assert_eq!(w.shard_ops[10], 10);
        assert_eq!(w.skew.hottest_shard, Some(1));
        assert!((w.skew.max_share - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_window_emits_no_garbage() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("store.txn.commits");
        let snap = reg.snapshot();
        let w = Window::from_snapshots(0, 0, 0, &snap, &snap);
        assert_eq!(w.commits_per_s, 0.0, "zero-length window divides nothing");
        assert_eq!(w.conflict_rate, 0.0);
        let line = w.json_line();
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        assert!(line.contains("\"skew.hottest_shard\":-1"), "{line}");
        for (name, v) in w.flatten() {
            assert!(v.is_finite(), "{name} not finite");
        }
    }

    #[test]
    fn json_line_and_flatten_carry_the_gated_fields() {
        let w = Window {
            index: 2,
            start_ns: 10,
            dur_ns: 1_000_000_000,
            commits: 5,
            conflicts: 1,
            commits_per_s: 5.0,
            conflict_rate: 0.2,
            queue_depth: 3,
            finalize_p99_ns: 4096,
            shard_ops: vec![4, 1],
            skew: SkewReport::from_shard_ops(&[4, 1]),
        };
        let line = w.json_line();
        for field in [
            "\"window\":2",
            "\"commits_per_s\":5.000",
            "\"skew.max_share\":0.800000",
            "\"queue_depth\":3",
            "\"finalize_p99_ns\":4096",
            "\"shard_ops\":[4,1]",
        ] {
            assert!(line.contains(field), "{field} missing from {line}");
        }
        let flat = w.flatten();
        let get = |n: &str| flat.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("skew.max_share"), Some(0.8));
        assert_eq!(get("commits_per_s"), Some(5.0));
        assert_eq!(get("shard0.ops"), Some(4.0));
        assert_eq!(get("shard1.ops"), Some(1.0));
    }

    /// Satellite: per-window deltas must sum to exactly the final
    /// counter values — windows never double-count or drop events, and
    /// stop() flushes the in-flight partial window.
    #[test]
    fn window_deltas_sum_to_final_counters() {
        let reg = MetricsRegistry::new();
        let commits = reg.counter("store.txn.commits");
        let shard0 = reg.counter("store.shard0.ops");
        let shard1 = reg.counter("store.shard1.ops");
        let src = reg.clone();
        let sampler =
            TimeseriesSampler::spawn(Duration::from_millis(5), 64, move || src.snapshot());
        for i in 0..200u64 {
            commits.incr(0);
            shard0.add(0, 2);
            if i % 4 == 0 {
                shard1.incr(0);
            }
            if i % 50 == 0 {
                std::thread::sleep(Duration::from_millis(6));
            }
        }
        // Two completed windows plus the partial one stop() flushes; poll
        // rather than trusting the sleeps above on a loaded machine.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sampler.windows().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let windows = sampler.stop();
        assert!(windows.len() >= 3, "got {} windows", windows.len());
        assert_eq!(windows.iter().map(|w| w.commits).sum::<u64>(), 200);
        let sum0: u64 = windows
            .iter()
            .map(|w| w.shard_ops.first().copied().unwrap_or(0))
            .sum();
        let sum1: u64 = windows
            .iter()
            .map(|w| w.shard_ops.get(1).copied().unwrap_or(0))
            .sum();
        assert_eq!(sum0, shard0.value());
        assert_eq!(sum1, shard1.value());
        // Indexes are consecutive from 0 (nothing dropped).
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
        }
    }

    #[test]
    fn spawn_with_observer_sees_windows_in_order_and_reader_outlives_stop() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("store.txn.commits");
        let fin = reg.histogram("store.pipeline.finalize_ns");
        let src = reg.clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let dropped_gauge = reg.gauge("obs.timeseries.dropped_windows");
        let sampler = TimeseriesSampler::spawn_with(
            Duration::from_millis(5),
            64,
            move || src.snapshot(),
            Some(Box::new(move |w: &Window| {
                sink.lock().unwrap().push(w.index);
            })),
            Some(dropped_gauge.clone()),
        );
        let reader = sampler.reader();
        for _ in 0..100 {
            c.incr(0);
            fin.record(0, 3_000);
        }
        std::thread::sleep(Duration::from_millis(20));
        let windows = sampler.stop();
        // The observer saw every retained window, in order, including
        // the final partial one.
        let seen = seen.lock().unwrap().clone();
        assert_eq!(
            seen,
            windows.iter().map(|w| w.index).collect::<Vec<_>>(),
            "observer order matches the ring"
        );
        // The reader outlives stop() and sees the same ring.
        assert_eq!(reader.windows(), windows);
        assert_eq!(reader.dropped(), 0);
        assert_eq!(dropped_gauge.value(), 0);
        // The windows carry the finalize p99: every sample was 3000 ns,
        // so whichever window(s) caught them report a p99 bucket bound
        // covering 3000 (and windows without samples report 0).
        assert!(
            windows.iter().any(|w| w.finalize_p99_ns >= 3_000),
            "finalize p99 missing from windows"
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("store.txn.commits");
        let src = reg.clone();
        let sampler = TimeseriesSampler::spawn(Duration::from_millis(1), 3, move || src.snapshot());
        c.add(0, 1);
        // The fourth window evicts the first; poll for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sampler.dropped() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dropped = sampler.dropped();
        let windows = sampler.stop();
        assert!(windows.len() <= 3, "capacity respected");
        assert!(dropped > 0, "old windows evicted");
        assert!(
            windows.windows(2).all(|w| w[1].index == w[0].index + 1),
            "retained windows stay consecutive"
        );
    }
}
