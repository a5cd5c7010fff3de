//! # obs — low-overhead metrics for the bundled-refs stack
//!
//! A [`MetricsRegistry`] hands out three instrument kinds and reads them
//! all into one consistent [`MetricsSnapshot`]. `store`, `ingest` and
//! `wal` record into it; their tests and `benchmark/`'s panel read it.
//! The instruments:
//!
//! * [`Counter`] — monotonic event count, **thread-striped** (each
//!   recording thread lands on its own cache line, so hot-path
//!   increments never contend);
//! * [`Gauge`] — a point-in-time level (queue depth, retire backlog,
//!   active range queries), usually *sampled* right before a snapshot;
//! * [`Histogram`] — a latency/size distribution over **power-of-two
//!   buckets** (bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`), also
//!   thread-striped, with count and sum tracked alongside the buckets.
//!
//! ## Disabled mode
//!
//! Observability must cost nothing when it is off. Two mechanisms:
//!
//! 1. **Absence** (the store's mechanism): components hold an
//!    `Option<...>` of pre-registered instrument handles and skip every
//!    instrumentation site on `None` — one never-taken branch per site,
//!    no atomics, no clock reads. This is the default production path.
//! 2. **An inert registry** ([`MetricsRegistry::disabled`]): hands out
//!    instruments whose record methods return after one predictable
//!    branch and whose snapshot is empty, for call sites that want an
//!    unconditional handle.
//!
//! `benchmark/`'s `obs.metrics_overhead_ratio` row (gated at 1.05 in CI)
//! checks that mechanism 1 keeps the disabled-mode commit pipeline
//! within noise of the metrics-instrumented one (and therefore of the
//! pre-obs baseline, which the disabled path matches by construction).
//!
//! ## Consistency contract
//!
//! Recording is wait-free (a few relaxed atomic adds; the final count
//! increment uses `Release`). A snapshot taken **after** all recording
//! threads have finished accounts for every event exactly: no lost
//! counts, and each histogram's bucket total equals its event count. A
//! snapshot taken **while** recording is in flight is internally
//! consistent per histogram: the bucket total never lags the event count
//! (buckets are bumped before the `Release` count increment the
//! snapshot's `Acquire` load observes).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two buckets in a [`Histogram`] (covers the full
/// `u64` range: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`, the last bucket saturates).
pub const BUCKETS: usize = 64;

/// Thread stripes per instrument (power of two): recording thread `tid`
/// lands on stripe `tid & (STRIPES - 1)`, its own cache line.
const STRIPES: usize = 16;

/// One cache-line-aligned counter cell (avoids false sharing between
/// stripes; 128 bytes covers adjacent-line prefetchers).
#[repr(align(128))]
#[derive(Default)]
struct CounterCell(AtomicU64);

/// A monotonic, thread-striped event counter.
///
/// Cloning shares the underlying cells; [`Counter::add`] is wait-free
/// and contention-free across threads with distinct `tid & 15`.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

struct CounterCore {
    enabled: bool,
    cells: [CounterCell; STRIPES],
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Counter {
            core: Arc::new(CounterCore {
                enabled,
                cells: Default::default(),
            }),
        }
    }

    /// Add `n` events recorded by thread `tid`.
    #[inline]
    pub fn add(&self, tid: usize, n: u64) {
        if self.core.enabled {
            self.core.cells[tid & (STRIPES - 1)]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one event from thread `tid`.
    #[inline]
    pub fn incr(&self, tid: usize) {
        self.add(tid, 1);
    }

    /// Current total across every stripe.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.core
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .sum()
    }
}

/// A point-in-time level (single atomic; gauges are set rarely — most
/// are sampled right before a snapshot — so striping would buy nothing).
#[derive(Clone)]
pub struct Gauge {
    core: Arc<GaugeCore>,
}

struct GaugeCore {
    enabled: bool,
    value: AtomicI64,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Gauge {
            core: Arc::new(GaugeCore {
                enabled,
                value: AtomicI64::new(0),
            }),
        }
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.core.enabled {
            self.core.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.core.enabled {
            self.core.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

/// One cache-line-aligned histogram stripe: its own buckets, sum, and
/// count, so recording threads on distinct stripes never share a line.
#[repr(align(128))]
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A thread-striped power-of-two-bucket distribution (latencies in
/// nanoseconds, queue depths, group sizes — any `u64` sample).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

struct HistogramCore {
    enabled: bool,
    stripes: Box<[HistStripe]>,
}

/// Bucket index of a sample: 0 for 0, else `floor(log2 v) + 1`, capped
/// at the last bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (what quantiles report).
#[inline]
fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    fn new(enabled: bool) -> Self {
        let stripes = if enabled { STRIPES } else { 0 };
        Histogram {
            core: Arc::new(HistogramCore {
                enabled,
                stripes: (0..stripes).map(|_| HistStripe::default()).collect(),
            }),
        }
    }

    /// Record one sample from thread `tid`.
    ///
    /// Ordering contract: the bucket and sum are bumped *before* the
    /// `Release` count increment, so a snapshot that `Acquire`-loads the
    /// count observes at least that many bucket entries (bucket totals
    /// never lag the count).
    #[inline]
    pub fn record(&self, tid: usize, value: u64) {
        if !self.core.enabled {
            return;
        }
        let s = &self.core.stripes[tid & (STRIPES - 1)];
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Release);
    }

    /// Merge every stripe into one summary (see the ordering contract on
    /// [`Histogram::record`]).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let mut out = HistogramSummary {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        };
        for s in self.core.stripes.iter() {
            // Count first (Acquire pairs with the recorder's Release):
            // every event in `count` already has its bucket visible.
            out.count += s.count.load(Ordering::Acquire);
            out.sum += s.sum.load(Ordering::Relaxed);
            for (i, b) in s.buckets.iter().enumerate() {
                out.buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// A merged, immutable view of one [`Histogram`] at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Events recorded (lower bound while recording is in flight).
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Per-bucket event counts; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSummary {
    /// Total events across buckets (`>= count` while recording is in
    /// flight, `== count` at rest).
    #[must_use]
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample.
    ///
    /// **Empty-histogram contract** (`count == 0`): returns exactly
    /// `0.0`, never `NaN`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (in `0.0..=1.0`).
    /// Power-of-two buckets bound the answer within 2×.
    ///
    /// **Empty-histogram contract** (`bucket_total() == 0`): returns
    /// exactly `0`, for any `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

/// One instrument handle kept in the registry's name table.
#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one snapshot entry.
// Snapshots are cold-path data read a handful of times per run; the
// histogram variant's inline bucket array is not worth a Box'd indirection
// for every consumer pattern-match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A [`Counter`] total.
    Counter(u64),
    /// A [`Gauge`] level.
    Gauge(i64),
    /// A [`Histogram`] summary.
    Histogram(HistogramSummary),
}

/// A consistent point-in-time view of every instrument in one
/// [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per instrument, ascending by name.
    pub entries: Vec<(String, SnapshotValue)>,
}

impl MetricsSnapshot {
    /// Look up one entry by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

/// Hands out named instruments and snapshots them all at once.
///
/// Cloning shares the registry (instruments registered through any clone
/// appear in every clone's snapshot). Registration takes a lock and is
/// meant for construction time; the returned handles are lock-free.
#[derive(Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    instruments: Arc<Mutex<BTreeMap<String, Instrument>>>,
}

impl MetricsRegistry {
    /// A live registry: instruments record, snapshots report.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            instruments: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// An inert registry: instruments are no-ops (one predictable branch
    /// per record), snapshots are empty.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            instruments: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Whether instruments from this registry actually record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter::new(self.enabled)))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("instrument {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge::new(self.enabled)))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("instrument {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.instruments.lock().unwrap_or_else(|p| p.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::new(self.enabled)))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("instrument {name:?} already registered with a different kind"),
        }
    }

    /// Snapshot every registered instrument, sorted by name. Disabled
    /// registries return an empty snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.enabled {
            return MetricsSnapshot {
                entries: Vec::new(),
            };
        }
        let map = self.instruments.lock().unwrap_or_else(|p| p.into_inner());
        MetricsSnapshot {
            entries: map
                .iter()
                .map(|(name, inst)| {
                    let v = match inst {
                        Instrument::Counter(c) => SnapshotValue::Counter(c.value()),
                        Instrument::Gauge(g) => SnapshotValue::Gauge(g.value()),
                        Instrument::Histogram(h) => SnapshotValue::Histogram(h.summary()),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
        // Every value's bucket bound is >= the value.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            assert!(bucket_bound(bucket_index(v)) >= v, "value {v}");
        }
    }

    #[test]
    fn quantiles_and_mean_from_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for v in [1u64, 1, 2, 4, 8, 100] {
            h.record(0, v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 116);
        assert_eq!(s.bucket_total(), 6);
        assert!((s.mean() - 116.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.quantile(0.0), 1, "min lands in bucket [1,1]");
        assert!(s.quantile(0.5) >= 2);
        assert_eq!(s.quantile(1.0), 127, "max lands in bucket [64,127]");
    }

    #[test]
    fn registry_get_or_register_shares_state() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("c");
        let c2 = reg.counter("c");
        c1.incr(0);
        c2.incr(5);
        assert_eq!(reg.counter("c").value(), 2);
        let g = reg.gauge("g");
        g.set(-7);
        g.add(2);
        assert_eq!(reg.gauge("g").value(), -5);
        let snap = reg.snapshot();
        assert_eq!(snap.get("c"), Some(&SnapshotValue::Counter(2)));
        assert_eq!(snap.get("g"), Some(&SnapshotValue::Gauge(-5)));
        assert!(snap.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(0, 10);
        g.set(5);
        h.record(0, 99);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.summary().count, 0);
        assert!(reg.snapshot().entries.is_empty());
    }

    /// Satellite: N threads hammer one registry; the final snapshot must
    /// account for every recorded event — no lost counts, and every
    /// histogram's bucket totals and sum must equal the exact totals.
    #[test]
    fn concurrent_hammer_loses_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let reg = MetricsRegistry::new();
        let c = reg.counter("events");
        let h = reg.histogram("values");
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let c = c.clone();
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                let mut expect_sum = 0u64;
                for i in 0..PER_THREAD {
                    // Deterministic per-thread sample spread across many
                    // buckets, including zeros.
                    let v = (i.wrapping_mul(2654435761) ^ tid as u64) % 10_000;
                    c.incr(tid);
                    h.record(tid, v);
                    expect_sum += v;
                }
                expect_sum
            }));
        }
        let expected_sum: u64 = handles.into_iter().map(|j| j.join().unwrap()).sum();
        let total = THREADS as u64 * PER_THREAD;
        let snap = reg.snapshot();
        assert_eq!(snap.get("events"), Some(&SnapshotValue::Counter(total)));
        match snap.get("values") {
            Some(SnapshotValue::Histogram(s)) => {
                assert_eq!(s.count, total, "no lost count increments");
                assert_eq!(s.bucket_total(), total, "no lost bucket increments");
                assert_eq!(s.sum, expected_sum, "no lost sum");
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// Satellite: snapshots taken *while* recording is in flight must be
    /// internally consistent — a histogram's bucket total never lags its
    /// event count (the Release/Acquire pairing on the count).
    #[test]
    fn snapshot_while_recording_is_consistent() {
        const WRITERS: usize = 4;
        let reg = MetricsRegistry::new();
        let h = reg.histogram("live");
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for tid in 0..WRITERS {
            let h = h.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(tid, i % 4096);
                    i += 1;
                }
                i
            }));
        }
        for _ in 0..2_000 {
            let s = match reg.snapshot().get("live") {
                Some(SnapshotValue::Histogram(s)) => s.clone(),
                other => panic!("expected histogram, got {other:?}"),
            };
            assert!(
                s.bucket_total() >= s.count,
                "bucket total {} lags event count {}",
                s.bucket_total(),
                s.count
            );
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = handles.into_iter().map(|j| j.join().unwrap()).sum();
        let s = h.summary();
        assert_eq!(s.count, written, "final snapshot accounts every event");
        assert_eq!(s.bucket_total(), written);
    }

    /// Satellite: `count == 0` summaries must report exact zeros from
    /// every accessor — no NaN, no garbage bounds.
    #[test]
    fn empty_histogram_semantics_are_defined() {
        let empty = HistogramSummary {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        };
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.mean().is_finite());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "q={q}");
        }
        assert_eq!(empty.bucket_total(), 0);
        assert_eq!(MetricsRegistry::new().histogram("h").summary(), empty);
    }

    #[test]
    fn every_power_of_two_opens_a_new_bucket() {
        for i in 1..BUCKETS - 1 {
            let (lo, hi) = (1 << (i - 1), (1 << i) - 1);
            assert_eq!([bucket_index(lo), bucket_index(hi)], [i, i]);
            assert_eq!(bucket_bound(i), hi);
        }
        assert_eq!(bucket_index(1 << 62), BUCKETS - 1);
    }

    #[test]
    fn counter_stripes_wrap_by_tid_and_sum_exactly() {
        let c = MetricsRegistry::new().counter("c");
        (0..64).for_each(|tid| c.add(tid, tid as u64 + 1));
        assert_eq!(c.value(), 64 * 65 / 2);
        // Stripe 0 is shared by tids 0, 16, 32 and 48.
        assert_eq!(c.core.cells[0].0.load(Ordering::Relaxed), 1 + 17 + 33 + 49);
    }

    #[test]
    fn gauge_set_overrides_and_add_goes_negative() {
        let g = MetricsRegistry::new().gauge("g");
        g.add(5);
        g.add(-12);
        assert_eq!(g.value(), -7);
        g.set(3);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn histogram_edge_samples_land_in_edge_buckets() {
        let h = MetricsRegistry::new().histogram("h");
        h.record(0, 0);
        h.record(1, u64::MAX);
        let s = h.summary();
        assert_eq!([s.buckets[0], s.buckets[BUCKETS - 1]], [1, 1]);
        assert_eq!([s.quantile(0.5), s.quantile(1.0)], [0, u64::MAX]);
    }

    /// `quantile(q)` is the bound of the bucket holding the
    /// `ceil(q · n)`-th smallest sample, with `q` clamped to `[0, 1]`.
    #[test]
    fn quantile_reports_the_bucket_of_the_ranked_sample() {
        let h = MetricsRegistry::new().histogram("h");
        (1..=1000u64).for_each(|v| h.record(0, v));
        let s = h.summary();
        assert_eq!([s.quantile(-1.0), s.quantile(2.0)], [1, 1023]);
        for q in (0..=100).map(|pct| f64::from(pct) / 100.0) {
            let rank = ((q * 1000.0).ceil() as u64).max(1);
            assert_eq!(s.quantile(q), bucket_bound(bucket_index(rank)), "q={q}");
        }
    }

    #[test]
    fn snapshot_is_a_sorted_copy() {
        let reg = MetricsRegistry::new();
        for name in ["store.shard2.ops", "b", "store.shard10.ops", "a"] {
            reg.counter(name).incr(0);
        }
        let snap = reg.snapshot();
        reg.counter("a").incr(0);
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "store.shard10.ops", "store.shard2.ops"]);
        assert_eq!(snap.get("a"), Some(&SnapshotValue::Counter(1)));
    }

    #[test]
    fn registry_clones_share_one_name_table() {
        let reg = MetricsRegistry::default();
        reg.clone().counter("x").incr(3);
        assert_eq!(reg.snapshot().get("x"), Some(&SnapshotValue::Counter(1)));
    }

    #[test]
    fn histogram_stripes_merge_into_one_summary() {
        let h = MetricsRegistry::new().histogram("h");
        let mut want = MetricsRegistry::new().histogram("h").summary();
        for v in (0..40u64).map(|tid| tid * tid * 37) {
            h.record(v as usize, v);
            (want.count, want.sum) = (want.count + 1, want.sum + v);
            want.buckets[bucket_index(v)] += 1;
        }
        assert_eq!(h.summary(), want);
    }

    #[test]
    fn disabled_histogram_allocates_no_stripes() {
        let (off, on) = (MetricsRegistry::disabled(), MetricsRegistry::new());
        assert_eq!(off.histogram("h").core.stripes.len(), 0);
        assert_eq!(on.histogram("h").core.stripes.len(), STRIPES);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn histogram_name_reused_as_a_counter_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("x");
        let _ = reg.counter("x");
    }
}
