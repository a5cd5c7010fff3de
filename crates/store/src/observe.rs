//! Store-side observability: the pre-registered instrument handles the
//! commit pipeline, primitive ops, cursors, EBR, and the shared clock
//! record into.
//!
//! The store holds an `Option<StoreObs>`: `None` (the default
//! constructors) keeps every instrumentation site to one never-taken
//! branch — no atomics, no clock reads — which is what `benchmark/`'s
//! `obs.metrics_overhead_ratio` row bounds. [`BundledStore::with_obs`]
//! builds the handles once at construction so the hot paths never touch
//! the registry lock.
//!
//! [`BundledStore::with_obs`]: crate::BundledStore::with_obs

use std::sync::Arc;

use obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceRecorder};

/// The five commit-pipeline stages in pipeline order; stage `i`'s wall
/// latency lands in the `store.pipeline.{stage}_ns` histogram (indexes
/// into [`StoreObs::stage_ns`]).
pub const PIPELINE_STAGES: [&str; 5] = ["intents", "prepare", "validate", "advance", "finalize"];

/// Instrument handles of one store (see the module docs). Fields are
/// crate-internal: the recording sites live in `sharded.rs`.
pub(crate) struct StoreObs {
    /// The registry the handles were registered in (snapshot source).
    pub(crate) registry: MetricsRegistry,
    /// Per-stage wall latency of the commit pipeline, nanoseconds, one
    /// sample per stage per attempt (a conflict retry re-samples the
    /// stages it re-runs). Indexed by [`PIPELINE_STAGES`].
    pub(crate) stage_ns: [Histogram; 5],
    /// Committed transactions (groups included, once each).
    pub(crate) commits: Counter,
    /// Pipeline-internal retries after a staging lock race (phase 2).
    pub(crate) conflicts_prepare: Counter,
    /// Pipeline-internal retries after a validation lock race (phase 3).
    pub(crate) conflicts_validate: Counter,
    /// Transactions aborted to the caller because a validated read went
    /// stale ([`crate::TxnAborted`]).
    pub(crate) aborts_invalidated: Counter,
    /// Application-level re-runs of a read-write closure after an abort
    /// (recorded by the `txn` crate's retry loop through
    /// [`crate::BundledStore::obs_note_rw_retry`]).
    pub(crate) rw_retries: Counter,
    /// Prepare-cursor seeks that resumed from the retained frontier.
    pub(crate) cursor_hinted: Counter,
    /// Prepare-cursor seeks that paid a full root descent.
    pub(crate) cursor_descents: Counter,
    /// Operations routed to each shard (primitive ops, staged pipeline
    /// ops, and range-query fragments) — the key-skew signal a future
    /// resharding policy consumes.
    pub(crate) shard_ops: Box<[Counter]>,
    /// Bundle entries per shard, sampled at snapshot time.
    pub(crate) shard_entries: Box<[Gauge]>,
    /// EBR nodes retired but not yet freed, summed across shards.
    pub(crate) ebr_pending: Gauge,
    /// EBR nodes retired so far, summed across shards.
    pub(crate) ebr_retired: Gauge,
    /// EBR nodes freed so far, summed across shards.
    pub(crate) ebr_freed: Gauge,
    /// Snapshots currently announced in the shared tracker (live range
    /// queries, store snapshots, read leases).
    pub(crate) rq_active: Gauge,
    /// Current value of the shared clock.
    pub(crate) clock_value: Gauge,
    /// Total advance calls on the shared clock.
    pub(crate) clock_advances: Gauge,
    /// Anomalies the flight recorder has noted over its lifetime
    /// (including those past the retention cap), sampled at snapshot
    /// time — makes self-observability losses scrapable.
    pub(crate) trace_anomalies: Gauge,
    /// The flight recorder (always on with `with_obs`; `None` only when
    /// tracing was explicitly disabled via
    /// [`crate::BundledStore::with_obs_trace_capacity`] with capacity 0
    /// or the registry is inert). Event sites check this once — the
    /// same never-taken-branch contract as the metric handles.
    pub(crate) trace: Option<Arc<TraceRecorder>>,
}

impl StoreObs {
    /// Register (or re-attach to) every store instrument in `registry`,
    /// attaching `trace` as the store's flight recorder.
    pub(crate) fn new(
        registry: &MetricsRegistry,
        shards: usize,
        trace: Option<Arc<TraceRecorder>>,
    ) -> Self {
        let stage_ns =
            PIPELINE_STAGES.map(|s| registry.histogram(&format!("store.pipeline.{s}_ns")));
        StoreObs {
            stage_ns,
            commits: registry.counter("store.txn.commits"),
            conflicts_prepare: registry.counter("store.txn.conflicts.prepare"),
            conflicts_validate: registry.counter("store.txn.conflicts.validate"),
            aborts_invalidated: registry.counter("store.txn.aborts.invalidated"),
            rw_retries: registry.counter("store.txn.rw_retries"),
            cursor_hinted: registry.counter("store.cursor.hinted"),
            cursor_descents: registry.counter("store.cursor.descents"),
            shard_ops: (0..shards)
                .map(|i| registry.counter(&format!("store.shard{i}.ops")))
                .collect(),
            shard_entries: (0..shards)
                .map(|i| registry.gauge(&format!("store.shard{i}.bundle_entries")))
                .collect(),
            ebr_pending: registry.gauge("store.ebr.pending"),
            ebr_retired: registry.gauge("store.ebr.retired"),
            ebr_freed: registry.gauge("store.ebr.freed"),
            rq_active: registry.gauge("store.rq.active_queries"),
            clock_value: registry.gauge("store.clock.value"),
            clock_advances: registry.gauge("store.clock.advances"),
            trace_anomalies: registry.gauge("obs.trace.anomalies"),
            trace,
            registry: registry.clone(),
        }
    }
}
