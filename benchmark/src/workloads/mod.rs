//! The five workloads. Each generates its inputs from the seed, sets
//! the system up (timed), runs two load threads over the timeline, and
//! checks its outputs.

pub mod ingest;
pub mod paper_mix;
pub mod rq_scan;
pub mod txn_contended;

use std::sync::Arc;
use std::time::Duration;

use bundle::Recycler;
use ebr::ReclaimMode;
use store::{uniform_splits, BundledStore, ShardBackend, StoreHandle};

use crate::harness::{Measured, RunCfg};
use crate::spec::*;

pub type Store<S> = BundledStore<u64, u64, S>;
pub type Handle<S> = StoreHandle<u64, u64, S>;

/// A backend a store workload can run on: the plain structure in the
/// untraced run, `Timed<_>` around it in the traced one.
pub trait Backend: ShardBackend<u64, u64> + Send + Sync + 'static {}
impl<S: ShardBackend<u64, u64> + Send + Sync + 'static> Backend for S {}

pub fn new_store<S: Backend>(key_range: u64) -> Store<S> {
    Store::with_mode(
        MAX_THREADS,
        ReclaimMode::Reclaim,
        uniform_splits(SHARDS, key_range),
    )
}

/// A shared store with its recycler running on a session of its own.
pub struct StoreEnv<S: Backend> {
    // Declared first, so the recycler stops before its session ends.
    _recycler: Recycler,
    _recycler_session: Handle<S>,
    pub store: Arc<Store<S>>,
}

impl<S: Backend> StoreEnv<S> {
    pub fn new(store: Arc<Store<S>>, delay_ms: u64) -> Self {
        let session = store.register();
        StoreEnv {
            _recycler: store.spawn_recycler(session.tid(), Duration::from_millis(delay_ms)),
            _recycler_session: session,
            store,
        }
    }
}

/// The end-of-run space figures every store workload reports.
pub fn space_metrics<S: Backend>(h: &Handle<S>) -> Vec<(&'static str, f64)> {
    let store = h.store();
    let pending: u64 = (0..store.shard_count())
        .map(|i| store.shard(i).reclaim_stats().pending())
        .sum();
    vec![
        (
            "bundle.entries_per_key",
            store.bundle_entries(h.tid()) as f64 / h.len().max(1) as f64,
        ),
        ("ebr.retired_backlog", pending as f64),
    ]
}

pub fn run(workload: &str, cfg: &RunCfg) -> Measured {
    match workload {
        "paper_mix" => paper_mix::run(cfg),
        "rq_scan" => rq_scan::run(cfg),
        "ingest_pipelined" => ingest::run(cfg, false),
        "ingest_durable" => ingest::run(cfg, true),
        "txn_contended" => txn_contended::run(cfg),
        other => panic!("unknown workload {other}"),
    }
}
