//! # bundled-refs
//!
//! Rust reproduction of *"Bundled References: An Abstraction for
//! Highly-Concurrent Linearizable Range Queries"* (Nelson, Hassan,
//! Palmieri — PPoPP 2021).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`bundle`] — the bundled-reference building block (global timestamp,
//!   bundles, `LinearizeUpdateOperation`, range-query tracker, recycler)
//!   and the [`bundle::api`] traits.
//! * [`ebr`] — DEBRA-style epoch-based reclamation.
//! * [`lazylist`], [`skiplist`], [`citrus`] — the three bundled data
//!   structures of the paper plus their `Unsafe` baselines.
//! * [`store`] — the production-direction subsystem grown on top of the
//!   paper: a [`store::BundledStore`] shards the keyspace across many
//!   bundled structures (any backend) that all share one
//!   [`bundle::RqContext`] clock, preserving linearizable range queries
//!   **across shards** while spreading update traffic over independent
//!   lock domains. Includes a tid-managing session API
//!   ([`store::StoreHandle`]) and batched `multi_get` / `multi_put`.
//! * [`txn`] — **serializable cross-shard transactions** over the store:
//!   [`txn::ReadWriteTxn`] answers all of its reads at one leased
//!   snapshot timestamp, records them as a validated read set, and
//!   commits through an explicit prepare → validate → advance-clock →
//!   finalize pipeline (per-shard 2PL intents + the bundle pending-entry
//!   protocol generalized to N shards), so reads still hold at the commit
//!   timestamp — full OCC serializability. [`txn::WriteTxn`] is the
//!   write-only degenerate case (empty read set, infallible commit).
//! * [`ingest`] — the **group-commit ingestion front-end**: clients
//!   fire operations (and whole `WriteTxn`-shaped batches) at per-shard
//!   submission queues and get back waitable [`ingest::Ticket`]s;
//!   committer threads coalesce submissions from different sessions into
//!   super-batches published through
//!   [`store::BundledStore::apply_grouped`] — one shared-clock advance
//!   per *group*, every group an atomic cut, same-key submissions
//!   serialized in queue order with outcome-exact tickets.
//! * [`obs`] — the **unified observability layer**: thread-sharded
//!   lock-free counters, gauges and power-of-two-bucket latency
//!   histograms behind an [`obs::MetricsRegistry`]. A store built with
//!   [`store::BundledStore::with_obs`] (and any `ingest` front-end
//!   spawned over it) records commit-pipeline stage latencies,
//!   conflict/abort causes, per-shard key-skew counters, queue
//!   depth / group size distributions, and EBR/tracker/clock gauges —
//!   one [`obs::MetricsSnapshot`] covers the whole pipeline. The
//!   default constructors skip it all at one never-taken branch per
//!   record site.
//! * [`wal`] — the **group-commit write-ahead log**: an append-only,
//!   CRC-checksummed segment log ([`wal::GroupWal`]) a store attaches as
//!   its [`store::CommitLog`]. Every published group is logged between
//!   validation and finalization — while readers still spin on the
//!   pending entries — so the durable prefix of the log is always a
//!   prefix of the visible history; [`wal::SyncPolicy`] trades fsync
//!   frequency for loss window, and [`wal::WalRecovery`] rebuilds a
//!   fresh store from the log after a crash at any byte boundary.
//! * [`dbsim`] — the DBx1000-style TPC-C substrate of §8.2, including
//!   the ingest-backed NEW_ORDER firehose
//!   ([`dbsim::run_new_order_firehose`]).
//! * [`workloads`] — the harness regenerating every figure and table of
//!   the evaluation, plus the sharded-store scaling sweep
//!   (`store_scaling` binary, `Store*` registry kinds). Performance is
//!   measured by the standalone `benchmark/` package, not here.
//!
//! ## Quickstart
//!
//! ```
//! use bundled_refs::prelude::*;
//!
//! // A bundled skip list shared by up to 4 registered threads.
//! let set = BundledSkipList::<u64, u64>::new(4);
//! set.insert(0, 10, 100);
//! set.insert(0, 20, 200);
//! set.insert(0, 30, 300);
//! assert!(set.contains(0, &20));
//!
//! // A linearizable range query: an atomic snapshot of [10, 25].
//! let snapshot = set.range_query_vec(0, &10, &25);
//! assert_eq!(snapshot, vec![(10, 100), (20, 200)]);
//! ```
//!
//! ## Sharded store
//!
//! ```
//! use bundled_refs::prelude::*;
//! use std::sync::Arc;
//!
//! // 4 range shards over [0, 1000), each a bundled Citrus tree, all on
//! // one shared clock; sessions manage dense thread-id registration.
//! let store = Arc::new(CitrusStore::<u64, u64>::new(2, uniform_splits(4, 1000)));
//! let session = store.register();
//! session.multi_put(&[(10, 1), (400, 2), (900, 3)]);
//!
//! // One atomic snapshot spanning three shards.
//! assert_eq!(session.range_query_vec(&0, &999), vec![(10, 1), (400, 2), (900, 3)]);
//! ```

pub use bundle;
pub use citrus;
pub use dbsim;
pub use ebr;
pub use ingest;
pub use lazylist;
pub use obs;
pub use skiplist;
pub use store;
pub use txn;
pub use wal;
pub use workloads;

/// Convenient glob-importable set of the most commonly used items.
pub mod prelude {
    pub use bundle::api::{ConcurrentSet, RangeQuerySet};
    pub use bundle::{
        Bundle, CursorStats, GlobalTimestamp, PrepareCursor, Recycler, RqContext, RqTracker,
        TwoPhase,
    };
    pub use citrus::{BundledCitrusTree, UnsafeCitrusTree};
    pub use ebr::{Collector, ReclaimMode};
    pub use ingest::{Ingest, IngestConfig, IngestOutcome, IngestStats, QueueFull, Ticket};
    pub use lazylist::{BundledLazyList, UnsafeLazyList};
    pub use obs::{MetricsRegistry, MetricsSnapshot};
    pub use skiplist::{BundledSkipList, UnsafeSkipList};
    pub use store::{
        uniform_splits, BundledStore, CitrusStore, GroupReceipt, LazyListStore, ReadSet,
        ShardBackend, ShardRead, SkipListStore, StoreHandle, StoreSnapshot, TxnAborted, TxnOp,
        TxnStats,
    };
    pub use txn::{ReadWriteTxn, StoreTxnExt, TxnReceipt, TxnStore, WriteTxn};
    pub use wal::{GroupWal, SyncPolicy, WalRecovery};
}
