//! # store — a sharded, backend-generic KV store with linearizable
//! cross-shard range queries
//!
//! The paper's bundled references give a *single* structure linearizable
//! range queries by ordering every update through one global timestamp.
//! This crate scales that guarantee out: a [`BundledStore`] partitions the
//! keyspace into N contiguous **range shards**, each backed by any bundled
//! workspace structure ([`skiplist::BundledSkipList`],
//! [`lazylist::BundledLazyList`], [`citrus::BundledCitrusTree`]), while
//! every shard orders its updates through **one shared**
//! [`bundle::RqContext`]: the clock and the one EBR collector every shard
//! frees through, whose slots also hold the announced snapshots.
//!
//! Because all shards share the clock, a cross-shard [`range_query`] can
//! pin once, read the clock *once*, announce that snapshot, and then
//! traverse each
//! overlapping shard at that fixed timestamp
//! ([`ShardBackend::range_query_at`]). Every shard serves its fragment of
//! the *same* atomic snapshot — there is no shard skew, and the whole-store
//! range query is linearizable at the moment the clock was read. Sharding
//! meanwhile spreads update traffic over N independent lock domains and N
//! smaller structures, which is what lets the design serve update-heavy
//! traffic (the direction contention-adapting trees and MTASet pursue, here
//! built on bundles).
//!
//! [`range_query`]: bundle::api::RangeQuerySet::range_query
//!
//! ## Pieces
//!
//! * [`BundledStore`] — the store: `get` / `insert` / `remove` /
//!   `multi_get` / `multi_put` plus the linearizable cross-shard
//!   `range_query`. Implements the workspace [`ConcurrentSet`] /
//!   [`RangeQuerySet`] traits, so the whole benchmark harness can drive it
//!   like any single structure.
//! * [`BundledStore::apply_txn`] / [`TxnOp`] — **atomic cross-shard write
//!   transactions**: the backends' two-phase prepare (pending bundle
//!   entries under node locks — the only arbiter between commits, as
//!   between the paper's updates), one shared-clock advance, one commit
//!   timestamp for every entry on every shard. The read-write
//!   transactions of [`BundledStore::apply_rw_txn`] validate their reads
//!   in the same pipeline. The `txn` crate's `WriteTxn` is the ergonomic
//!   staging front-end.
//! * [`BundledStore::apply_grouped`] — **group commit**: the same
//!   pipeline driven by the `ingest` crate's committer threads, which
//!   drain per-shard submission queues and publish a whole super-batch of
//!   independently-submitted operations under **one** clock advance.
//!   Groups are counted
//!   separately in [`TxnStats`] so the clock amortization
//!   (`group_commits / grouped_ops` advances per op) is measurable.
//! * [`ShardBackend`] — what a structure must provide to back a shard:
//!   construction over a shared [`bundle::RqContext`], a range query at a
//!   caller-fixed snapshot timestamp, and the two-phase commit surface,
//!   now cursor-shaped (`txn_begin` / `txn_cursor` +
//!   [`bundle::PrepareCursor`] seeks / `txn_finalize` / `txn_abort`):
//!   each shard's key-sorted op run stages through one **prepare
//!   cursor** that resumes every seek from the previous op's position —
//!   one root descent plus short forward walks per shard instead of a
//!   descent per op. (The pre-cursor point prepares and the
//!   `apply_grouped_unhinted` measurement shim are gone; the cursor
//!   equivalence suite replays batches through test-local one-op cursors
//!   instead.) Implemented for all three bundled structures.
//! * [`BundledStore::with_obs`] — **metrics**: a store built over an
//!   [`obs::MetricsRegistry`] records commit-pipeline stage latencies,
//!   conflict/abort counters by cause, per-shard op counters, cursor
//!   hint rates, and sampled EBR / snapshot / clock gauges (read back
//!   with [`BundledStore::obs_snapshot`]). The default constructors skip
//!   all of it at the cost of one never-taken branch per site.
//! * [`StoreHandle`] / [`BundledStore::register`] — a session API that
//!   manages the dense thread-id registration the reclamation domain
//!   (EBR and snapshot slots) requires: register once, operate without
//!   threading `tid` everywhere, slot returns to the pool on drop.
//!   Registration **blocks** when all slots are taken
//!   ([`BundledStore::try_register`] is the non-blocking variant).
//!
//! ## Semantics change: `multi_put` and `multi_get`
//!
//! `multi_put` used to be a per-key-linearizable batch convenience — a
//! concurrent range query could observe half of a batch. It now routes
//! through [`BundledStore::apply_txn`], so the whole batch commits under
//! **one timestamp**: every range query and snapshot read sees all of it
//! or none of it. `multi_get` is the read-side mirror: the whole batch is
//! answered from one leased [`StoreSnapshot`] read, so every key comes
//! from a single atomic cut of the store.
//!
//! [`ConcurrentSet`]: bundle::api::ConcurrentSet
//! [`RangeQuerySet`]: bundle::api::RangeQuerySet
//!
//! ## Example
//!
//! ```
//! use store::{uniform_splits, SkipListStore};
//! use bundle::api::{ConcurrentSet, RangeQuerySet};
//! use std::sync::Arc;
//!
//! // 4 shards over the keyspace [0, 40_000), up to 2 registered threads.
//! let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 40_000)));
//! let h = store.register();
//! h.insert(5, 50);
//! h.insert(15_000, 150);
//! h.insert(35_000, 350);
//!
//! // One atomic snapshot spanning three shards.
//! let snap = h.range_query_vec(&0, &40_000);
//! assert_eq!(snap, vec![(5, 50), (15_000, 150), (35_000, 350)]);
//! ```

mod backends;
mod commitlog;
mod handle;
mod observe;
mod scratch;
mod sharded;
mod snapshot;

pub use backends::ShardBackend;
pub use bundle::{Conflict, TxnValidateError};
pub use commitlog::CommitLog;
pub use ebr::ReclaimMode;
pub use handle::StoreHandle;
pub use observe::PIPELINE_STAGES;
pub use scratch::TxnBufs;
pub use sharded::{uniform_splits, BundledStore, GroupReceipt, TxnOp, TxnStats};
pub use snapshot::{ReadSet, ShardRead, StoreSnapshot, TxnAborted};

/// A store sharded over bundled lazy skip lists (§5 structures).
pub type SkipListStore<K, V> = BundledStore<K, V, skiplist::BundledSkipList<K, V>>;
/// A store sharded over bundled lazy linked lists (§4 structures).
pub type LazyListStore<K, V> = BundledStore<K, V, lazylist::BundledLazyList<K, V>>;
/// A store sharded over bundled Citrus-style BSTs (§6 structures).
pub type CitrusStore<K, V> = BundledStore<K, V, citrus::BundledCitrusTree<K, V>>;
