//! The durability hook of the commit pipeline.
//!
//! A [`CommitLog`] is attached to a [`crate::BundledStore`] *before* the
//! store is shared (see [`crate::BundledStore::attach_commit_log`]) and is
//! called once per committing write group, between validation and
//! finalization: at that point the group's single commit timestamp has
//! been drawn and every per-key outcome is decided, but no bundle entry
//! has been finalized — concurrent snapshots still spin on the pending
//! entries. Logging (and, under [`SyncPolicy::Always`]-style policies,
//! fsyncing) inside that window makes the **durable prefix of the log a
//! prefix of the visible history**: an outcome can only be observed by a
//! reader after the log call for its group has returned.
//!
//! The trait is object-safe and lives in `store` (rather than the `wal`
//! crate that implements it) so the dependency points outward:
//! `wal -> store`, and a store built without a log pays exactly one
//! never-taken branch per commit — the same deal as disabled
//! observability.
//!
//! [`SyncPolicy::Always`]: ../../wal/enum.SyncPolicy.html

use crate::TxnOp;

/// A write-ahead group log attached to the commit pipeline.
///
/// Implementations must be internally synchronized: `log_group` is called
/// concurrently from every committing thread — also from several
/// read-write transactions on one shard, which share its intent — and
/// the log order it chooses is the replay order. That is always safe:
/// two groups sharing a key or a pinned gap (a validated range, a no-op
/// outcome) share a node lock that the first holds from its prepare to
/// its finalize, across its `log_group` call, so the log has
/// *conflicting* groups in timestamp order; all other pairs write
/// disjoint keys and commute under replay. Timestamps in the log are
/// therefore **not** monotonic, not even within one shard.
pub trait CommitLog<K, V>: Send + Sync {
    /// Record one committed group, durably if the sync policy demands it.
    ///
    /// * `ts` — the group's single commit timestamp.
    /// * `ops` — the operations in **caller order**; `order[i]` is the
    ///   caller index of the `i`-th operation in key-ascending shard
    ///   order, so iterating `order` yields the ops sorted the way
    ///   [`crate::BundledStore::apply_grouped`] wants them on replay.
    /// * `applied[order[i]]` — the final outcome of that operation from
    ///   the pipeline's fold (`false` = no-op, e.g. a `Put` on a present
    ///   key).
    /// * `shards` — ascending indices of the shards the group wrote.
    ///
    /// Called while the group's intents and node locks are held and its
    /// bundle entries are still pending; must not call back into the store.
    fn log_group(
        &self,
        tid: usize,
        ts: u64,
        ops: &[TxnOp<K, V>],
        order: &[usize],
        applied: &[bool],
        shards: &[usize],
    );

    /// Force everything logged so far to stable storage (fsync), e.g. at
    /// an [`Ingest::flush`]-style durability barrier or clean shutdown.
    ///
    /// [`Ingest::flush`]: ../../ingest/struct.Ingest.html#method.flush
    fn sync(&self);
}
