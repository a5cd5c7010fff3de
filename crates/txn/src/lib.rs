//! # txn — serializable transactions for the sharded bundled store
//!
//! The sharded [`store::BundledStore`] gives *reads* the paper's headline
//! guarantee across shards (one shared clock, one timestamp per range
//! query, no shard skew) and — since the write-transaction layer — gives
//! multi-key write batches a single atomic commit timestamp. This crate
//! is the application surface on top of both: [`ReadWriteTxn`], a full
//! serializable read-write transaction, and [`WriteTxn`], its write-only
//! specialization (the original API, preserved as a thin wrapper).
//!
//! ## Read-write transactions
//!
//! A [`ReadWriteTxn`] answers every read at **one leased snapshot
//! timestamp**: the first read opens a [`store::StoreSnapshot`] — pin the
//! store's one collector, then read the shared clock once and announce it
//! ([`bundle::RqContext::announce_rq`]) — and every `get`/`range` resolves
//! through the bundles at that timestamp, overlaid with the transaction's
//! own staged writes (read-your-writes). Each validated read records the
//! node identities it observed into the transaction's **read set**.
//!
//! Both sets are flat and warm. Writes are staged into one key-sorted
//! `Vec<TxnOp>` — the very slice `commit` hands to the store, which
//! stages it without re-sorting or copying — and reads into a
//! [`store::ReadSet`] (two vectors, whatever the number of reads). The
//! buffers behind them ([`store::TxnBufs`]) belong to the *session*: a
//! transaction takes them when it begins and returns them, cleared, on
//! every exit — commit, abort, rollback, drop, unwind — so the session's
//! next transaction records and stages without allocating.
//!
//! [`ReadWriteTxn::commit`] hands writes + read set to
//! [`store::BundledStore::apply_rw_txn`], an explicit **prepare →
//! validate → advance-clock → finalize** pipeline that takes no
//! store-level lock — node locks are the only arbiter between it, other
//! commits and the primitive operations:
//!
//! 1. **prepare**: writes stage eagerly under node locks, bundle entries
//!    pending (Algorithm 2 state), pre/post images recorded;
//! 2. **validate**: every recorded read range is re-walked in the live
//!    structure, locked (the write path's no-op outcome pinning applied
//!    to reads), and compared against the recorded node identities —
//!    reconciled with the transaction's own staged writes. A stale read
//!    aborts to the caller as [`store::TxnAborted`]; a lost lock race
//!    rolls back, backs off and retries internally;
//! 3. the shared clock advances **once** — the serialization point. The
//!    validated reads still hold there because their locks are still
//!    held, so the transaction behaves exactly as if it executed
//!    atomically at that timestamp: full serializability;
//! 4. every pending entry finalizes with that single timestamp.
//!
//! A transaction with reads and no writes skips all of it: every read
//! was a bundle read at the leased timestamp, which lies inside the
//! transaction's real-time interval, so the store commits it at that
//! timestamp ([`ReadWriteTxn::read_ts`], which the read set records)
//! without a lock or a walk, and it never aborts.
//!
//! On [`store::TxnAborted`] the application re-runs the transaction body
//! against a fresh snapshot ([`StoreTxnExt::run_rw`] packages the retry
//! loop).
//!
//! ## Write-only transactions
//!
//! [`WriteTxn`] is [`ReadWriteTxn`] with an empty read set: the validate
//! phase is vacuous, commit can never abort, and the behavior (and API)
//! of the original write-only layer is preserved — `commit` returns a
//! plain [`TxnReceipt`]. Its `get` is read-your-writes falling through to
//! a *versioned* store read at the leased snapshot timestamp (all gets of
//! one transaction observe one atomic cut), without joining the read set.
//!
//! ## Reads outside transactions
//!
//! Primitive `get`/`contains` on the store read newest pointers and may
//! observe a transaction's eagerly-applied writes before its commit
//! timestamp (read-uncommitted, zero overhead). [`StoreTxnExt::snapshot_get`]
//! is the linearizable single-key snapshot read.
//!
//! ## Durability
//!
//! A transaction's commit is durable exactly when the store carries a
//! commit log (`crates/wal` attached via
//! [`store::BundledStore::attach_commit_log`]): the commit pipeline logs
//! the write set — under the transaction's single commit timestamp, the
//! same `ts` reported in [`TxnReceipt`] — *before* finalizing any bundle
//! entry, so the durable prefix of the log is always a prefix of the
//! visible history. Under `SyncPolicy::Always`, `commit` returning means
//! the transaction is on disk; under the batching policies, durability
//! lags by at most the policy's group budget until the next sync barrier
//! (`Ingest::flush`, shutdown, or segment rotation). Without a log
//! (the default) commits are volatile and the pipeline pays one
//! never-taken branch.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use store::{uniform_splits, SkipListStore};
//! use txn::StoreTxnExt;
//!
//! let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 1000)));
//! let session = store.register();
//!
//! // Write-only: stage a cross-shard batch, commit atomically.
//! let mut txn = session.txn();
//! txn.put(10, 1).put(400, 2).remove(&900);
//! assert_eq!(txn.get(&10), Some(1), "read-your-writes");
//! let receipt = txn.commit();
//! assert_eq!(receipt.applied_count(), 2);
//!
//! // Read-write: a serializable read-modify-write with automatic retry.
//! let (_, receipt) = session.run_rw(|txn| {
//!     let v = txn.get(&400).unwrap_or(0);
//!     txn.set(400, v + 1);
//! });
//! assert_eq!(receipt.applied_count(), 1);
//! assert_eq!(session.snapshot_get(&400), Some(3));
//! ```

use bundle::api::RangeQuerySet;
use store::{
    BundledStore, ShardBackend, StoreHandle, StoreSnapshot, TxnAborted, TxnBufs, TxnOp, TxnStats,
};

/// Outcome of a committed transaction: for every staged key, whether the
/// write took effect (`true` = the put inserted a new key / the remove
/// removed an existing one; `false` = set-semantics no-op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnReceipt<K> {
    /// Per-key outcomes in ascending key order.
    pub applied: Vec<(K, bool)>,
    /// The store-wide transaction statistics after this commit.
    pub stats: TxnStats,
    /// The commit timestamp: the single shared-clock value every write of
    /// the transaction published at (for a transaction without writes,
    /// the leased timestamp its recorded reads were answered at). `None`
    /// only for the free empty commit — no write, no recorded read — that
    /// never touched the store. Comparable
    /// across the whole snapshot domain — including the `ingest`
    /// front-end's group tickets, whose outcomes carry the same clock
    /// values — so receipts from every commit path order consistently.
    pub commit_ts: Option<u64>,
}

impl<K> TxnReceipt<K> {
    /// Number of writes that took effect.
    #[must_use]
    pub fn applied_count(&self) -> usize {
        self.applied.iter().filter(|(_, ok)| *ok).count()
    }
}

/// A serializable multi-key, multi-shard **read-write transaction** over
/// a [`store::BundledStore`] (see the crate docs for the protocol).
///
/// Reads are answered at one leased snapshot timestamp and recorded for
/// commit-time validation ([`ReadWriteTxn::get`] / [`ReadWriteTxn::range`];
/// the `peek` variants skip recording). Writes are staged locally (one
/// key-sorted vector ⇒ deduplicated, read-your-writes by binary search;
/// staging in ascending key order appends, an out-of-order key shifts the
/// tail) and touch the store only at [`ReadWriteTxn::commit`], which
/// either commits everything under one timestamp — with every validated
/// read still current there — or aborts completely
/// ([`store::TxnAborted`], re-run against a fresh snapshot). Dropping the
/// transaction (or [`ReadWriteTxn::rollback`]) discards it with zero
/// store-side cleanup.
pub struct ReadWriteTxn<'a, K, V, S> {
    store: &'a BundledStore<K, V, S>,
    tid: usize,
    /// Lazily opened at the first read; holds the read lease and the
    /// per-shard EBR pins until commit/rollback.
    snapshot: Option<StoreSnapshot<'a, K, V, S>>,
    /// The session's read-set and write-set buffers, returned on drop.
    bufs: TxnBufs<K, V>,
}

impl<K, V, S> Drop for ReadWriteTxn<'_, K, V, S> {
    /// Every exit — commit, abort, rollback, plain drop, an unwinding
    /// caller — hands the buffers back to the session.
    fn drop(&mut self) {
        self.store
            .return_txn_bufs(self.tid, std::mem::take(&mut self.bufs));
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug, S> std::fmt::Debug for ReadWriteTxn<'_, K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadWriteTxn")
            .field("tid", &self.tid)
            .field("read_ts", &self.snapshot.as_ref().map(|s| s.ts()))
            .field("reads", &self.bufs.reads.len())
            .field("writes", &self.bufs.writes)
            .finish()
    }
}

impl<'a, K, V, S> ReadWriteTxn<'a, K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// Begin a transaction using an explicitly-managed dense thread id.
    ///
    /// The caller is responsible for the usual tid discipline (one thread
    /// per id at a time, no concurrent range query or second snapshot on
    /// the id while the transaction has read anything); prefer
    /// [`StoreTxnExt::rw_txn`] on a registered [`StoreHandle`].
    pub fn with_tid(store: &'a BundledStore<K, V, S>, tid: usize) -> Self {
        ReadWriteTxn {
            store,
            tid,
            snapshot: None,
            bufs: store.take_txn_bufs(tid),
        }
    }

    /// The leased read timestamp, if any read has happened yet. All reads
    /// of the transaction are answered at this one timestamp.
    #[must_use]
    pub fn read_ts(&self) -> Option<u64> {
        self.snapshot.as_ref().map(|s| s.ts())
    }

    /// Number of recorded (commit-validated) read fragments.
    #[must_use]
    pub fn read_set_len(&self) -> usize {
        self.bufs.reads.len()
    }

    /// The snapshot every read is answered at, opened at the first one.
    /// (Takes the fields it needs, so a caller can record into
    /// `self.bufs` while it holds the snapshot.)
    fn snapshot_in<'s>(
        slot: &'s mut Option<StoreSnapshot<'a, K, V, S>>,
        store: &'a BundledStore<K, V, S>,
        tid: usize,
    ) -> &'s StoreSnapshot<'a, K, V, S> {
        slot.get_or_insert_with(|| store.snapshot(tid))
    }

    /// Where `key`'s staged write is, or where it would be inserted.
    fn staged_at(&self, key: &K) -> Result<usize, usize> {
        self.bufs.writes.binary_search_by(|op| op.key().cmp(key))
    }

    /// What the staged write of `key`, if any, makes a read of it return.
    fn staged_value(&self, key: &K) -> Option<Option<V>> {
        let op = &self.bufs.writes[self.staged_at(key).ok()?];
        Some(match op {
            TxnOp::Put(_, v) | TxnOp::Set(_, v) => Some(v.clone()),
            TxnOp::Remove(_) => None,
        })
    }

    /// Stage `op`, replacing any earlier staged write of its key.
    fn stage(&mut self, op: TxnOp<K, V>) -> &mut Self {
        match self.staged_at(op.key()) {
            Ok(i) => self.bufs.writes[i] = op,
            Err(i) => self.bufs.writes.insert(i, op),
        }
        self
    }

    /// Validated read: staged writes first (read-your-writes), then a
    /// snapshot read at the leased timestamp, **recorded** into the read
    /// set — commit fails unless the key is still unchanged at the commit
    /// timestamp.
    pub fn get(&mut self, key: &K) -> Option<V> {
        if let Some(staged) = self.staged_value(key) {
            return staged;
        }
        Self::snapshot_in(&mut self.snapshot, self.store, self.tid)
            .get_recorded(key, &mut self.bufs.reads)
    }

    /// Unvalidated read: same snapshot semantics as [`ReadWriteTxn::get`]
    /// but the observation does not join the read set — commit will not
    /// re-check it. Use for reads whose staleness the application
    /// tolerates (e.g. a scan that only seeds a later validated read).
    pub fn peek(&mut self, key: &K) -> Option<V> {
        match self.staged_value(key) {
            Some(staged) => staged,
            None => Self::snapshot_in(&mut self.snapshot, self.store, self.tid).get(key),
        }
    }

    /// Validated range read: collect `low..=high` at the leased snapshot
    /// timestamp, overlay the transaction's staged writes, and record the
    /// observation (per overlapping shard, empty fragments included — so
    /// phantoms inserted into the range abort the commit).
    pub fn range(&mut self, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        Self::snapshot_in(&mut self.snapshot, self.store, self.tid).range_recorded(
            low,
            high,
            out,
            &mut self.bufs.reads,
        );
        self.overlay(low, high, out);
        out.len()
    }

    /// Unvalidated range read ([`ReadWriteTxn::peek`]'s range analogue).
    pub fn range_peek(&mut self, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        Self::snapshot_in(&mut self.snapshot, self.store, self.tid).range(low, high, out);
        self.overlay(low, high, out);
        out.len()
    }

    /// Merge the staged writes of `low..=high` over a sorted snapshot
    /// fragment (read-your-writes for range reads).
    fn overlay(&self, low: &K, high: &K, out: &mut Vec<(K, V)>) {
        let writes = &self.bufs.writes;
        let from = writes.partition_point(|op| op.key() < low);
        for op in writes[from..].iter().take_while(|op| op.key() <= high) {
            let at = out.binary_search_by(|e| e.0.cmp(op.key()));
            match (op, at) {
                (TxnOp::Put(_, v) | TxnOp::Set(_, v), Ok(i)) => out[i].1 = v.clone(),
                (TxnOp::Put(k, v) | TxnOp::Set(k, v), Err(i)) => out.insert(i, (*k, v.clone())),
                (TxnOp::Remove(_), Ok(i)) => drop(out.remove(i)),
                (TxnOp::Remove(_), Err(_)) => {}
            }
        }
    }

    /// Stage `key -> value` (set-insert at commit: a no-op if the key is
    /// already present). Overwrites any earlier staged write of `key`.
    pub fn put(&mut self, key: K, value: V) -> &mut Self {
        self.stage(TxnOp::Put(key, value))
    }

    /// Stage an upsert of `key -> value`: at commit the current value (if
    /// any) is replaced, under the transaction's single timestamp — no
    /// snapshot ever sees the key absent or half-updated. Overwrites any
    /// earlier staged write of `key`.
    pub fn set(&mut self, key: K, value: V) -> &mut Self {
        self.stage(TxnOp::Set(key, value))
    }

    /// Stage a removal of `key`. Overwrites any earlier staged write.
    pub fn remove(&mut self, key: &K) -> &mut Self {
        self.stage(TxnOp::Remove(*key))
    }

    /// Number of staged writes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bufs.writes.len()
    }

    /// `true` when nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bufs.writes.is_empty()
    }

    /// Discard the transaction: staged writes vanish, the read lease and
    /// shard pins release. Equivalent to dropping it.
    pub fn rollback(self) {}

    /// Commit: all staged writes become visible at one timestamp, on
    /// every shard, with every validated read checked (and locked) to
    /// still hold at that timestamp — or nothing happens at all and
    /// [`store::TxnAborted`] asks the caller to re-run against a fresh
    /// snapshot. Internal lock conflicts retry transparently.
    ///
    /// A transaction with reads but no writes is a *read-only*
    /// serializable transaction: the store commits it at its leased read
    /// timestamp ([`ReadWriteTxn::read_ts`]) without entering the commit
    /// pipeline, so it neither waits nor aborts.
    pub fn commit(mut self) -> Result<TxnReceipt<K>, TxnAborted> {
        let store = self.store;
        let TxnBufs { reads, writes } = &self.bufs;
        if writes.is_empty() && reads.is_empty() {
            return Ok(TxnReceipt {
                applied: Vec::new(),
                stats: store.txn_stats(),
                commit_ts: None,
            });
        }
        let outcome = store.apply_rw_txn_with(self.tid, writes, reads, |results, ts| {
            let keys = writes.iter().map(|op| *op.key());
            (keys.zip(results.iter().copied()).collect(), ts)
        });
        // The snapshot (read lease + per-shard EBR pins) must survive
        // until validation finished comparing node identities; only now
        // may it release.
        self.snapshot = None;
        let (applied, ts) = outcome?;
        Ok(TxnReceipt {
            applied,
            stats: store.txn_stats(),
            commit_ts: Some(ts),
        })
    }
}

/// A multi-key, multi-shard **write-only** transaction: the original
/// write-transaction API, now a thin wrapper over [`ReadWriteTxn`] with
/// an empty read set — commit can never fail validation, so it returns a
/// plain [`TxnReceipt`] exactly as before.
///
/// [`WriteTxn::get`] is read-your-writes falling through to a *versioned*
/// snapshot read at the transaction's leased timestamp (all gets observe
/// one atomic cut) without joining the read set; use [`ReadWriteTxn`]
/// when reads must be serializable with the writes.
pub struct WriteTxn<'a, K, V, S> {
    inner: ReadWriteTxn<'a, K, V, S>,
}

impl<K: std::fmt::Debug, V: std::fmt::Debug, S> std::fmt::Debug for WriteTxn<'_, K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTxn")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<'a, K, V, S> WriteTxn<'a, K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// Begin a write-only transaction on an explicitly-managed dense
    /// thread id (prefer [`StoreTxnExt::txn`] on a registered handle).
    pub fn with_tid(store: &'a BundledStore<K, V, S>, tid: usize) -> Self {
        WriteTxn {
            inner: ReadWriteTxn::with_tid(store, tid),
        }
    }

    /// Stage `key -> value` (set-insert at commit). Overwrites any
    /// earlier staged write of `key`.
    pub fn put(&mut self, key: K, value: V) -> &mut Self {
        self.inner.put(key, value);
        self
    }

    /// Stage an upsert of `key -> value` (atomic replace at commit).
    pub fn set(&mut self, key: K, value: V) -> &mut Self {
        self.inner.set(key, value);
        self
    }

    /// Stage a removal of `key`.
    pub fn remove(&mut self, key: &K) -> &mut Self {
        self.inner.remove(key);
        self
    }

    /// Read-your-writes lookup: staged writes first, then a versioned
    /// snapshot read at the transaction's leased timestamp (atomic with
    /// respect to every committed transaction; not validated at commit).
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.inner.peek(key)
    }

    /// Number of staged writes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Discard the staged writes (equivalent to dropping).
    pub fn rollback(self) {}

    /// Atomically commit the staged writes: all of them become visible at
    /// one timestamp, on every shard, or — on internal conflict — the
    /// commit retries until it succeeds.
    pub fn commit(self) -> TxnReceipt<K> {
        self.inner
            .commit()
            .expect("write-only transactions record no reads and cannot fail validation")
    }

    /// Turn the staged writes into a key-sorted, deduplicated
    /// [`TxnOp`] batch *without committing*: the hand-off to the
    /// `ingest` front-end's `submit_batch`, which publishes the whole
    /// batch atomically inside a group commit (one clock advance shared
    /// with every other submission in the group). The builder's staging
    /// semantics — last write per key wins, read-your-writes `get` —
    /// apply unchanged; only the commit path differs.
    #[must_use]
    pub fn into_ops(mut self) -> Vec<TxnOp<K, V>> {
        std::mem::take(&mut self.inner.bufs.writes)
    }
}

/// Linearizable single-key read: a degenerate range query `[key, key]`
/// resolved through the bundles at one shared-clock timestamp, so it
/// serializes with every committed transaction (unlike the primitive
/// `get`, which reads newest pointers and may observe uncommitted eager
/// writes).
fn snapshot_get<K, V, S>(store: &BundledStore<K, V, S>, tid: usize, key: &K) -> Option<V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    let mut out = Vec::with_capacity(1);
    store.range_query(tid, key, key, &mut out);
    out.pop().map(|(_, v)| v)
}

/// Transaction entry points for a registered [`StoreHandle`] session.
pub trait StoreTxnExt<'a, K, V, S> {
    /// Begin a write-only transaction bound to this session's thread id.
    fn txn(&'a self) -> WriteTxn<'a, K, V, S>;

    /// Begin a serializable read-write transaction bound to this
    /// session's thread id.
    fn rw_txn(&'a self) -> ReadWriteTxn<'a, K, V, S>;

    /// Run `body` inside a read-write transaction, committing at the end;
    /// on [`store::TxnAborted`] (a validated read went stale) the body
    /// re-runs against a fresh snapshot until the commit succeeds.
    /// Returns the last body result and the commit receipt.
    fn run_rw<R>(
        &'a self,
        body: impl FnMut(&mut ReadWriteTxn<'a, K, V, S>) -> R,
    ) -> (R, TxnReceipt<K>);

    /// Linearizable single-key read that serializes with transactions.
    fn snapshot_get(&self, key: &K) -> Option<V>;
}

impl<'a, K, V, S> StoreTxnExt<'a, K, V, S> for StoreHandle<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    fn txn(&'a self) -> WriteTxn<'a, K, V, S> {
        WriteTxn::with_tid(self.store(), self.tid())
    }

    fn rw_txn(&'a self) -> ReadWriteTxn<'a, K, V, S> {
        ReadWriteTxn::with_tid(self.store(), self.tid())
    }

    fn run_rw<R>(
        &'a self,
        mut body: impl FnMut(&mut ReadWriteTxn<'a, K, V, S>) -> R,
    ) -> (R, TxnReceipt<K>) {
        loop {
            let mut txn = self.rw_txn();
            let r = body(&mut txn);
            match txn.commit() {
                Ok(receipt) => return (r, receipt),
                Err(TxnAborted) => {
                    // Each re-run of the closure after a stale-read abort
                    // is an application-visible retry; the store's
                    // observability layer counts them apart from
                    // pipeline-internal conflict retries.
                    self.store().obs_note_rw_retry(self.tid());
                    continue;
                }
            }
        }
    }

    fn snapshot_get(&self, key: &K) -> Option<V> {
        snapshot_get(self.store(), self.tid(), key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundle::api::ConcurrentSet;
    use std::sync::Arc;
    use store::{uniform_splits, CitrusStore, LazyListStore, SkipListStore};

    #[test]
    fn write_txn_stages_commits_and_reports() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        h.insert(10, 10);

        let mut txn = h.txn();
        assert!(txn.is_empty());
        txn.put(5, 50).put(250, 251).remove(&10).remove(&77);
        // Last write per key wins.
        txn.put(5, 51);
        assert_eq!(txn.len(), 4);
        // Read-your-writes.
        assert_eq!(txn.get(&5), Some(51));
        assert_eq!(txn.get(&10), None, "staged remove shadows the store");
        assert_eq!(txn.get(&999), None);
        let receipt = txn.commit();
        assert_eq!(
            receipt.applied,
            vec![(5, true), (10, true), (77, false), (250, true)]
        );
        assert_eq!(receipt.applied_count(), 3);
        assert_eq!(receipt.stats.commits, 1);

        assert_eq!(h.get(&5), Some(51));
        assert_eq!(h.snapshot_get(&5), Some(51));
        assert!(!h.contains(&10));
        assert_eq!(h.range_query_vec(&0, &400), vec![(5, 51), (250, 251)]);
    }

    #[test]
    fn write_txn_gets_share_one_snapshot() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100)));
        let h = store.register();
        h.insert(10, 1);
        let mut txn = h.txn();
        assert_eq!(txn.get(&10), Some(1));
        // A foreign update after the first get is invisible to the
        // transaction's later gets (one leased timestamp for all reads)...
        store.insert(1, 20, 2);
        store.remove(1, &10);
        assert_eq!(txn.get(&20), None);
        assert_eq!(txn.get(&10), Some(1));
        // ...and being unvalidated, the commit still succeeds.
        let receipt = txn.commit();
        assert_eq!(receipt.applied_count(), 0);
    }

    #[test]
    fn set_upserts_atomically() {
        let store = Arc::new(CitrusStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        h.insert(10, 1);
        h.insert(300, 3);
        let mut txn = h.txn();
        txn.set(10, 100).set(300, 301).set(200, 2);
        assert_eq!(txn.get(&10), Some(100), "read-your-writes sees the upsert");
        let receipt = txn.commit();
        // Set reports whether the key existed before.
        assert_eq!(receipt.applied, vec![(10, true), (200, false), (300, true)]);
        assert_eq!(
            h.range_query_vec(&0, &400),
            vec![(10, 100), (200, 2), (300, 301)]
        );
    }

    #[test]
    fn rollback_and_drop_leave_the_store_untouched() {
        let store = Arc::new(LazyListStore::<u64, u64>::new(1, uniform_splits(3, 90)));
        let h = store.register();
        h.insert(1, 1);
        {
            let mut txn = h.txn();
            txn.put(2, 2).remove(&1);
            txn.rollback();
        }
        {
            let mut txn = h.txn();
            txn.put(3, 3);
            // dropped without commit
        }
        assert_eq!(h.range_query_vec(&0, &90), vec![(1, 1)]);
        assert_eq!(store.txn_stats().commits, 0);
    }

    #[test]
    fn empty_commit_is_free() {
        let store = Arc::new(CitrusStore::<u64, u64>::new(1, uniform_splits(2, 100)));
        let h = store.register();
        let receipt = h.txn().commit();
        assert!(receipt.applied.is_empty());
        assert_eq!(receipt.stats.commits, 0, "empty batch never hits the store");
        assert_eq!(receipt.commit_ts, None, "nothing was published");
    }

    #[test]
    fn receipts_carry_the_commit_timestamp() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        let mut txn = h.txn();
        txn.put(10, 1).put(300, 3);
        let receipt = txn.commit();
        let ts = receipt.commit_ts.expect("writes were published");
        assert_eq!(ts, store.context().read());
        // A later commit gets a strictly newer timestamp.
        let mut txn = h.txn();
        txn.set(10, 2);
        assert!(txn.commit().commit_ts.unwrap() > ts);
        // Read-only commits report their lease, even after a later
        // commit, without advancing the clock.
        let mut txn = h.rw_txn();
        assert_eq!(txn.get(&10), Some(2));
        let lease = txn.read_ts();
        store.insert(1, 20, 2);
        let clock = store.context().read();
        let ro = txn.commit().expect("read-only commits never abort");
        assert_eq!(ro.commit_ts, lease);
        assert!(lease < Some(clock));
        assert_eq!(store.context().read(), clock);
    }

    #[test]
    fn into_ops_hands_staged_writes_to_a_group_submission() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        let mut txn = h.txn();
        txn.put(300, 3).set(10, 1).remove(&42).put(10, 99);
        let ops = txn.into_ops();
        // Key-sorted, deduplicated, last write per key wins.
        assert_eq!(
            ops,
            vec![TxnOp::Put(10, 99), TxnOp::Remove(42), TxnOp::Put(300, 3)]
        );
        // The batch is directly consumable by the grouped-apply path.
        let receipt = store.apply_grouped(h.tid(), &ops);
        assert_eq!(receipt.applied, vec![true, false, true]);
        assert_eq!(h.get(&10), Some(99));
    }

    #[test]
    fn rw_txn_validated_read_modify_write_round_trip() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        h.insert(10, 5);
        h.insert(300, 7);

        let mut txn = h.rw_txn();
        let a = txn.get(&10).unwrap();
        let b = txn.get(&300).unwrap();
        assert_eq!(txn.read_ts(), txn.read_ts(), "one leased timestamp");
        assert!(txn.read_set_len() >= 2);
        txn.set(10, a + b).remove(&300);
        // Read-your-writes through the validated surface.
        assert_eq!(txn.get(&10), Some(12));
        assert_eq!(txn.get(&300), None);
        let receipt = txn.commit().expect("no interference");
        assert_eq!(receipt.applied, vec![(10, true), (300, true)]);
        assert_eq!(h.snapshot_get(&10), Some(12));
        assert!(!h.contains(&300));
        assert_eq!(store.txn_stats().validation_failures, 0);
    }

    #[test]
    fn rw_txn_aborts_on_stale_read_and_run_rw_retries() {
        let store = Arc::new(LazyListStoreU64::new(3, uniform_splits(3, 90)));
        let h = store.register();
        let interferer = store.register();
        h.insert(10, 1);

        // Manual transaction: a foreign write to the read key between the
        // read and the commit aborts it.
        let mut txn = h.rw_txn();
        let v = txn.get(&10).unwrap();
        interferer.remove(&10);
        interferer.insert(10, 50);
        txn.set(10, v + 1);
        assert_eq!(txn.commit(), Err(TxnAborted));
        assert_eq!(store.txn_stats().validation_failures, 1);
        assert_eq!(h.snapshot_get(&10), Some(50), "aborted write invisible");

        // run_rw: the retry converges once interference stops.
        let (seen, receipt) = h.run_rw(|txn| {
            let v = txn.get(&10).unwrap_or(0);
            txn.set(10, v * 2);
            v
        });
        assert_eq!(seen, 50);
        assert_eq!(receipt.applied, vec![(10, true)]);
        assert_eq!(h.snapshot_get(&10), Some(100));
    }

    type LazyListStoreU64 = LazyListStore<u64, u64>;

    #[test]
    fn rw_txn_range_reads_overlay_and_detect_phantoms() {
        let store = Arc::new(CitrusStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let h = store.register();
        let other = store.register();
        for k in [10u64, 150, 250] {
            h.insert(k, k);
        }

        let mut txn = h.rw_txn();
        txn.put(200, 2).remove(&150);
        let mut out = Vec::new();
        txn.range(&0, &399, &mut out);
        assert_eq!(
            out,
            vec![(10, 10), (200, 2), (250, 250)],
            "staged writes overlay the snapshot"
        );
        // A phantom inserted into the validated range aborts the commit.
        other.insert(300, 3);
        assert_eq!(txn.commit(), Err(TxnAborted));
        assert!(h.contains(&150), "aborted remove left the key in place");
        assert!(!h.contains(&200));

        // Unvalidated range peeks tolerate interference.
        let mut txn = h.rw_txn();
        txn.range_peek(&0, &399, &mut out);
        other.insert(310, 31);
        assert!(txn.commit().is_ok());
    }

    #[test]
    fn rw_txn_read_only_serializable_scan() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100)));
        let h = store.register();
        h.insert(10, 1);
        h.insert(60, 6);
        let clock = store.context().read();
        let mut txn = h.rw_txn();
        let mut out = Vec::new();
        txn.range(&0, &99, &mut out);
        assert_eq!(out, vec![(10, 1), (60, 6)]);
        let receipt = txn.commit().expect("uncontended read-only txn commits");
        assert!(receipt.applied.is_empty());
        assert_eq!(receipt.commit_ts, Some(clock), "commits at its lease");
        assert_eq!(receipt.stats.commits, 0, "never enters the pipeline");
        assert_eq!(
            store.context().read(),
            clock,
            "read-only commit never advances the clock"
        );
    }

    /// The session's read-set / write-set buffers come back on every way
    /// out of a transaction, so the next one starts warm — and a second
    /// transaction opened while they are out just starts cold.
    #[test]
    fn every_exit_returns_the_sessions_buffers() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(4, 400)));
        let (h, other) = (store.register(), store.register());
        h.insert(10, 1);
        let returned = || store.txn_bufs_returned(h.tid());
        let read_and_bump = |txn: &mut ReadWriteTxn<'_, u64, u64, _>| {
            let v = txn.get(&10).unwrap();
            txn.set(10, v + 1).put(300, 3);
        };

        // commit -> Ok
        let mut txn = h.rw_txn();
        read_and_bump(&mut txn);
        assert_eq!(returned(), 0, "still out");
        assert!(txn.commit().is_ok());
        assert_eq!(returned(), 1);
        // commit -> Err(TxnAborted)
        let mut txn = h.rw_txn();
        read_and_bump(&mut txn);
        other.remove(&10);
        other.insert(10, 7);
        assert_eq!(txn.commit(), Err(TxnAborted));
        assert_eq!(returned(), 2);
        // rollback, then a plain drop
        let mut txn = h.rw_txn();
        read_and_bump(&mut txn);
        txn.rollback();
        assert_eq!(returned(), 3);
        {
            let mut txn = h.rw_txn();
            read_and_bump(&mut txn);
        }
        assert_eq!(returned(), 4);
        // a panic in the caller's closure under `run_rw`
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.run_rw(|txn| {
                read_and_bump(txn);
                panic!("the application's closure failed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(returned(), 5);
        assert_eq!(store.context().active_rqs(), 0, "the lease unwound too");
        assert_eq!(
            h.snapshot_get(&10),
            Some(7),
            "nothing of the four was applied"
        );

        // Two transactions open on one session: the second starts cold,
        // both work, both hand their buffers back.
        let (mut first, mut second) = (h.txn(), h.txn());
        first.put(20, 2);
        second.put(30, 3);
        assert_eq!(first.commit().applied, vec![(20, true)]);
        assert_eq!(second.commit().applied, vec![(30, true)]);
        assert_eq!(returned(), 7);
        assert_eq!(store.txn_bufs_returned(other.tid()), 0, "per session");
        // `into_ops` keeps the write set; the (now empty) buffers return.
        let mut txn = h.txn();
        txn.put(40, 4);
        assert_eq!(txn.into_ops(), vec![TxnOp::Put(40, 4)]);
        assert_eq!(returned(), 8);
    }

    #[test]
    fn concurrent_sessions_commit_atomically() {
        // Several sessions commit multi-shard batches while others take
        // snapshot reads; every batch is tagged so a torn commit would be
        // visible as a partial tag group.
        const WRITERS: usize = 3;
        const BATCHES: u64 = 120;
        let ts = Arc::new(LazyListStore::<u64, u64>::new(
            WRITERS + 1,
            uniform_splits(4, 4_000),
        ));
        let mut joins = Vec::new();
        for w in 0..WRITERS as u64 {
            let ts = Arc::clone(&ts);
            joins.push(std::thread::spawn(move || {
                let h = ts.register();
                for b in 0..BATCHES {
                    let mut txn = h.txn();
                    for shard in 0..4u64 {
                        txn.put(shard * 1_000 + w * BATCHES + b, w);
                    }
                    assert_eq!(txn.commit().applied_count(), 4);
                }
            }));
        }
        let reader = {
            let ts = Arc::clone(&ts);
            std::thread::spawn(move || {
                let h = ts.register();
                let mut out = Vec::new();
                for _ in 0..200 {
                    h.range_query(&0, &4_000, &mut out);
                    assert!(
                        out.len().is_multiple_of(4),
                        "torn cross-shard commit observed: {} keys",
                        out.len()
                    );
                }
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ts.txn_stats().commits, WRITERS as u64 * BATCHES);
        let h = ts.register();
        assert_eq!(h.len(), (WRITERS as u64 * BATCHES * 4) as usize);
    }

    #[test]
    fn concurrent_rw_counters_never_lose_updates() {
        // The OCC acid test: N threads each increment a shared counter M
        // times through read-modify-write transactions. Lost updates would
        // leave the counter below N*M; validated read sets forbid them.
        const THREADS: usize = 4;
        const INCREMENTS: u64 = 150;
        let ts = Arc::new(SkipListStore::<u64, u64>::new(
            THREADS,
            uniform_splits(4, 400),
        ));
        {
            let h = ts.register();
            h.insert(42, 0);
            h.insert(342, 0);
        }
        let joins: Vec<_> = (0..THREADS)
            .map(|_| {
                let ts = Arc::clone(&ts);
                std::thread::spawn(move || {
                    let h = ts.register();
                    for _ in 0..INCREMENTS {
                        h.run_rw(|txn| {
                            // Two counters on different shards, one txn.
                            let a = txn.get(&42).unwrap();
                            let b = txn.get(&342).unwrap();
                            txn.set(42, a + 1).set(342, b + 1);
                        });
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let h = ts.register();
        let total = THREADS as u64 * INCREMENTS;
        assert_eq!(h.snapshot_get(&42), Some(total), "no lost updates");
        assert_eq!(h.snapshot_get(&342), Some(total));
        let stats = ts.txn_stats();
        assert_eq!(stats.commits, total, "one commit per increment");
        assert!(stats.read_set_size >= 2 * total);
    }
}
