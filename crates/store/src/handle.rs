//! Session handles: managed dense thread-id registration for the store.
//!
//! Every structure in this workspace identifies threads by a dense index
//! `tid in 0..max_threads` (EBR collector slots, tracker announcement
//! slots, per-thread PRNG seeds). Passing raw tids around is error-prone
//! in application code — two threads accidentally sharing a tid corrupts
//! the EBR pin protocol. A [`StoreHandle`] owns a tid for its lifetime:
//! [`crate::BundledStore::register`] allocates the lowest free slot,
//! `Drop` returns it, and every operation is exposed tid-free.

use std::sync::Arc;

use bundle::api::{ConcurrentSet, RangeQuerySet};

use crate::backends::ShardBackend;
use crate::sharded::BundledStore;

/// A registered session on a [`BundledStore`]: a dense thread id plus the
/// store it belongs to. One handle serves one thread at a time (it is
/// `Send` but deliberately not `Clone` — clone the `Arc<BundledStore>` and
/// register again instead).
pub struct StoreHandle<K, V, S> {
    store: Arc<BundledStore<K, V, S>>,
    tid: usize,
    /// `!Sync`: sharing `&StoreHandle` across threads would let two
    /// threads drive the same dense tid concurrently, violating the EBR
    /// collector's per-slot single-owner discipline. Moving the handle
    /// (`Send`) is fine.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl<K, V, S> StoreHandle<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    pub(crate) fn new(store: Arc<BundledStore<K, V, S>>, tid: usize) -> Self {
        StoreHandle {
            store,
            tid,
            _not_sync: std::marker::PhantomData,
        }
    }

    /// The dense thread id this session owns.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The store this session operates on.
    #[must_use]
    pub fn store(&self) -> &Arc<BundledStore<K, V, S>> {
        &self.store
    }

    /// Insert `key -> value`; `false` if the key was already present.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.store.insert(self.tid, key, value)
    }

    /// Remove `key`; `false` if it was not present.
    pub fn remove(&self, key: &K) -> bool {
        self.store.remove(self.tid, key)
    }

    /// Wait-free membership test.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.store.contains(self.tid, key)
    }

    /// Lookup returning a copy of the value.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.store.get(self.tid, key)
    }

    /// Atomic batched lookup: every key is answered from one leased
    /// snapshot read, so the batch observes a single atomic cut of the
    /// store (see [`BundledStore::multi_get`]). Do not call while this
    /// session holds a live [`crate::StoreSnapshot`].
    #[must_use]
    pub fn multi_get(&self, keys: &[K]) -> Vec<Option<V>> {
        self.store.multi_get(self.tid, keys)
    }

    /// Batched insert; returns how many pairs were newly inserted.
    ///
    /// Since the introduction of cross-shard write transactions this is
    /// **atomic**: the batch commits under one timestamp, so no range
    /// query or snapshot read ever observes part of it (previously each
    /// insert was only individually linearizable).
    pub fn multi_put(&self, pairs: &[(K, V)]) -> usize {
        self.store.multi_put(self.tid, pairs)
    }

    /// Atomically apply a multi-key, multi-shard write batch (sorted by
    /// key, duplicate-free); see [`BundledStore::apply_txn`]. The `txn`
    /// crate's `WriteTxn` builder is the ergonomic front-end for this.
    pub fn apply_txn(&self, ops: &[crate::TxnOp<K, V>]) -> Vec<bool> {
        self.store.apply_txn(self.tid, ops)
    }

    /// Atomically commit one ingest **group**: a key-sorted super-batch
    /// published under a single clock advance; see
    /// [`BundledStore::apply_grouped`]. The `ingest` crate's committer
    /// threads are the intended callers.
    pub fn apply_grouped(&self, ops: &[crate::TxnOp<K, V>]) -> crate::GroupReceipt {
        self.store.apply_grouped(self.tid, ops)
    }

    /// Atomically commit a read-write transaction: writes plus a recorded
    /// read set that must still be current at the commit timestamp; see
    /// [`BundledStore::apply_rw_txn`]. The `txn` crate's `ReadWriteTxn`
    /// is the ergonomic front-end for this.
    pub fn apply_rw_txn(
        &self,
        ops: &[crate::TxnOp<K, V>],
        reads: &crate::ReadSet<K>,
    ) -> Result<Vec<bool>, crate::TxnAborted> {
        self.store.apply_rw_txn(self.tid, ops, reads)
    }

    /// Open a leased read snapshot on this session's thread id: every
    /// read through it observes the store at one shared-clock timestamp
    /// (see [`BundledStore::snapshot`]). At most one snapshot per session
    /// at a time, and no plain `range_query` while it is live (both use
    /// the session's tracker slot).
    #[must_use]
    pub fn snapshot(&self) -> crate::StoreSnapshot<'_, K, V, S> {
        self.store.snapshot(self.tid)
    }

    /// Linearizable cross-shard range query into `out` (cleared first).
    pub fn range_query(&self, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        self.store.range_query(self.tid, low, high, out)
    }

    /// Linearizable cross-shard range query into a fresh vector.
    #[must_use]
    pub fn range_query_vec(&self, low: &K, high: &K) -> Vec<(K, V)> {
        self.store.range_query_vec(self.tid, low, high)
    }

    /// Element count by full traversal (non-linearizable; diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len(self.tid)
    }

    /// `true` when [`Self::len`] would be 0.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty(self.tid)
    }
}

impl<K, V, S> Drop for StoreHandle<K, V, S> {
    fn drop(&mut self) {
        self.store.release_tid(self.tid);
    }
}

impl<K, V, S> std::fmt::Debug for StoreHandle<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{uniform_splits, SkipListStore};

    #[test]
    fn handle_round_trip_and_debug() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100)));
        let h = store.register();
        assert!(h.is_empty());
        assert!(h.insert(1, 10));
        assert!(h.insert(60, 600));
        assert!(!h.insert(1, 11));
        assert!(h.contains(&60));
        assert_eq!(h.get(&1), Some(10));
        assert_eq!(h.multi_get(&[1, 2, 60]), vec![Some(10), None, Some(600)]);
        assert_eq!(h.multi_put(&[(2, 20), (61, 610)]), 2);
        assert_eq!(h.len(), 4);
        let mut out = Vec::new();
        assert_eq!(h.range_query(&0, &100, &mut out), 4);
        assert_eq!(out, h.range_query_vec(&0, &100));
        assert!(h.remove(&2));
        assert!(!h.remove(&2));
        assert_eq!(format!("{h:?}"), "StoreHandle { tid: 0 }");
    }

    #[test]
    fn handles_move_across_threads() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(4, 1_000)));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let h = store.register();
            joins.push(std::thread::spawn(move || {
                for k in (t * 250)..(t * 250 + 250) {
                    assert!(h.insert(k, k));
                }
                h.len()
            }));
        }
        for j in joins {
            let _ = j.join().unwrap();
        }
        let h = store.register();
        assert_eq!(h.len(), 1_000);
        assert_eq!(h.range_query_vec(&0, &1_000).len(), 1_000);
    }
}
