//! Warm, per-session buffers: what lets a small transaction run from
//! `rw_txn()` to its receipt without rebuilding a dozen short vectors.
//!
//! Every dense thread id owns one slot of [`SessionScratch`] holding
//! three independent buffer sets, each taken by the code that needs it and
//! put back — cleared, capacity kept — when that code is done:
//!
//! * [`CommitScratch`]: the commit pipeline's plan (sort order, per-shard
//!   runs, shard lists) and its per-op results;
//! * [`ReadBufs`]: the fragment and node-identity buffers of a
//!   [`crate::StoreSnapshot`]'s reads;
//! * [`TxnBufs`]: a read-write transaction's read set and write set.
//!
//! A `tid` belongs to one thread at a time, so a slot's mutex is never
//! contended; it exists so the store stays `Sync` without `unsafe`. A set
//! that is already out (a second transaction opened on the same `tid`, a
//! commit inside a commit) is simply built cold — never a panic.
//!
//! What cannot live here is anything that borrows the store (the intent
//! guards, a snapshot's EBR pins) or whose type needs the store's backend
//! bound to be named (the per-shard tokens): those sit in a
//! [`bundle::InlineStack`] on the frame of the call that owns them.

use std::ops::Range;
use std::sync::Mutex;

use bundle::CachePadded;

use crate::sharded::TxnOp;
use crate::snapshot::ReadSet;

/// Per-shard items a call keeps inline ([`bundle::InlineStack`]) before it
/// spills to the heap: a transaction rarely touches more shards than this.
pub(crate) const INLINE_SHARDS: usize = 8;

/// The commit pipeline's planning buffers and per-op results.
#[derive(Default)]
pub(crate) struct CommitScratch {
    /// Sorted position -> caller position.
    pub(crate) order: Vec<usize>,
    /// Contiguous per-shard runs over `order`, ascending by shard.
    pub(crate) groups: Vec<(usize, Range<usize>)>,
    /// Shards the transaction writes, ascending.
    pub(crate) write_shards: Vec<usize>,
    /// Shards it writes or validates reads on, ascending.
    pub(crate) intent_shards: Vec<usize>,
    /// Per-op outcomes in caller order.
    pub(crate) results: Vec<bool>,
}

/// A snapshot's read buffers.
pub(crate) struct ReadBufs<K, V> {
    /// One shard's fragment of a multi-shard range (or a point read).
    pub(crate) frag: Vec<(K, V)>,
    /// Node identities of the read in flight.
    pub(crate) nodes: Vec<(K, usize)>,
}

impl<K, V> Default for ReadBufs<K, V> {
    fn default() -> Self {
        ReadBufs {
            frag: Vec::new(),
            nodes: Vec::new(),
        }
    }
}

/// The two sets a read-write transaction accumulates, handed out by
/// [`crate::BundledStore::take_txn_bufs`] with their capacity from the
/// session's previous transaction and handed back through
/// [`crate::BundledStore::return_txn_bufs`] on every exit.
#[derive(Debug)]
pub struct TxnBufs<K, V> {
    /// Recorded (commit-validated) reads.
    pub reads: ReadSet<K>,
    /// Staged writes, strictly ascending by key — the form
    /// [`crate::BundledStore::apply_rw_txn`] stages without re-sorting.
    pub writes: Vec<TxnOp<K, V>>,
}

impl<K, V> Default for TxnBufs<K, V> {
    fn default() -> Self {
        TxnBufs {
            reads: ReadSet::new(),
            writes: Vec::new(),
        }
    }
}

struct Slot<K, V> {
    commit: Option<CommitScratch>,
    read: Option<ReadBufs<K, V>>,
    txn: Option<TxnBufs<K, V>>,
    /// Times a transaction's buffers came back (diagnostic, see
    /// [`crate::BundledStore::txn_bufs_returned`]).
    txn_returns: u64,
}

/// A slot on a cache line of its own: neighbouring sessions commit at the
/// same time.
type PaddedSlot<K, V> = CachePadded<Mutex<Slot<K, V>>>;

/// One [`Slot`] per dense thread id (see the module docs).
pub(crate) struct SessionScratch<K, V>(Box<[PaddedSlot<K, V>]>);

impl<K, V> SessionScratch<K, V> {
    pub(crate) fn new(max_threads: usize) -> Self {
        SessionScratch(
            (0..max_threads)
                .map(|_| {
                    CachePadded::new(Mutex::new(Slot {
                        commit: None,
                        read: None,
                        txn: None,
                        txn_returns: 0,
                    }))
                })
                .collect(),
        )
    }

    /// Run `f` on `tid`'s slot; `None` for a `tid` the store has no slot
    /// for (the backends reject it on first use anyway). A poisoned slot
    /// is taken over: every field is valid at every step.
    fn with<R>(&self, tid: usize, f: impl FnOnce(&mut Slot<K, V>) -> R) -> Option<R> {
        let mut slot = self.0.get(tid)?.lock().unwrap_or_else(|p| p.into_inner());
        Some(f(&mut slot))
    }

    pub(crate) fn take_commit(&self, tid: usize) -> CommitScratch {
        self.with(tid, |s| s.commit.take())
            .flatten()
            .unwrap_or_default()
    }

    pub(crate) fn put_commit(&self, tid: usize, commit: CommitScratch) {
        self.with(tid, |s| s.commit = Some(commit));
    }

    pub(crate) fn take_read(&self, tid: usize) -> ReadBufs<K, V> {
        self.with(tid, |s| s.read.take())
            .flatten()
            .unwrap_or_default()
    }

    pub(crate) fn put_read(&self, tid: usize, mut read: ReadBufs<K, V>) {
        // Values must not outlive the snapshot that cloned them.
        read.frag.clear();
        self.with(tid, |s| s.read = Some(read));
    }

    pub(crate) fn take_txn(&self, tid: usize) -> TxnBufs<K, V> {
        self.with(tid, |s| s.txn.take())
            .flatten()
            .unwrap_or_default()
    }

    pub(crate) fn put_txn(&self, tid: usize, mut txn: TxnBufs<K, V>) {
        txn.reads.clear();
        txn.writes.clear();
        self.with(tid, |s| {
            s.txn = Some(txn);
            s.txn_returns += 1;
        });
    }

    pub(crate) fn txn_returns(&self, tid: usize) -> u64 {
        self.with(tid, |s| s.txn_returns).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_that_is_out_is_rebuilt_cold_and_returns_are_counted() {
        let s: SessionScratch<u64, u64> = SessionScratch::new(1);
        let mut a = s.take_txn(0);
        a.writes.reserve(64);
        let b = s.take_txn(0);
        assert_eq!(b.writes.capacity(), 0, "second taker starts cold");
        a.writes.push(TxnOp::Put(1, 1));
        s.put_txn(0, a);
        assert_eq!(s.txn_returns(0), 1);
        let warm = s.take_txn(0);
        assert!(warm.writes.is_empty() && warm.writes.capacity() >= 64);
        // Out-of-range tids are served cold and counted nowhere.
        s.put_txn(7, b);
        assert_eq!(s.txn_returns(7), 0);
        assert!(s.take_commit(7).order.is_empty());
    }
}
