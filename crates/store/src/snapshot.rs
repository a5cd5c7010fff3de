//! Leased read snapshots and read-set bookkeeping for read-write
//! transactions.
//!
//! A [`StoreSnapshot`] is the read surface of one read-write transaction:
//! it pins the store's one epoch collector, then leases one timestamp
//! from the shared clock ([`bundle::RqContext::announce_rq`] does both) —
//! the same pin-then-read-the-clock protocol the store's cross-shard range
//! query uses, held open across arbitrarily many reads instead of one.
//! Every read through the snapshot is answered at that single timestamp,
//! so a transaction's whole read set is one atomic cut of the store.
//!
//! Reads can be *recorded*: each read appends one fragment per serving
//! shard to a [`ReadSet`] — the range it covered and the node identities
//! it observed. At commit, [`crate::BundledStore::apply_rw_txn`] validates
//! every recorded fragment ([`crate::ShardBackend::txn_validate`]) and
//! pins it until the commit timestamp — which is what upgrades the
//! optimistic snapshot reads to full serializability. A transaction with
//! no writes needs none of that: its reads already are one atomic cut at
//! the lease ([`ReadSet::ts`]), and it commits there.
//!
//! A snapshot's own buffers (the per-shard fragment of a range, the node
//! identities of the read in flight) come from the session's warm scratch
//! and go back when it drops, so a point read through a snapshot
//! allocates nothing.

use std::cell::RefCell;
use std::ops::Range;

use bundle::ActiveRq;

use crate::backends::ShardBackend;
use crate::scratch::ReadBufs;
use crate::sharded::BundledStore;

/// One recorded read of a read-write transaction, as [`ReadSet::iter`]
/// shows it: the fragment of `low..=high` served by shard `shard`, as the
/// list of `(key, node)` identities observed at the leased read timestamp.
/// An empty `entries` list is still meaningful — validating it pins the
/// *gap*, so phantoms inserted into a read-empty range are detected.
#[derive(Debug, Clone, Copy)]
pub struct ShardRead<'a, K> {
    /// Index of the shard that served this fragment.
    pub shard: usize,
    /// Inclusive lower bound of the read.
    pub low: K,
    /// Inclusive upper bound of the read.
    pub high: K,
    /// `(key, node address)` pairs observed, in ascending key order.
    pub entries: &'a [(K, usize)],
}

/// The read set of a read-write transaction: every recorded fragment, in
/// read order, and the leased timestamp they were all read at. Flat — the
/// fragments index one shared entry vector — so a transaction records its
/// reads into two buffers it can keep warm instead of one vector per
/// read.
#[derive(Debug, Clone)]
pub struct ReadSet<K> {
    /// `(shard, low, high, entries[range])` per fragment.
    frags: Vec<(usize, K, K, Range<usize>)>,
    entries: Vec<(K, usize)>,
    /// The snapshot timestamp of every fragment (meaningless while
    /// `frags` is empty).
    ts: u64,
}

impl<K> Default for ReadSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ReadSet<K> {
    /// An empty read set.
    #[must_use]
    pub fn new() -> Self {
        ReadSet {
            frags: Vec::new(),
            entries: Vec::new(),
            ts: 0,
        }
    }

    /// The leased snapshot timestamp every recorded read was answered at;
    /// `None` while nothing is recorded. A transaction that only read
    /// commits at this timestamp.
    #[must_use]
    pub fn ts(&self) -> Option<u64> {
        (!self.frags.is_empty()).then_some(self.ts)
    }

    /// Number of recorded fragments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frags.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }

    /// What the validate phase will be charged for: one unit per fragment
    /// plus one per recorded entry ([`crate::TxnStats::read_set_size`]).
    #[must_use]
    pub fn size(&self) -> usize {
        self.frags.len() + self.entries.len()
    }

    /// Forget every fragment (the buffers keep their capacity).
    pub fn clear(&mut self) {
        self.frags.clear();
        self.entries.clear();
    }
}

impl<K: Copy> ReadSet<K> {
    /// Record one fragment: at snapshot timestamp `ts`, shard `shard`
    /// served `low..=high` as `entries` (ascending by key). Every
    /// fragment of one read set comes from one snapshot.
    ///
    /// # Panics
    ///
    /// If `ts` differs from the timestamp of the fragments already
    /// recorded: a read-only commit trusts [`ReadSet::ts`] without
    /// validating, so reads from two snapshots must never share a set.
    pub fn push(&mut self, ts: u64, shard: usize, low: K, high: K, entries: &[(K, usize)]) {
        assert!(
            self.ts().is_none_or(|t| t == ts),
            "a read set records from one snapshot only"
        );
        self.ts = ts;
        let start = self.entries.len();
        self.entries.extend_from_slice(entries);
        self.frags
            .push((shard, low, high, start..self.entries.len()));
    }

    /// The recorded fragments, in read order.
    pub fn iter(&self) -> impl Iterator<Item = ShardRead<'_, K>> {
        self.frags
            .iter()
            .map(|(shard, low, high, range)| ShardRead {
                shard: *shard,
                low: *low,
                high: *high,
                entries: &self.entries[range.clone()],
            })
    }
}

/// A read-write transaction aborted at commit because one of its
/// validated reads went stale: another transaction (or primitive
/// operation) committed to a read key — or into a read range — between
/// the leased read timestamp and validation. The transaction's writes
/// were rolled back completely (no snapshot at any timestamp observes
/// them); re-run the transaction body against a fresh snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnAborted;

impl std::fmt::Display for TxnAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("read-write transaction aborted: a validated read went stale before commit")
    }
}

impl std::error::Error for TxnAborted {}

/// A leased read snapshot over the whole store (see the module docs).
///
/// Holds, for its entire lifetime, one [`ActiveRq`]: the EBR pin taken
/// before the clock read (so every node a fixed-timestamp read of any
/// shard can reach — and every node identity recorded in a read set —
/// stays allocated) and the announcement of the snapshot timestamp (so
/// bundle cleanup preserves every entry the snapshot needs). Drop the
/// snapshot to release both.
///
/// One snapshot per registered `tid` at a time: the lease occupies the
/// tid's snapshot slot, so the owning thread must not run a plain
/// `range_query` (or take a second snapshot) on the same tid while it is
/// live — either panics.
pub struct StoreSnapshot<'a, K, V, S> {
    store: &'a BundledStore<K, V, S>,
    tid: usize,
    lease: ActiveRq<'a>,
    /// The session's warm read buffers, on loan until drop.
    bufs: RefCell<ReadBufs<K, V>>,
}

impl<K, V, S> BundledStore<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// Open a leased read snapshot for `tid`: pin the store's collector,
    /// then read and announce the shared clock once. All reads through
    /// the returned handle observe the store at that single timestamp.
    ///
    /// # Panics
    ///
    /// If `tid` already holds a snapshot.
    pub fn snapshot(&self, tid: usize) -> StoreSnapshot<'_, K, V, S> {
        let lease = self.ctx().announce_rq(tid);
        StoreSnapshot {
            store: self,
            tid,
            lease,
            bufs: RefCell::new(self.scratch().take_read(tid)),
        }
    }
}

impl<K, V, S> Drop for StoreSnapshot<'_, K, V, S> {
    fn drop(&mut self) {
        let bufs = std::mem::take(self.bufs.get_mut());
        self.store.scratch().put_read(self.tid, bufs);
    }
}

impl<K, V, S> StoreSnapshot<'_, K, V, S> {
    /// The leased snapshot timestamp every read is answered at.
    #[must_use]
    pub fn ts(&self) -> u64 {
        self.lease.ts()
    }

    /// The dense thread id the snapshot is leased on.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<K, V, S> StoreSnapshot<'_, K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// One shard's fragment of `low..=high` into the snapshot's own
    /// buffers (`frag`, `nodes`), returned for the caller to consume.
    fn read_shard(&self, shard: usize, low: &K, high: &K) -> std::cell::RefMut<'_, ReadBufs<K, V>> {
        let mut bufs = self.bufs.borrow_mut();
        let ReadBufs { frag, nodes } = &mut *bufs;
        self.store
            .shard(shard)
            .txn_range_read(self.tid, self.lease.ts(), low, high, frag, nodes);
        bufs
    }

    /// Unrecorded point read at the snapshot timestamp: a versioned peek
    /// that does not join the read set (commit will not validate it).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.store.shard_of(key);
        self.read_shard(shard, key, key).frag.pop().map(|(_, v)| v)
    }

    /// Recorded point read: like [`StoreSnapshot::get`], additionally
    /// pushing the observation into `reads` for commit-time validation.
    /// Panics if `reads` already holds reads of another snapshot
    /// ([`ReadSet::push`]).
    pub fn get_recorded(&self, key: &K, reads: &mut ReadSet<K>) -> Option<V> {
        let shard = self.store.shard_of(key);
        let mut bufs = self.read_shard(shard, key, key);
        reads.push(self.lease.ts(), shard, *key, *key, &bufs.nodes);
        bufs.frag.pop().map(|(_, v)| v)
    }

    /// Unrecorded range read at the snapshot timestamp (versioned peek).
    pub fn range(&self, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        self.range_inner(low, high, out, None)
    }

    /// Recorded range read: collects `low..=high` at the snapshot
    /// timestamp and pushes one fragment per overlapping shard into
    /// `reads` — including empty fragments, whose validation pins the gap
    /// against phantoms. Panics if `reads` already holds reads of another
    /// snapshot ([`ReadSet::push`]).
    pub fn range_recorded(
        &self,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
        reads: &mut ReadSet<K>,
    ) -> usize {
        self.range_inner(low, high, out, Some(reads))
    }

    fn range_inner(
        &self,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
        mut reads: Option<&mut ReadSet<K>>,
    ) -> usize {
        out.clear();
        if low > high {
            return 0;
        }
        let first = self.store.shard_of(low);
        let last = self.store.shard_of(high);
        for shard in first..=last {
            // Shards only hold keys inside their boundary range, so the
            // unclamped bounds are correct for every fragment.
            let mut bufs = self.read_shard(shard, low, high);
            out.append(&mut bufs.frag);
            if let Some(rs) = reads.as_deref_mut() {
                rs.push(self.lease.ts(), shard, *low, *high, &bufs.nodes);
            }
        }
        out.len()
    }
}

impl<K, V, S> std::fmt::Debug for StoreSnapshot<'_, K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSnapshot")
            .field("tid", &self.tid)
            .field("ts", &self.lease.ts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::ReadSet;
    use crate::{uniform_splits, LazyListStore, SkipListStore};
    use bundle::api::ConcurrentSet;

    #[test]
    fn snapshot_reads_are_one_atomic_cut() {
        let s = SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400));
        s.insert(0, 10, 1);
        s.insert(0, 250, 2);
        let snap = s.snapshot(1);
        // Updates after the lease are invisible to every read.
        s.insert(0, 20, 3);
        s.remove(0, &250);
        assert_eq!(snap.get(&10), Some(1));
        assert_eq!(snap.get(&20), None);
        assert_eq!(snap.get(&250), Some(2));
        let mut out = Vec::new();
        snap.range(&0, &400, &mut out);
        assert_eq!(out, vec![(10, 1), (250, 2)]);
        drop(snap);
        let snap = s.snapshot(1);
        assert_eq!(snap.get(&20), Some(3));
        assert_eq!(snap.get(&250), None);
    }

    #[test]
    fn recorded_reads_cover_every_overlapping_shard() {
        let s = LazyListStore::<u64, u64>::new(1, uniform_splits(4, 400));
        s.insert(0, 10, 1);
        s.insert(0, 150, 2);
        let snap = s.snapshot(0);
        let mut out = Vec::new();
        let mut reads = ReadSet::new();
        snap.range_recorded(&0, &399, &mut out, &mut reads);
        assert_eq!(out, vec![(10, 1), (150, 2)]);
        // One fragment per shard, empty fragments included (gap pinning).
        assert_eq!((reads.len(), reads.size()), (4, 6));
        let frags: Vec<_> = reads.iter().collect();
        assert_eq!(frags[0].entries[0].0, 10, "fragment keys are recorded");
        assert_eq!(frags[0].entries.len(), 1);
        assert_eq!(frags[1].entries.len(), 1);
        assert!(frags[2].entries.is_empty());
        assert!(frags[3].entries.is_empty());
        assert!(frags.iter().all(|f| (f.low, f.high) == (0, 399)));
        let mut point = ReadSet::new();
        assert_eq!(snap.get_recorded(&150, &mut point), Some(2));
        assert_eq!(point.len(), 1);
        let frag = point.iter().next().unwrap();
        assert_eq!((frag.shard, frag.entries[0].0), (1, 150));
        point.clear();
        assert!(point.is_empty() && point.size() == 0);
    }

    /// One snapshot per tid, in release too: a second would overwrite the
    /// first one's announcement and un-pin the bundle entries it needs.
    #[test]
    #[should_panic(expected = "announced a snapshot while its slot still held one")]
    fn a_second_snapshot_on_a_live_tid_panics() {
        let s = SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100));
        let _first = s.snapshot(1);
        let _second = s.snapshot(1);
    }

    /// A read-only commit trusts `ReadSet::ts` without validating, so a
    /// read set is refused a fragment from a second snapshot.
    #[test]
    #[should_panic(expected = "one snapshot only")]
    fn a_read_set_spanning_two_snapshots_is_rejected() {
        let s = SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100));
        s.insert(0, 10, 1);
        let mut reads = ReadSet::new();
        let first = s.snapshot(0);
        assert_eq!(first.get_recorded(&10, &mut reads), Some(1));
        s.insert(1, 20, 2);
        let second = s.snapshot(1);
        assert!(second.ts() > first.ts());
        let _ = second.get_recorded(&20, &mut reads);
    }
}
