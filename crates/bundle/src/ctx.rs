//! One reclamation domain for several structures: [`RqContext`] is one
//! [`GlobalTimestamp`] and one [`ebr::Collector`] that bundled structures
//! built over it use *together*.
//!
//! The paper gives each structure its own `globalTs`; that makes range
//! queries linearizable *per structure*. A store that shards its keyspace
//! across many structures needs more: a range query spanning shards must
//! correspond to a single atomic snapshot of the **whole** store. The
//! classic way to get that — and what [`RqContext`] packages — is to make
//! every shard order its updates through the *same* timestamp and free
//! through the *same* collector:
//!
//! * updates on any shard call `advance` on the shared clock, so all
//!   updates across all shards are totally ordered;
//! * a cross-shard range query pins once and reads the shared clock
//!   **once** ([`RqContext::announce_rq`]), then traverses every shard at
//!   that one timestamp — each shard serves a fragment of one snapshot;
//! * Appendix B frees nodes through EBR and bundle entries through
//!   `activeRqTsArray`: two announcements of the same thread at the same
//!   moment, so here they share the thread's collector slot.
//!
//! The context is cheap to clone (one `Arc`), and a structure built from
//! its own private context behaves exactly like the paper's design.

use std::sync::Arc;

use ebr::{Collector, Guard, ReclaimMode};

use crate::ts::GlobalTimestamp;

/// A cloneable handle to a (possibly shared) global timestamp and epoch
/// collector.
///
/// Two structures built from clones of the same `RqContext` order all of
/// their updates on one clock and free through one collector, which is
/// what makes cross-structure range queries linearizable (see the module
/// docs and the `store` crate).
#[derive(Clone, Debug)]
pub struct RqContext(Arc<Domain>);

#[derive(Debug)]
struct Domain {
    clock: GlobalTimestamp,
    collector: Collector,
}

impl RqContext {
    /// A linearizable context supporting `max_threads` registered threads,
    /// freeing through EBR.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// [`RqContext::new`] with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        let (clock, collector) = (
            GlobalTimestamp::new(max_threads),
            Collector::new(max_threads, mode),
        );
        RqContext(Arc::new(Domain { clock, collector }))
    }

    /// A context whose clock only advances every `threshold`-th update per
    /// thread (Appendix A relaxation; `0` means never).
    pub fn with_threshold(max_threads: usize, threshold: u64) -> Self {
        let clock = GlobalTimestamp::with_threshold(max_threads, threshold);
        let collector = Collector::new(max_threads, ReclaimMode::Reclaim);
        RqContext(Arc::new(Domain { clock, collector }))
    }

    /// The shared clock.
    #[must_use]
    pub fn clock(&self) -> &GlobalTimestamp {
        &self.0.clock
    }

    /// The shared epoch collector: every structure built over this context
    /// frees through it, and its slots hold the announced snapshots.
    #[must_use]
    pub fn collector(&self) -> &Collector {
        &self.0.collector
    }

    /// Pin the shared collector for `tid` (reentrant).
    #[inline]
    pub fn pin(&self, tid: usize) -> Guard<'_> {
        self.0.collector.pin(tid)
    }

    /// Number of registered thread slots.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        self.0.collector.max_threads()
    }

    /// `true` if `other` is a clone of this context (i.e. range queries
    /// across structures built from both are linearizable).
    #[must_use]
    pub fn same_as(&self, other: &RqContext) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Read the clock without announcing anything (diagnostics).
    #[must_use]
    pub fn read(&self) -> u64 {
        self.0.clock.read()
    }

    /// Acquire an update timestamp from the shared clock.
    ///
    /// This is the commit step of a cross-structure transaction: after
    /// *every* affected bundle on every structure holds a pending entry
    /// ([`bundle_prepare`]), one `advance` supplies the single timestamp
    /// all of them finalize with — making the whole write batch one atomic
    /// cut with respect to every snapshot fixed through this context.
    ///
    /// [`bundle_prepare`]: crate::Bundle::prepare
    #[inline]
    pub fn advance(&self, tid: usize) -> u64 {
        self.0.clock.advance(tid)
    }

    /// Total [`RqContext::advance`] calls made on the shared clock so far
    /// (all threads, monotonic). A group-commit front-end advances the
    /// clock once per *batch*, so comparing this counter against the
    /// number of committed operations measures the amortization:
    /// `advance_calls / ops < 1` means several operations shared one
    /// advance. See [`GlobalTimestamp::advance_calls`].
    ///
    /// [`GlobalTimestamp::advance_calls`]: crate::GlobalTimestamp::advance_calls
    #[must_use]
    pub fn advance_calls(&self) -> u64 {
        self.0.clock.advance_calls()
    }

    /// Announce a snapshot on `tid`: read the shared clock and publish the
    /// value in `tid`'s collector slot ([`ebr::Collector::announce`], which
    /// panics if `tid` already announces one). Returns the snapshot
    /// timestamp. Pins nothing: a traversal pins *before* this call
    /// ([`RqContext::announce_rq`] does both).
    #[inline]
    pub fn start_rq(&self, tid: usize) -> u64 {
        self.0.collector.announce(tid, || self.0.clock.read())
    }

    /// End the snapshot announced on `tid`.
    #[inline]
    pub fn finish_rq(&self, tid: usize) {
        self.0.collector.retract(tid);
    }

    /// The oldest snapshot any thread (on *any* structure sharing this
    /// context) may still need.
    #[must_use]
    pub fn oldest_active(&self) -> u64 {
        self.0.collector.oldest_snapshot(self.0.clock.read())
    }

    /// Number of snapshots currently announced (range queries, store
    /// snapshots, read leases).
    #[must_use]
    pub fn active_rqs(&self) -> usize {
        self.0.collector.announced_snapshots()
    }

    /// Pin the collector for `tid`, **then** announce a snapshot
    /// ([`RqContext::start_rq`]): the one place the pin-before-the-clock-
    /// read rule is written. A node removed at a timestamp newer than the
    /// snapshot retires after the clock read, so this one pin keeps every
    /// node a traversal at the snapshot can reach, on every structure
    /// sharing the context, allocated. The returned [`ActiveRq`] holds the
    /// pin and ends both on drop, so an unwinding traversal (a panicking
    /// `V::clone`) cannot leave bundle reclamation pinned forever. Borrows
    /// the context: a per-query refcount bump on a line every reader
    /// shares is what a range query must not pay.
    #[inline]
    #[must_use]
    pub fn announce_rq(&self, tid: usize) -> ActiveRq<'_> {
        let guard = self.pin(tid);
        let ts = self.start_rq(tid);
        ActiveRq { guard, ts }
    }

    /// [`RqContext::start_rq`] as an owned guard, held across any number
    /// of reads: all of them are answered at one snapshot, and bundle
    /// reclamation on every structure sharing this context keeps what it
    /// needs until the lease drops. Pins no epoch (the caller pins first),
    /// and occupies `tid`'s one snapshot slot while live.
    #[must_use]
    pub fn lease_read(&self, tid: usize) -> ReadLease {
        let ts = self.start_rq(tid);
        ReadLease {
            ctx: self.clone(),
            tid,
            ts,
        }
    }
}

/// The pinned snapshot announcement of one range query (see
/// [`RqContext::announce_rq`]); ended, and unpinned, on drop.
pub struct ActiveRq<'a> {
    guard: Guard<'a>,
    ts: u64,
}

impl<'a> ActiveRq<'a> {
    /// The announced snapshot timestamp — the query's linearization point.
    #[must_use]
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// The pin taken before the clock read: what a traversal at
    /// [`ActiveRq::ts`] dereferences nodes under.
    #[must_use]
    pub fn guard(&self) -> &Guard<'a> {
        &self.guard
    }
}

impl Drop for ActiveRq<'_> {
    fn drop(&mut self) {
        self.guard.collector().retract(self.guard.tid());
    }
}

/// A leased read timestamp: the snapshot announcement of one read-write
/// transaction (see [`RqContext::lease_read`]). Dropping the lease ends
/// the announcement, releasing bundle reclamation.
#[derive(Debug)]
pub struct ReadLease {
    ctx: RqContext,
    tid: usize,
    ts: u64,
}

impl ReadLease {
    /// The leased snapshot timestamp: the logical time every read of the
    /// owning transaction is answered at.
    #[must_use]
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// The dense thread id the lease is announced on.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl Drop for ReadLease {
    fn drop(&mut self) {
        self.ctx.finish_rq(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_clock_and_collector() {
        let ctx = RqContext::new(4);
        let other = ctx.clone();
        assert!(ctx.same_as(&other));
        assert_eq!(ctx.max_threads(), 4);
        assert_eq!(ctx.collector().mode(), ReclaimMode::Reclaim);
        // An update ordered through one handle is visible through the other.
        other.clock().advance(0);
        assert_eq!(ctx.read(), 1);
        // A snapshot announced through one handle pins reclamation for all.
        let ts = ctx.start_rq(1);
        assert_eq!(ts, 1);
        other.clock().advance(0);
        assert_eq!(other.oldest_active(), 1);
        ctx.finish_rq(1);
        assert_eq!(other.oldest_active(), 2);
    }

    #[test]
    fn independent_contexts_are_distinct() {
        let a = RqContext::new(2);
        let b = RqContext::with_mode(2, ReclaimMode::Leaky);
        let relaxed = RqContext::with_threshold(1, 0);
        assert!(!a.same_as(&b));
        assert_eq!(b.collector().mode(), ReclaimMode::Leaky);
        a.clock().advance(0);
        relaxed.clock().advance(0);
        assert_eq!((a.read(), b.read(), relaxed.read()), (1, 0, 0), "T=inf");
    }

    #[test]
    fn an_announced_range_query_is_pinned_first_and_ends_both_on_drop() {
        let ctx = RqContext::new(2);
        ctx.clock().advance(0);
        let rq = ctx.announce_rq(1);
        assert_eq!((rq.ts(), rq.guard().tid()), (1, 1));
        assert!(ctx.collector().try_advance());
        assert!(!ctx.collector().try_advance(), "the query's pin holds");
        ctx.clock().advance(0);
        assert_eq!((ctx.oldest_active(), ctx.active_rqs()), (1, 1));
        drop(rq);
        assert!(ctx.collector().try_advance(), "and is gone with it");
        assert_eq!((ctx.oldest_active(), ctx.active_rqs()), (2, 0));
    }

    #[test]
    fn read_lease_pins_reclamation_until_dropped() {
        let ctx = RqContext::new(2);
        ctx.clock().advance(0);
        ctx.clock().advance(0);
        let lease = ctx.lease_read(1);
        assert_eq!(lease.ts(), 2);
        assert_eq!(lease.tid(), 1);
        // Updates committed after the lease do not move the pin.
        ctx.clock().advance(0);
        assert_eq!(ctx.oldest_active(), 2, "lease pins its snapshot");
        drop(lease);
        assert_eq!(ctx.oldest_active(), 3, "dropped lease releases the pin");
    }
}
