//! A shareable linearization context: one [`GlobalTimestamp`] and one
//! [`RqTracker`] that several bundled structures can use *together*.
//!
//! The paper gives each structure its own `globalTs`; that makes range
//! queries linearizable *per structure*. A store that shards its keyspace
//! across many structures needs more: a range query spanning shards must
//! correspond to a single atomic snapshot of the **whole** store. The
//! classic way to get that — and what [`RqContext`] packages — is to make
//! every shard order its updates through the *same* timestamp and announce
//! range queries in the *same* tracker:
//!
//! * updates on any shard call `advance` on the shared clock, so all
//!   updates across all shards are totally ordered;
//! * a cross-shard range query reads the shared clock **once** and
//!   traverses every shard at that one timestamp — each shard serves the
//!   fragment of the same atomic snapshot;
//! * the shared tracker makes bundle-entry reclamation on every shard
//!   respect the oldest snapshot any cross-shard query still needs.
//!
//! The context is cheap to clone (two `Arc`s) and a structure built from
//! its own private context behaves exactly like the paper's original
//! design, so the single-structure path pays nothing.

use std::sync::Arc;

use crate::tracker::RqTracker;
use crate::ts::GlobalTimestamp;

/// A cloneable handle to a (possibly shared) global timestamp and
/// range-query tracker.
///
/// Two structures built from clones of the same `RqContext` order all of
/// their updates on one clock, which is what makes cross-structure range
/// queries linearizable (see the module docs and the `store` crate).
#[derive(Clone, Debug)]
pub struct RqContext {
    clock: Arc<GlobalTimestamp>,
    tracker: Arc<RqTracker>,
}

impl RqContext {
    /// A linearizable context supporting `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        RqContext {
            clock: Arc::new(GlobalTimestamp::new(max_threads)),
            tracker: Arc::new(RqTracker::new(max_threads)),
        }
    }

    /// A context whose clock only advances every `threshold`-th update per
    /// thread (Appendix A relaxation; `0` means never).
    pub fn with_threshold(max_threads: usize, threshold: u64) -> Self {
        RqContext {
            clock: Arc::new(GlobalTimestamp::with_threshold(max_threads, threshold)),
            tracker: Arc::new(RqTracker::new(max_threads)),
        }
    }

    /// Build a context from already-shared parts.
    pub fn from_parts(clock: Arc<GlobalTimestamp>, tracker: Arc<RqTracker>) -> Self {
        RqContext { clock, tracker }
    }

    /// The shared clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<GlobalTimestamp> {
        &self.clock
    }

    /// The shared range-query tracker.
    #[must_use]
    pub fn tracker(&self) -> &Arc<RqTracker> {
        &self.tracker
    }

    /// Number of registered thread slots (the tracker's bound).
    #[must_use]
    pub fn max_threads(&self) -> usize {
        self.tracker.max_threads()
    }

    /// `true` if `other` shares this context's clock and tracker (i.e.
    /// range queries across structures built from both are linearizable).
    #[must_use]
    pub fn same_as(&self, other: &RqContext) -> bool {
        Arc::ptr_eq(&self.clock, &other.clock) && Arc::ptr_eq(&self.tracker, &other.tracker)
    }

    /// Read the clock without announcing anything (diagnostics).
    #[must_use]
    pub fn read(&self) -> u64 {
        self.clock.read()
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
        self.clock.advance(tid)
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
        self.clock.advance_calls()
    }

    /// Begin a range query on `tid`: atomically read the shared clock and
    /// announce the snapshot. Returns the snapshot timestamp — the
    /// linearization point of everything traversed under it.
    #[inline]
    pub fn start_rq(&self, tid: usize) -> u64 {
        self.tracker.start(tid, &self.clock)
    }

    /// End the range query previously started on `tid`.
    #[inline]
    pub fn finish_rq(&self, tid: usize) {
        self.tracker.finish(tid);
    }

    /// The oldest snapshot any active range query (on *any* structure
    /// sharing this context) may still need.
    #[must_use]
    pub fn oldest_active(&self) -> u64 {
        self.tracker.oldest_active(self.clock.read())
    }

    /// Number of snapshots currently announced in the shared tracker —
    /// live range queries, store snapshots, and read leases across every
    /// structure sharing this context (see
    /// [`RqTracker::active_announcements`]).
    #[must_use]
    pub fn active_rqs(&self) -> usize {
        self.tracker.active_announcements()
    }

    /// [`RqContext::start_rq`] as a guard: the announcement ends when the
    /// returned [`ActiveRq`] drops, so an unwinding traversal (a panicking
    /// `V::clone`) cannot leave the tracker's oldest active snapshot — and
    /// with it bundle reclamation — pinned forever. Borrows the context,
    /// where [`RqContext::lease_read`] clones it: a per-query refcount bump
    /// on a line every reader thread shares is what a range query must
    /// not pay.
    #[inline]
    #[must_use]
    pub fn announce_rq(&self, tid: usize) -> ActiveRq<'_> {
        let ts = self.start_rq(tid);
        ActiveRq { ctx: self, tid, ts }
    }

    /// Lease a read timestamp for `tid`: atomically read the shared clock
    /// and announce the snapshot in the tracker, exactly like
    /// [`RqContext::start_rq`], but held across an *arbitrary number of
    /// reads* instead of one range query. A read-write transaction leases
    /// once at its first read and answers every subsequent read at the
    /// leased timestamp — all of its reads observe one atomic snapshot,
    /// and the announce pins bundle reclamation on every structure sharing
    /// this context until the lease drops (commit or rollback).
    ///
    /// The tracker has one announcement slot per `tid`, so while the lease
    /// is live the owning thread must not start another range query (or a
    /// second lease) on the same `tid`.
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

/// The snapshot announcement of one range query (see
/// [`RqContext::announce_rq`]); ended on drop.
#[derive(Debug)]
pub struct ActiveRq<'a> {
    ctx: &'a RqContext,
    tid: usize,
    ts: u64,
}

impl ActiveRq<'_> {
    /// The announced snapshot timestamp — the query's linearization point.
    #[must_use]
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for ActiveRq<'_> {
    fn drop(&mut self) {
        self.ctx.finish_rq(self.tid);
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
    fn clones_share_clock_and_tracker() {
        let ctx = RqContext::new(4);
        let other = ctx.clone();
        assert!(ctx.same_as(&other));
        assert_eq!(ctx.max_threads(), 4);
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
        let b = RqContext::new(2);
        assert!(!a.same_as(&b));
        a.clock().advance(0);
        assert_eq!(a.read(), 1);
        assert_eq!(b.read(), 0);
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

    #[test]
    fn from_parts_and_threshold() {
        let relaxed = RqContext::with_threshold(1, 0);
        relaxed.clock().advance(0);
        assert_eq!(relaxed.read(), 0, "T=inf never increments");
        let rebuilt =
            RqContext::from_parts(Arc::clone(relaxed.clock()), Arc::clone(relaxed.tracker()));
        assert!(rebuilt.same_as(&relaxed));
    }
}
