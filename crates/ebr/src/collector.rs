//! The epoch collector: global epoch, per-thread slots (each with its
//! thread's announced snapshot), pin guards.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crossbeam_utils::CachePadded;

use crate::retired::Retired;
use crate::stats::Stats;

/// Sentinel stored in a thread slot while the thread is not pinned.
const INACTIVE: u64 = u64::MAX;

/// How many retires a thread performs between attempts to advance the
/// global epoch. DEBRA uses a similar amortization so that the (O(threads))
/// scan of announcement slots is off the common path.
const ADVANCE_EVERY: usize = 64;

/// Snapshot slot values: no snapshot, and one whose clock read is under
/// way (the pending trick bundles use; see [`Collector::announce`]).
const RQ_INACTIVE: u64 = u64::MAX;
const RQ_PENDING: u64 = u64::MAX - 1;

/// Whether retired memory is actually freed.
///
/// The paper's §8 experiments run with reclamation disabled ("leaky"); the
/// Table 1 experiment (Appendix B) enables it. Both modes are first-class
/// here so the harness can reproduce both configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimMode {
    /// Never free retired objects (the paper's default configuration).
    Leaky,
    /// Free retired objects two epochs after they were retired.
    Reclaim,
}

struct ThreadSlot {
    /// Epoch announced by the thread while pinned, or [`INACTIVE`].
    state: AtomicU64,
    /// Snapshot announced by the thread (its `activeRqTsArray` entry), on
    /// the same line as `state`: a range query publishes both.
    snapshot: AtomicU64,
    /// Pin nesting depth; only touched by the owning thread.
    depth: Cell<usize>,
    /// Number of retires since the last epoch-advance attempt.
    since_advance: Cell<usize>,
    /// Thread-local limbo list of retired objects (DEBRA-style).
    limbo: UnsafeCell<VecDeque<Retired>>,
}

// SAFETY: `state` and `snapshot` are atomic. `depth`, `since_advance` and
// `limbo` are only accessed by the thread registered for this slot
// (enforced by the `tid` discipline of `pin`/`retire`), for the reserved
// slot by the holder of `Collector::exclusive`, or by the collector's
// `Drop`, which has exclusive access.
unsafe impl Sync for ThreadSlot {}
// SAFETY: as for `Sync`; a slot moves only with its whole collector.
unsafe impl Send for ThreadSlot {}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            state: AtomicU64::new(INACTIVE),
            snapshot: AtomicU64::new(RQ_INACTIVE),
            depth: Cell::new(0),
            since_advance: Cell::new(0),
            limbo: UnsafeCell::new(VecDeque::new()),
        }
    }
}

/// An epoch-based reclamation domain.
///
/// Threads are identified by a dense index `tid` in `0..max_threads`. A
/// thread's slot holds its pinned epoch and its announced snapshot, so one
/// collector serves every structure sharing a clock (`bundle::RqContext`).
pub struct Collector {
    mode: ReclaimMode,
    epoch: CachePadded<AtomicU64>,
    /// `max_threads` thread slots, then the reserved slot of
    /// [`Collector::pin_exclusive`].
    slots: Box<[CachePadded<ThreadSlot>]>,
    /// Held while the reserved slot is pinned.
    exclusive: Mutex<()>,
    /// Off the line of `slots`, which every pin reads: every retire and
    /// free of every structure sharing the collector writes here.
    stats: CachePadded<Stats>,
}

impl Collector {
    /// Create a collector supporting `max_threads` registered threads.
    pub fn new(max_threads: usize, mode: ReclaimMode) -> Self {
        assert!(max_threads > 0, "collector needs at least one thread slot");
        let slots = (0..=max_threads)
            .map(|_| CachePadded::new(ThreadSlot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Collector {
            mode,
            epoch: CachePadded::new(AtomicU64::new(0)),
            slots,
            exclusive: Mutex::new(()),
            stats: CachePadded::new(Stats::new()),
        }
    }

    /// Thread `tid`'s slot, never the reserved one (panics out of range).
    fn slot(&self, tid: usize) -> &ThreadSlot {
        &self.slots[..self.max_threads()][tid]
    }

    /// The reclamation mode this collector was built with.
    pub fn mode(&self) -> ReclaimMode {
        self.mode
    }

    /// Number of thread slots.
    pub fn max_threads(&self) -> usize {
        self.slots.len() - 1
    }

    /// Reclamation statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Pin the collector for thread `tid`, returning a guard that keeps the
    /// thread's announced epoch published until dropped.
    ///
    /// While a guard is live, any object retired during the announced epoch
    /// or later will not be freed, so raw pointers read from the protected
    /// structure remain valid. Pinning is reentrant: nested pins share the
    /// outermost announcement.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= max_threads`.
    pub fn pin(&self, tid: usize) -> Guard<'_> {
        assert!(tid < self.max_threads(), "tid {tid} out of range");
        self.pin_slot(tid)
    }

    /// Run `f` pinned on the reserved slot, which no `tid` owns: what a
    /// structure's constructor and `Drop` pin with, since over a shared
    /// collector any `tid` may belong to a running thread. Callers are
    /// serialized by a mutex; the guard cannot leave `f`.
    pub fn pin_exclusive<R>(&self, f: impl FnOnce(&Guard<'_>) -> R) -> R {
        // A poisoned lock is taken over: the guard of the `f` that
        // panicked unpinned the slot as it unwound.
        let _held = self
            .exclusive
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(&self.pin_slot(self.max_threads()))
    }

    fn pin_slot(&self, tid: usize) -> Guard<'_> {
        let slot = &self.slots[tid];
        let depth = slot.depth.get();
        if depth == 0 {
            // Classic EBR announcement loop: publish the epoch we observed,
            // then re-check that it did not move underneath us. SeqCst keeps
            // the announcement ordered with respect to the reader of other
            // threads' announcements in `try_advance`.
            loop {
                let e = self.epoch.load(Ordering::SeqCst);
                slot.state.store(e, Ordering::SeqCst);
                if self.epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        slot.depth.set(depth + 1);
        Guard {
            collector: self,
            tid,
            _not_send: PhantomData,
        }
    }

    /// Returns `true` if thread `tid` currently holds at least one guard.
    pub fn is_pinned(&self, tid: usize) -> bool {
        self.slot(tid).state.load(Ordering::SeqCst) != INACTIVE
    }

    /// Attempt to advance the global epoch. Succeeds only when every pinned
    /// thread has announced the current epoch.
    ///
    /// Returns `true` if the epoch was advanced.
    pub fn try_advance(&self) -> bool {
        let e = self.epoch.load(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let s = slot.state.load(Ordering::SeqCst);
            if s != INACTIVE && s != e {
                return false;
            }
        }
        let ok = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if ok {
            self.stats.on_advance();
        }
        ok
    }

    /// Free every object in slot `tid`'s limbo list that was retired at
    /// least two epochs ago. Only the slot's owner may call this (its
    /// guard's [`Guard::flush`] and `retire` do).
    fn collect(&self, tid: usize) -> u64 {
        if self.mode == ReclaimMode::Leaky {
            return 0;
        }
        let current = self.epoch.load(Ordering::SeqCst);
        let slot = &self.slots[tid];
        // SAFETY: limbo lists are only touched by their owning thread.
        let limbo = unsafe { &mut *slot.limbo.get() };
        let mut freed = 0u64;
        while let Some(front) = limbo.front() {
            if front.epoch() + 2 <= current {
                let r = limbo.pop_front().expect("front exists");
                // SAFETY: a grace period of two epochs has elapsed, so no
                // pinned thread can still reference the object.
                unsafe { r.reclaim() };
                freed += 1;
            } else {
                break;
            }
        }
        if freed > 0 {
            self.stats.on_free(freed);
        }
        freed
    }

    /// Number of objects waiting in thread `tid`'s limbo list.
    #[cfg(test)]
    fn limbo_len(&self, tid: usize) -> usize {
        // SAFETY: the tests call this with every thread quiescent.
        unsafe { (*self.slots[tid].limbo.get()).len() }
    }

    /// Announce a snapshot for thread `tid`: publish a pending mark, take
    /// the timestamp from `read` (the clock read), publish and return it.
    /// The mark keeps [`Collector::oldest_snapshot`] from missing a
    /// snapshot whose clock read has happened but is not published yet.
    ///
    /// # Panics
    ///
    /// If `tid` already announces one: a second would overwrite the first
    /// and un-pin every bundle entry the older snapshot still needs.
    #[inline]
    pub fn announce(&self, tid: usize, read: impl FnOnce() -> u64) -> u64 {
        let slot = &self.slot(tid).snapshot;
        assert_eq!(
            slot.load(Ordering::Relaxed),
            RQ_INACTIVE,
            "tid {tid} announced a snapshot while its slot still held one \
             (an open snapshot or read lease, or a missing retract)"
        );
        slot.store(RQ_PENDING, Ordering::SeqCst);
        let ts = read();
        slot.store(ts, Ordering::SeqCst);
        ts
    }

    /// End the snapshot announced on `tid`.
    #[inline]
    pub fn retract(&self, tid: usize) {
        self.slot(tid)
            .snapshot
            .store(RQ_INACTIVE, Ordering::Release);
    }

    /// Number of threads announcing a snapshot (pending ones included).
    pub fn announced_snapshots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.snapshot.load(Ordering::Relaxed) != RQ_INACTIVE)
            .count()
    }

    /// The oldest announced snapshot, or `current` (the clock now) when
    /// there is none older. A pending slot is waited on briefly (its owner
    /// is between two adjacent stores); past the bounded spin it counts as
    /// timestamp 0, which only delays reclamation.
    pub fn oldest_snapshot(&self, current: u64) -> u64 {
        let mut oldest = current;
        for slot in self.slots.iter() {
            let mut v = slot.snapshot.load(Ordering::SeqCst);
            let mut spins = 0;
            while v == RQ_PENDING {
                std::hint::spin_loop();
                spins += 1;
                if spins > 10_000 {
                    // Owner descheduled mid-announcement: be conservative.
                    v = 0;
                    break;
                }
                v = slot.snapshot.load(Ordering::SeqCst);
            }
            if v != RQ_INACTIVE && v < oldest {
                oldest = v;
            }
        }
        oldest
    }

    fn retire_impl(&self, tid: usize, retired: Retired) {
        self.stats.on_retire();
        if self.mode == ReclaimMode::Leaky {
            // Intentionally leak: the paper's primary experiments never free.
            #[allow(clippy::forget_non_drop)]
            std::mem::forget(retired);
            return;
        }
        let slot = &self.slots[tid];
        // SAFETY: only the owning thread pushes to its limbo list.
        unsafe { (*slot.limbo.get()).push_back(retired) };
        let n = slot.since_advance.get() + 1;
        slot.since_advance.set(n);
        if n >= ADVANCE_EVERY {
            slot.since_advance.set(0);
            self.try_advance();
        }
        self.collect(tid);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Exclusive access: free everything that is still in limbo.
        let mut freed = 0u64;
        for slot in self.slots.iter() {
            // SAFETY: `&mut self`: no thread can touch any limbo list.
            let limbo = unsafe { &mut *slot.limbo.get() };
            while let Some(r) = limbo.pop_front() {
                // SAFETY: `&mut self`: no guard, which borrows the
                // collector, is left.
                unsafe { r.reclaim() };
                freed += 1;
            }
        }
        if freed > 0 {
            self.stats.on_free(freed);
        }
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("mode", &self.mode)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("threads", &self.max_threads())
            .finish()
    }
}

/// RAII token proving that a thread is pinned.
///
/// Obtained from [`Collector::pin`]; dropping it un-announces the thread
/// (when the outermost guard of a nested sequence is dropped).
pub struct Guard<'c> {
    collector: &'c Collector,
    tid: usize,
    /// Guards must stay on the thread that created them.
    _not_send: PhantomData<*mut ()>,
}

impl<'c> Guard<'c> {
    /// The thread index this guard was pinned with (`max_threads` for a
    /// [`Collector::pin_exclusive`] guard).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The collector this guard belongs to.
    pub fn collector(&self) -> &'c Collector {
        self.collector
    }

    /// Retire a `Box`-allocated object. `T: 'static`, because a collector
    /// shared by several structures may free it after the structure that
    /// retired it is gone.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw::<T>` (as
    /// [`crate::Shared::boxed`] does), must not be freed elsewhere, and must
    /// already be unreachable for threads that pin *after* this call: no
    /// [`crate::Link`] points at it, and any bundle entry that still does is
    /// older than its removal timestamp, so only snapshots pinned before the
    /// removal can follow it.
    pub unsafe fn retire<T: 'static>(&self, ptr: *mut T) {
        let epoch = self.collector.epoch.load(Ordering::SeqCst);
        self.collector
            .retire_impl(self.tid, Retired::from_box(ptr, epoch));
    }

    /// Eagerly run a collection pass for this thread.
    pub fn flush(&self) -> u64 {
        self.collector.collect(self.tid)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let slot = &self.collector.slots[self.tid];
        let depth = slot.depth.get();
        debug_assert!(depth > 0, "guard dropped with zero pin depth");
        slot.depth.set(depth - 1);
        if depth == 1 {
            slot.state.store(INACTIVE, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Counts its drops in the counter of the test that made it (tests
    /// run in parallel, so they must not share one).
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_and_unpin_toggle_announcement() {
        let c = Collector::new(2, ReclaimMode::Reclaim);
        assert!(!c.is_pinned(0));
        {
            let _g = c.pin(0);
            assert!(c.is_pinned(0));
        }
        assert!(!c.is_pinned(0));
    }

    #[test]
    fn nested_pins_share_announcement() {
        let c = Collector::new(1, ReclaimMode::Reclaim);
        let g1 = c.pin(0);
        let g2 = c.pin(0);
        assert!(c.is_pinned(0));
        drop(g2);
        assert!(c.is_pinned(0), "outer guard still live");
        drop(g1);
        assert!(!c.is_pinned(0));
    }

    #[test]
    fn advance_blocked_by_stale_pin() {
        let c = Collector::new(2, ReclaimMode::Reclaim);
        let g = c.pin(0);
        assert!(c.try_advance(), "pinned at current epoch does not block");
        // Thread 0 is still announced at the *old* epoch now.
        assert!(!c.try_advance(), "stale announcement must block advance");
        drop(g);
        assert!(c.try_advance());
    }

    #[test]
    fn retired_objects_freed_after_grace_period() {
        let c = Collector::new(1, ReclaimMode::Reclaim);
        {
            let g = c.pin(0);
            let p = Box::into_raw(Box::new(Tracked(Arc::default())));
            // SAFETY: `retire`: never published, so unreachable.
            unsafe { g.retire(p) };
        }
        assert_eq!(c.stats().retired(), 1);
        // Two advances => grace period over.
        assert!(c.try_advance());
        assert!(c.try_advance());
        let g = c.pin(0);
        g.flush();
        drop(g);
        assert_eq!(c.stats().freed(), 1);
    }

    #[test]
    fn leaky_mode_never_frees() {
        let c = Collector::new(1, ReclaimMode::Leaky);
        {
            let g = c.pin(0);
            let p = Box::into_raw(Box::new(17u64));
            // SAFETY: `retire`: never published, so unreachable.
            unsafe { g.retire(p) };
        }
        c.try_advance();
        c.try_advance();
        c.try_advance();
        let g = c.pin(0);
        g.flush();
        drop(g);
        assert_eq!(c.stats().retired(), 1);
        assert_eq!(c.stats().freed(), 0);
        assert_eq!(c.limbo_len(0), 0, "leaky mode does not queue");
    }

    #[test]
    fn collector_drop_frees_pending() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new(1, ReclaimMode::Reclaim);
            let g = c.pin(0);
            for _ in 0..10 {
                let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                // SAFETY: `retire`: never published, so unreachable.
                unsafe { g.retire(p) };
            }
            drop(g);
            // No grace period has passed; everything is still pending.
            assert!(c.stats().pending() > 0);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_retire_is_safe() {
        let drops = Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let c = Arc::new(Collector::new(THREADS, ReclaimMode::Reclaim));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let (c, drops) = (Arc::clone(&c), Arc::clone(&drops));
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    let g = c.pin(tid);
                    let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                    // SAFETY: `retire`: never published, so unreachable.
                    unsafe { g.retire(p) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().retired(), (THREADS * PER_THREAD) as u64);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), THREADS * PER_THREAD);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_out_of_range_panics() {
        let c = Collector::new(1, ReclaimMode::Reclaim);
        // Index 1 exists, but it is the reserved slot, which no tid owns.
        let _ = c.pin(1);
    }

    #[test]
    fn exclusive_pin_holds_the_epoch_without_borrowing_a_tid() {
        let c = Collector::new(1, ReclaimMode::Reclaim);
        let owner = c.pin(0);
        c.pin_exclusive(|g| {
            assert_eq!(g.tid(), 1);
            assert!(c.try_advance());
            assert!(!c.try_advance(), "the reserved pin holds the epoch");
        });
        assert!(c.is_pinned(0), "tid 0's pin is untouched");
        drop(owner);
        assert!(c.try_advance(), "the reserved slot is unpinned again");
    }

    #[test]
    fn the_oldest_announced_snapshot_holds_until_retracted() {
        let c = Collector::new(4, ReclaimMode::Reclaim);
        assert_eq!(c.oldest_snapshot(10), 10, "none announced: now");
        assert_eq!(c.announce(1, || 10), 10);
        assert_eq!(c.announce(2, || 15), 15);
        assert_eq!(c.announced_snapshots(), 2);
        assert_eq!(c.oldest_snapshot(20), 10);
        c.retract(1);
        assert_eq!(c.oldest_snapshot(20), 15);
        c.retract(2);
        assert_eq!((c.oldest_snapshot(20), c.announced_snapshots()), (20, 0));
        // A retracted tid may announce again.
        assert_eq!(c.announce(1, || 20), 20);
    }

    #[test]
    fn concurrent_announcements_never_report_future_snapshots() {
        let (clock, c) = (AtomicU64::new(0), Collector::new(4, ReclaimMode::Reclaim));
        let now = || clock.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            s.spawn(|| (0..50_000).for_each(|_| _ = clock.fetch_add(1, Ordering::SeqCst)));
            for tid in 1..4 {
                let (c, now) = (&c, &now);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let ts = c.announce(tid, now);
                        let oldest = c.oldest_snapshot(now());
                        assert!(oldest <= ts && ts <= now(), "{oldest} {ts}");
                        c.retract(tid);
                    }
                });
            }
        });
    }
}
