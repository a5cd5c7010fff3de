//! The epoch collector: global epoch, per-thread slots, pin guards.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::retired::Retired;
use crate::stats::Stats;

/// Sentinel stored in a thread slot while the thread is not pinned.
const INACTIVE: u64 = u64::MAX;

/// How many retires a thread performs between attempts to advance the
/// global epoch. DEBRA uses a similar amortization so that the (O(threads))
/// scan of announcement slots is off the common path.
const ADVANCE_EVERY: usize = 64;

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
    /// Pin nesting depth; only touched by the owning thread.
    depth: Cell<usize>,
    /// Number of retires since the last epoch-advance attempt.
    since_advance: Cell<usize>,
    /// Thread-local limbo list of retired objects (DEBRA-style).
    limbo: UnsafeCell<VecDeque<Retired>>,
}

// Safety: `state` is atomic. `depth`, `since_advance` and `limbo` are only
// accessed by the thread registered for this slot (enforced by the `tid`
// discipline of `pin`/`retire`) or by the collector's `Drop`/`&mut`
// teardown, which has exclusive access.
unsafe impl Sync for ThreadSlot {}
unsafe impl Send for ThreadSlot {}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            state: AtomicU64::new(INACTIVE),
            depth: Cell::new(0),
            since_advance: Cell::new(0),
            limbo: UnsafeCell::new(VecDeque::new()),
        }
    }
}

/// An epoch-based reclamation domain.
///
/// One collector is embedded in every concurrent data structure of this
/// workspace; threads are identified by a dense index `tid` in
/// `0..max_threads` (the same index used by the bundle range-query tracker
/// and by the benchmark harness).
pub struct Collector {
    mode: ReclaimMode,
    epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<ThreadSlot>]>,
    stats: Stats,
}

impl Collector {
    /// Create a collector supporting `max_threads` registered threads.
    pub fn new(max_threads: usize, mode: ReclaimMode) -> Self {
        assert!(max_threads > 0, "collector needs at least one thread slot");
        let slots = (0..max_threads)
            .map(|_| CachePadded::new(ThreadSlot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Collector {
            mode,
            epoch: CachePadded::new(AtomicU64::new(0)),
            slots,
            stats: Stats::new(),
        }
    }

    /// The reclamation mode this collector was built with.
    pub fn mode(&self) -> ReclaimMode {
        self.mode
    }

    /// Number of thread slots.
    pub fn max_threads(&self) -> usize {
        self.slots.len()
    }

    /// Current global epoch (diagnostic).
    pub fn global_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
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
        self.slots[tid].state.load(Ordering::SeqCst) != INACTIVE
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

    /// Unconditionally attempt an epoch advance (used by tests and by the
    /// background recycler between cleanup passes).
    pub fn force_advance(&self) -> bool {
        self.try_advance()
    }

    /// Free every object in thread `tid`'s limbo list that was retired at
    /// least two epochs ago.
    ///
    /// Must only be called by the thread registered as `tid` (the guard
    /// methods do this automatically).
    pub fn collect(&self, tid: usize) -> u64 {
        if self.mode == ReclaimMode::Leaky {
            return 0;
        }
        let current = self.epoch.load(Ordering::SeqCst);
        let slot = &self.slots[tid];
        // Safety: limbo lists are only touched by their owning thread.
        let limbo = unsafe { &mut *slot.limbo.get() };
        let mut freed = 0u64;
        while let Some(front) = limbo.front() {
            if front.epoch() + 2 <= current {
                let r = limbo.pop_front().expect("front exists");
                // Safety: a grace period of two epochs has elapsed, so no
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
    pub fn limbo_len(&self, tid: usize) -> usize {
        // Safety: read-only peek; callers use this for diagnostics/tests on
        // their own slot or while other threads are quiescent.
        unsafe { (*self.slots[tid].limbo.get()).len() }
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
        // Safety: only the owning thread pushes to its limbo list.
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
            let limbo = unsafe { &mut *slot.limbo.get() };
            while let Some(r) = limbo.pop_front() {
                // Safety: no thread can be pinned while the collector is
                // being dropped (it is owned by the structure being dropped).
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
            .field("epoch", &self.global_epoch())
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
    /// The thread index this guard was pinned with.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The collector this guard belongs to.
    pub fn collector(&self) -> &'c Collector {
        self.collector
    }

    /// Retire a `Box`-allocated object.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw::<T>`, must already be
    /// unreachable for threads that pin *after* this call, and must not be
    /// freed elsewhere.
    pub unsafe fn retire<T>(&self, ptr: *mut T) {
        let epoch = self.collector.epoch.load(Ordering::SeqCst);
        self.collector
            .retire_impl(self.tid, Retired::from_box(ptr, epoch));
    }

    /// Retire an arbitrary allocation with a custom destructor.
    ///
    /// # Safety
    ///
    /// Same contract as [`Guard::retire`], and `dtor` must be safe to call
    /// exactly once on `ptr`.
    pub unsafe fn retire_with(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        let epoch = self.collector.epoch.load(Ordering::SeqCst);
        self.collector
            .retire_impl(self.tid, Retired::with_dtor(ptr, dtor, epoch));
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
            unsafe { g.retire(p) };
        }
        assert_eq!(c.stats().retired(), 1);
        // Two advances => grace period over.
        assert!(c.force_advance());
        assert!(c.force_advance());
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
            unsafe { g.retire(p) };
        }
        c.force_advance();
        c.force_advance();
        c.force_advance();
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
    #[should_panic]
    fn pin_out_of_range_panics() {
        let c = Collector::new(1, ReclaimMode::Reclaim);
        let _ = c.pin(5);
    }
}
