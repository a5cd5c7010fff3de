//! The bundle itself: a history of link values tagged with timestamps.

use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};

use ebr::{Guard, Shared};

/// Timestamp value marking a bundle entry that has been prepared but whose
/// update has not yet been finalized (Algorithm 2, `PENDING_TS`).
pub const PENDING_TS: u64 = u64::MAX;

/// Timestamp of an *aborted* entry that no snapshot may ever satisfy.
///
/// When a two-phase update ([`Bundle::prepare`] + [`Bundle::abort`])
/// is rolled back on a bundle that had no prior history (the node was
/// created by the aborted transaction itself), the pending entry cannot be
/// neutralized by restoring the previous link value — there is none.
/// Stamping it with `TOMBSTONE_TS` keeps the entry's timestamp ordering
/// intact (it is newer than every real timestamp) while guaranteeing
/// `dereference` never returns it: readers fall through to `None` and
/// restart on the guaranteed bundle-only path, which cannot reach the
/// discarded node.
pub const TOMBSTONE_TS: u64 = u64::MAX - 1;

/// Head timestamp of a bundle that has never held an entry. Like the
/// tombstone it is newer than every snapshot, so `dereference` needs no
/// separate emptiness test; unlike the tombstone it is not an entry
/// (`len`, `iter` and `newest_committed_ts` skip it).
const EMPTY_TS: u64 = u64::MAX - 2;

/// Snapshot timestamps are clamped to this, so that no snapshot satisfies a
/// sentinel head.
const MAX_SNAPSHOT_TS: u64 = EMPTY_TS - 1;

/// One *older* record of a link's history: a `(ptr, ts)` pair displaced
/// from the bundle's inline head by a later update (Listing 1,
/// `BundleEntry`). Immutable once pushed, except for `next`, which only
/// cleanup clears.
struct BundleEntry<T> {
    ptr: *mut T,
    ts: u64,
    next: AtomicPtr<BundleEntry<T>>,
}

/// A bundled reference: the history of one link in a concurrent linked data
/// structure (Listing 1, `Bundle`).
///
/// # Layout
///
/// The **newest entry lives inline**: `ts` and `ptr` are fields of the
/// bundle itself, hence of the node that embeds it, so a snapshot
/// traversal whose timestamp is at or after the link's last change
/// resolves the hop from the cache lines it already holds. Only *older*
/// history hangs off the heap, as an immutable singly linked chain
/// (`older`, newest first). Timestamps never increase from the head down
/// the chain; they may be equal (a relaxed clock hands out equal
/// timestamps, and an aborted prepare leaves a duplicate of the entry
/// beneath it). Three sentinels, all newer than every snapshot, can stand
/// in `ts`: [`PENDING_TS`] (prepared, not finalized — only ever at the
/// head), [`TOMBSTONE_TS`] (aborted first entry) and a private "never
/// initialized" value. [`Bundle::init`] allocates nothing;
/// [`Bundle::prepare`] allocates the one chain entry that takes the
/// displaced head.
///
/// The data structure that owns this bundle keeps its own "newest"
/// [`ebr::Link`] (the paper's `newestNextPtr`) next to it, so primitive
/// operations never touch the bundle at all. Link values go in and come out
/// as [`Shared`] pointers: a reader's [`Bundle::dereference`] hands back a
/// node it may dereference for as long as its guard lives.
///
/// # Protocol
///
/// `seq` is a sequence lock over the inline pair. **Writers** — `prepare`,
/// and cleanup when it detaches the whole chain — take it by a CAS from an
/// even value to the next odd one, which they may only attempt while the
/// head is not pending; `prepare` then spills the displaced head onto the
/// chain, stores `PENDING_TS` and the staged pointer, and makes `seq` even
/// again. The head then stays pending, with `seq` even, until the owner's
/// `finalize` (one store of the commit timestamp) or `abort` (pointer and
/// timestamp restored from the chain head); neither touches `seq`.
///
/// **Readers** ([`Bundle::dereference`]) load `seq`, `ts`, and then:
///
/// * `ts == PENDING_TS` — spin: the update may have linearized before the
///   snapshot was taken (Algorithm 3);
/// * `ts <= snapshot` — load `ptr`, re-load `seq`, and accept the pair only
///   if `seq` is even and unchanged;
/// * otherwise — walk the chain. No validation is needed: `ts` was some
///   update's timestamp, every entry that update and its predecessors
///   displaced is already on the chain, and chain entries are immutable.
///
/// # Memory orderings
///
/// * Taking `seq` is an `Acquire` CAS followed by a `Release` fence. The
///   acquire half pairs with the previous writer's `Release` store of the
///   even value, so writers see each other's chains. The fence orders the
///   odd value before the writer's `Relaxed` stores to `ts`/`ptr`: a reader
///   that observes any of those stores and then issues its `Acquire` fence
///   is guaranteed to re-load a `seq` at least that new, and rejects.
/// * The writer's closing `seq` store is `Release`, paired with the
///   reader's opening `Acquire` load: a reader that starts from the new
///   even value cannot see `ts` from before the claim.
/// * `finalize`/`abort` store `ts` with `Release`, paired with the reader's
///   `Acquire` load of `ts`: a reader that sees the commit timestamp sees
///   the final pointer (restaged by `restage` or restored by `abort`), the
///   spilled chain, and the initialized node the pointer refers to.
/// * `older` and `next` are published with `Release` and followed with
///   `Acquire`, which makes the entry fields visible to chain walkers.
///
/// Validating on `ts` alone would not be sound, which is what `seq` is for.
/// (1) *Abort restores the same timestamp:* a reader loads `ts = t`, an
/// update prepares (`ptr = staged`), the reader loads `staged`, the update
/// aborts and `ts` is `t` again — `(t, staged)` was never a state of the
/// link. (2) *Equal timestamps:* under a relaxed clock two consecutive
/// updates may both finalize with `t`, so an unchanged `ts` does not imply
/// an unchanged `ptr`. In both cases the intervening `prepare` moved `seq`.
pub struct Bundle<T> {
    /// Sequence lock over `ts`/`ptr`; odd while a writer is inside.
    seq: AtomicU64,
    /// Timestamp of the newest entry, or a sentinel.
    ts: AtomicU64,
    /// Link value of the newest entry.
    ptr: AtomicPtr<T>,
    /// Entries displaced from the head, newest first.
    older: AtomicPtr<BundleEntry<T>>,
}

// SAFETY: the bundle only stores raw pointers; it never dereferences the
// `T`s it points to, and its chain entries are immutable once linked.
// Sharing it across threads is exactly its purpose: all mutation goes
// through atomics with the protocol above.
unsafe impl<T: Send + Sync> Send for Bundle<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send + Sync> Sync for Bundle<T> {}

impl<T> Default for Bundle<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Bundle<T> {
    /// An empty bundle (no history yet).
    pub fn new() -> Self {
        Bundle {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(EMPTY_TS),
            ptr: AtomicPtr::new(ptr::null_mut()),
            older: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Install the initial entry of a link created while the structure (or
    /// node) is still private to one thread — e.g. the sentinel link of an
    /// empty list, timestamped with the initial `globalTs` value.
    pub fn init(&self, ptr: Shared<'_, T>, ts: u64) {
        debug_assert!(
            self.is_empty(),
            "init on a bundle that already has an entry"
        );
        self.ptr.store(ptr.as_raw(), Ordering::Relaxed);
        // Release: a thread that meets the bundle through a racy path still
        // reads the pointer that belongs to this timestamp.
        self.ts.store(ts, Ordering::Release);
    }

    /// Returns `true` if the bundle has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.ts.load(Ordering::Acquire) == EMPTY_TS
    }

    /// Number of entries currently in the bundle, the inline head included
    /// (diagnostic; O(n)).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Opening half of a read of the inline pair: `(seq, ts)`.
    #[inline]
    fn head_begin(&self) -> (u64, u64) {
        let seq = self.seq.load(Ordering::Acquire);
        (seq, self.ts.load(Ordering::Acquire))
    }

    /// Closing half: `true` if no writer was inside the sequence lock at
    /// [`Bundle::head_begin`] or has entered since, i.e. the `ts` and `ptr`
    /// loaded in between belong together.
    #[inline]
    fn head_validate(&self, seq: u64) -> bool {
        fence(Ordering::Acquire);
        seq & 1 == 0 && self.seq.load(Ordering::Relaxed) == seq
    }

    /// A validated `(seq, ts, ptr)` of the inline head. Never waits for a
    /// pending head — while `ts` is [`PENDING_TS`] the pointer is whatever
    /// the owner has staged or restored so far.
    fn read_head(&self) -> (u64, u64, *mut T) {
        loop {
            let (seq, ts) = self.head_begin();
            let ptr = self.ptr.load(Ordering::Relaxed);
            if self.head_validate(seq) {
                return (seq, ts, ptr);
            }
            std::hint::spin_loop();
        }
    }

    /// Take the writer side of the sequence lock, waiting out other writers
    /// and any pending head. Returns the odd value now in `seq`.
    fn claim(&self) -> u64 {
        loop {
            let (seq, ts) = self.head_begin();
            // A successful CAS proves no other writer entered since `seq`
            // was loaded, and only a writer can make the head pending — so
            // the head is still the non-pending one just observed.
            if seq & 1 == 0
                && ts != PENDING_TS
                && self
                    .seq
                    .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                fence(Ordering::Release);
                return seq + 1;
            }
            std::hint::spin_loop();
        }
    }

    /// Algorithm 2, `PrepareBundle`: atomically make the head a new entry
    /// in the pending state, waiting for any other update's pending entry
    /// to be finalized first so that entries stay ordered by timestamp. The
    /// displaced head moves onto the chain.
    ///
    /// The same logical update must resolve the pending head with exactly
    /// one [`Bundle::finalize`] or [`Bundle::abort`]: a forgotten pending
    /// entry blocks every later update and snapshot read of the bundle. In
    /// a structure the caller holds the lock of the node owning the bundle
    /// from here until it has resolved the head, which is how a two-phase
    /// token finds its pending entries without keeping a list of them.
    pub fn prepare(&self, ptr: Shared<'_, T>) {
        let odd = self.claim();
        let ts = self.ts.load(Ordering::Relaxed);
        // A sentinel head (never initialized, or an aborted first entry) is
        // not history: nothing to spill.
        if ts <= MAX_SNAPSHOT_TS {
            let displaced = Box::into_raw(Box::new(BundleEntry {
                ptr: self.ptr.load(Ordering::Relaxed),
                ts,
                next: AtomicPtr::new(self.older.load(Ordering::Relaxed)),
            }));
            self.older.store(displaced, Ordering::Release);
        }
        self.ts.store(PENDING_TS, Ordering::Relaxed);
        self.ptr.store(ptr.as_raw(), Ordering::Relaxed);
        self.seq.store(odd + 1, Ordering::Release);
    }

    /// `true` while the head is prepared and not yet resolved. Exact only
    /// for the owner of the pending head (the holder of its node's lock);
    /// anyone else may see a stale answer.
    pub(crate) fn is_pending(&self) -> bool {
        self.ts.load(Ordering::Relaxed) == PENDING_TS
    }

    /// Restage the link value of a pending head (`true`), or do nothing if
    /// the head is not pending (`false`). Only the owner of a pending head
    /// may call this: in a structure, the holder of the node lock every
    /// `prepare` of this bundle takes. A transaction that updates one link
    /// twice merges the second update into its first entry this way.
    pub fn restage(&self, ptr: Shared<'_, T>) -> bool {
        // Relaxed: the caller's lock orders this after every other owner's
        // finalize or abort.
        if !self.is_pending() {
            return false;
        }
        // Relaxed: no reader accepts the head while it is pending; the
        // owner's finalize/abort `Release` store publishes the value.
        self.ptr.store(ptr.as_raw(), Ordering::Relaxed);
        true
    }

    /// Algorithm 1, `FinalizeBundle`: publish the pending head with its
    /// commit timestamp, releasing every reader and preparer spinning on
    /// it. Must be called exactly once after [`Bundle::prepare`] by the
    /// same logical update, unless it aborts instead.
    pub fn finalize(&self, ts: u64) {
        debug_assert!(
            self.is_pending(),
            "finalize must target the pending entry installed by prepare"
        );
        debug_assert!(
            ts <= MAX_SNAPSHOT_TS,
            "commit timestamp collides with a sentinel"
        );
        self.ts.store(ts, Ordering::Release);
    }

    /// Roll the pending head back: readers behave as if the prepared
    /// update never happened.
    ///
    /// If the bundle has older history the head becomes a *neutralized
    /// duplicate* — same pointer and timestamp as the entry `prepare`
    /// displaced beneath it, so every `dereference` resolves exactly as
    /// before the prepare. If the bundle had none (the node was created by
    /// the aborting transaction), the head is stamped [`TOMBSTONE_TS`],
    /// which no snapshot satisfies; the caller must also make the node
    /// unreachable.
    pub fn abort(&self) {
        debug_assert!(
            self.is_pending(),
            "abort must target the pending entry installed by prepare"
        );
        // The chain head is the entry this prepare displaced: cleanup never
        // detaches it while the head is pending.
        let prior = self.older.load(Ordering::Acquire);
        if prior.is_null() {
            self.ts.store(TOMBSTONE_TS, Ordering::Release);
        } else {
            // SAFETY: chain entries stay allocated while linked.
            let p = unsafe { &*prior };
            self.ptr.store(p.ptr, Ordering::Relaxed);
            // Release: publishes the restored pointer to the reader whose
            // `Acquire` load of `ts` ends its pending spin.
            self.ts.store(p.ts, Ordering::Release);
        }
    }

    /// `DereferenceBundle` (§3.3): return the link value that was current at
    /// logical time `ts`, i.e. the newest entry whose timestamp is `<= ts`.
    ///
    /// Blocks (spins) while the head entry is pending, so a range query
    /// never misses an update that linearized before the query started but
    /// whose bundles were not yet finalized.
    ///
    /// Returns `None` when no entry satisfies `ts`, which tells the range
    /// query that its optimistic traversal landed on a node inserted after
    /// its snapshot and that it must restart (Algorithm 3, line 7).
    ///
    /// `guard` must be pinned in the owning structure's collector since
    /// *before* `ts` was read from the clock (`RqContext::announce_rq`, which
    /// every range query and store snapshot takes, pins first): a node an entry at or below
    /// `ts` points to was reachable at `ts`, so its removal timestamp is
    /// larger, its retire comes after that pin, and it stays allocated for
    /// as long as `guard` lives.
    #[inline]
    pub fn dereference<'g>(&self, ts: u64, guard: &'g Guard<'_>) -> Option<Shared<'g, T>> {
        let ts = ts.min(MAX_SNAPSHOT_TS);
        loop {
            let (seq, head_ts) = self.head_begin();
            if head_ts <= ts {
                #[cfg(test)]
                tests::widen_torn_read_window();
                let ptr = self.ptr.load(Ordering::Relaxed);
                #[cfg(test)]
                tests::widen_torn_read_window();
                if self.head_validate(seq) {
                    // SAFETY: the seq-lock head read. `(head_ts, ptr)` is a
                    // state of the link (no writer got in), its value was
                    // published as a `Shared`, and `head_ts <= ts` with the
                    // pin-before-clock-read rule above keeps it allocated.
                    return Some(unsafe { Shared::from_raw(ptr, guard) });
                }
            } else if head_ts != PENDING_TS {
                return self.dereference_older(ts, guard);
            }
            std::hint::spin_loop();
        }
    }

    /// The chain half of [`Bundle::dereference`]: the head is newer than
    /// the snapshot.
    #[cold]
    fn dereference_older<'g>(&self, ts: u64, guard: &'g Guard<'_>) -> Option<Shared<'g, T>> {
        let mut curr = self.older.load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: chain entries are retired through EBR only after they
            // are unlinked, and `guard` is pinned.
            let e = unsafe { &*curr };
            if e.ts <= ts {
                // SAFETY: an immutable entry at or below `ts`, so its value
                // is live under `guard` as in `dereference`.
                return Some(unsafe { Shared::from_raw(e.ptr, guard) });
            }
            curr = e.next.load(Ordering::Acquire);
        }
        None
    }

    /// Timestamp of the newest *committed* entry: the head, or the entry
    /// beneath a pending head. Unlike [`Bundle::dereference`] this never
    /// blocks on a pending head — the pending entry belongs to an
    /// uncommitted transaction (possibly the caller's own), and a
    /// validation pass must look *past* it at the state every snapshot
    /// could actually have observed.
    ///
    /// Returns `None` for an empty bundle. A [`TOMBSTONE_TS`] head (the
    /// neutralized first entry of an aborted transaction's node) is
    /// reported as-is: it is newer than every real timestamp, so
    /// [`Bundle::validate_at`] correctly fails on such a bundle.
    pub fn newest_committed_ts(&self) -> Option<u64> {
        loop {
            let (seq, ts, _) = self.read_head();
            if ts != PENDING_TS {
                return (ts != EMPTY_TS).then_some(ts);
            }
            // `seq` was even, so the pending head's `prepare` had already
            // spilled what it displaced: that is the chain head, for as
            // long as no writer (a later `prepare`, or cleanup detaching
            // the chain once the head has finalized) gets in.
            let displaced = self.older.load(Ordering::Acquire);
            // SAFETY: as in `dereference_older`.
            let ts = (!displaced.is_null()).then(|| unsafe { &*displaced }.ts);
            if self.head_validate(seq) {
                return ts;
            }
        }
    }

    /// `true` if the link has not committed any change since `ts`: the
    /// newest committed entry's timestamp is `<= ts` (an empty bundle is
    /// vacuously unchanged). A value observed through
    /// [`Bundle::dereference`]`(ts)` is still current exactly when the
    /// bundle validates at `ts`. (`txn_validate` re-walks by node identity
    /// instead, which tolerates neighbours' commits; this is the per-link
    /// check for single reads.)
    pub fn validate_at(&self, ts: u64) -> bool {
        self.newest_committed_ts().is_none_or(|t| t <= ts)
    }

    /// Timestamp of the newest finalized entry (diagnostic).
    pub fn newest_ts(&self) -> Option<u64> {
        let (_, ts, _) = self.read_head();
        (ts != EMPTY_TS && ts != PENDING_TS).then_some(ts)
    }

    /// Iterate over `(ptr, ts)` pairs, newest first (diagnostic / tests).
    pub fn iter(&self) -> BundleIter<'_, T> {
        // Chain before head: entries pushed in between are then missed
        // rather than reported both inline and spilled.
        let curr = self.older.load(Ordering::Acquire);
        let (_, ts, ptr) = self.read_head();
        BundleIter {
            head: (ts != EMPTY_TS).then_some((ptr, ts)),
            curr,
            _marker: std::marker::PhantomData,
        }
    }

    /// Reclaim entries that no active range query can need (Appendix B,
    /// "Freeing Bundle Entries").
    ///
    /// Keeps every entry newer than `oldest_active` plus the first entry
    /// that satisfies `oldest_active`; everything older is detached and
    /// retired through the supplied EBR guard so that range queries that
    /// already hold a pointer into the chain remain safe. When the inline
    /// head itself satisfies `oldest_active` that is the whole chain.
    ///
    /// Concurrency: any number of cleaners may run on one bundle at once,
    /// beside `prepare`/`finalize`/`abort`/`dereference`. Every link a
    /// cleaner cuts or follows into detached entries it **claims** by
    /// swapping it to null, and it retires only entries reached through a
    /// link it claimed: two cleaners whose keepers differ walk overlapping
    /// tails, and the claim hands each entry to exactly one of them. Below
    /// a keeper on the chain cleanup only clears `next` fields of immutable
    /// entries, and to detach the whole chain it takes the sequence lock
    /// like a `prepare` would (giving up for this pass if one gets there
    /// first), so no displaced head can be spilled onto a chain that is
    /// being thrown away.
    ///
    /// Returns the number of entries retired.
    pub fn reclaim_up_to(&self, oldest_active: u64, guard: &Guard<'_>) -> usize
    where
        T: 'static,
    {
        let oldest_active = oldest_active.min(MAX_SNAPSHOT_TS);
        let (seq, head_ts, _) = self.read_head();
        let mut tail = if head_ts <= oldest_active {
            if self.older.load(Ordering::Relaxed).is_null()
                || self
                    .seq
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
            {
                return 0;
            }
            let tail = self.older.swap(ptr::null_mut(), Ordering::AcqRel);
            self.seq.store(seq + 2, Ordering::Release);
            tail
        } else {
            // The head is pending or too new: find the first chain entry
            // that satisfies the oldest active range query.
            let mut curr = self.older.load(Ordering::Acquire);
            loop {
                if curr.is_null() {
                    return 0;
                }
                // SAFETY: as in `dereference_older`.
                let e = unsafe { &*curr };
                if e.ts <= oldest_active {
                    #[cfg(test)]
                    tests::widen_reclaim_window();
                    break e.next.swap(ptr::null_mut(), Ordering::AcqRel);
                }
                curr = e.next.load(Ordering::Acquire);
            }
        };
        // Everything from `tail` on is unreachable for present and future
        // range queries.
        let mut retired = 0;
        while !tail.is_null() {
            // SAFETY: the entry has been unlinked from the bundle and is
            // only reachable by range queries and cleaners that pinned
            // before now; EBR defers the free past their guards.
            let next = unsafe { &*tail }
                .next
                .swap(ptr::null_mut(), Ordering::AcqRel);
            // SAFETY: `retire`: reached through a link this call claimed,
            // so no other cleaner retires it, and only snapshots pinned
            // before now can still be on it.
            unsafe { guard.retire(tail) };
            retired += 1;
            tail = next;
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        retired
    }

    /// Panic unless the bundle's local invariants hold: timestamps do not
    /// increase from the inline head down the chain, only the head is
    /// pending (the chain holds real timestamps only), a chain exists only
    /// under a real or pending head, and the chain is acyclic.
    ///
    /// The caller must be pinned in the structure's collector or otherwise
    /// know that no cleanup frees chain entries during the call. Safe to
    /// run next to updates: the chain is sampled before the head, and every
    /// later head is at least as new as everything spilled before it. Safe
    /// next to cleaners too: a walk that strays into a detached tail stops
    /// where a cleaner has claimed (nulled) a link.
    pub fn check_invariants(&self) {
        let chain = self.older.load(Ordering::Acquire);
        let (_, head_ts, _) = self.read_head();
        assert!(
            chain.is_null() || head_ts <= MAX_SNAPSHOT_TS || head_ts == PENDING_TS,
            "history under an empty or tombstoned head ({head_ts})"
        );
        let mut newer = head_ts;
        // Floyd: `slow` advances every second step of `curr`.
        let (mut curr, mut slow, mut steps) = (chain, chain, 0usize);
        while !curr.is_null() {
            // SAFETY: see the caller contract above.
            let e = unsafe { &*curr };
            assert!(
                e.ts <= MAX_SNAPSHOT_TS,
                "sentinel timestamp {} below the head",
                e.ts
            );
            assert!(
                e.ts <= newer,
                "timestamp {} above newer entry's {newer}",
                e.ts
            );
            newer = e.ts;
            curr = e.next.load(Ordering::Acquire);
            steps += 1;
            if steps % 2 == 0 {
                // SAFETY: `slow` trails `curr` on the same chain.
                slow = unsafe { &*slow }.next.load(Ordering::Acquire);
                if slow.is_null() {
                    // A cleaner claimed a link behind `curr`: the walk is
                    // on a detached tail, and past the claim it is not
                    // this bundle's history any more.
                    break;
                }
            }
            assert!(curr.is_null() || curr != slow, "bundle chain is cyclic");
        }
    }
}

impl<T> Drop for Bundle<T> {
    fn drop(&mut self) {
        // Exclusive access: free the entry chain (the pointed-to nodes are
        // owned by the data structure, not by the bundle).
        let mut curr = *self.older.get_mut();
        while !curr.is_null() {
            // SAFETY: chain entries come from `Box::into_raw` in `prepare`
            // and are owned by the bundle while linked.
            let boxed = unsafe { Box::from_raw(curr) };
            curr = boxed.next.load(Ordering::Relaxed);
        }
    }
}

impl<T> std::fmt::Debug for Bundle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: Vec<(usize, u64)> = self.iter().map(|(p, ts)| (p as usize, ts)).collect();
        f.debug_struct("Bundle").field("entries", &entries).finish()
    }
}

/// Iterator over the `(ptr, ts)` entries of a bundle, newest first.
pub struct BundleIter<'a, T> {
    head: Option<(*mut T, u64)>,
    curr: *mut BundleEntry<T>,
    _marker: std::marker::PhantomData<&'a Bundle<T>>,
}

impl<'a, T> Iterator for BundleIter<'a, T> {
    type Item = (*mut T, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(head) = self.head.take() {
            return Some(head);
        }
        if self.curr.is_null() {
            return None;
        }
        // SAFETY: as in `Bundle::dereference_older`.
        let e = unsafe { &*self.curr };
        self.curr = e.next.load(Ordering::Acquire);
        Some((e.ptr, e.ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebr::{Collector, ReclaimMode};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// One never-reclaiming pin per test thread: test values enter bundles
    /// as `Shared`s and come back out under it.
    fn pin() -> &'static Guard<'static> {
        thread_local!(static PIN: &'static Guard<'static> = Box::leak(Box::new(
            Box::leak(Box::new(Collector::new(1, ReclaimMode::Leaky))).pin(0)
        )));
        PIN.with(|g| *g)
    }

    fn sh(p: *mut u64) -> Shared<'static, u64> {
        // SAFETY: test values are leaked boxes, or fakes (`fake`) that a
        // bundle never dereferences.
        unsafe { Shared::from_raw(p, pin()) }
    }

    fn leak(v: u64) -> Shared<'static, u64> {
        Shared::boxed(v, pin())
    }

    /// `Shared`s are not `Send`; tests move them into threads as `usize`.
    #[derive(Clone, Copy)]
    struct SendPtr(usize);
    impl SendPtr {
        fn new(p: Shared<'_, u64>) -> Self {
            SendPtr(p.as_raw() as usize)
        }
        fn get(self) -> Shared<'static, u64> {
            sh(self.0 as *mut u64)
        }
    }

    #[test]
    fn init_and_dereference() {
        let b: Bundle<u64> = Bundle::new();
        assert!(b.is_empty());
        assert_eq!(b.dereference(10, pin()), None);
        let p = leak(7);
        b.init(p, 0);
        assert_eq!(b.dereference(0, pin()), Some(p));
        assert_eq!(b.dereference(100, pin()), Some(p));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn entries_sorted_and_satisfying_entry_selected() {
        let b: Bundle<u64> = Bundle::new();
        let p0 = leak(0);
        let p1 = leak(1);
        let p2 = leak(2);
        b.init(p0, 0);
        b.prepare(p1);
        b.finalize(3);
        b.prepare(p2);
        b.finalize(7);
        // Newest first, timestamps strictly decreasing along the chain.
        let ts: Vec<u64> = b.iter().map(|(_, t)| t).collect();
        assert_eq!(ts, vec![7, 3, 0]);
        assert_eq!(b.dereference(0, pin()), Some(p0));
        assert_eq!(b.dereference(2, pin()), Some(p0));
        assert_eq!(b.dereference(3, pin()), Some(p1));
        assert_eq!(b.dereference(6, pin()), Some(p1));
        assert_eq!(b.dereference(7, pin()), Some(p2));
        assert_eq!(b.dereference(u64::MAX - 1, pin()), Some(p2));
        assert_eq!(b.newest_ts(), Some(7));
    }

    #[test]
    fn dereference_returns_none_for_too_old_snapshot() {
        let b: Bundle<u64> = Bundle::new();
        let p = leak(9);
        b.init(p, 5);
        // A snapshot taken before the link existed must not see it.
        assert_eq!(b.dereference(4, pin()), None);
    }

    #[test]
    fn dereference_blocks_until_pending_finalized() {
        let b: Arc<Bundle<u64>> = Arc::new(Bundle::new());
        let p0 = leak(0);
        b.init(p0, 0);
        let p1 = leak(1);
        b.prepare(p1);

        let released = Arc::new(AtomicBool::new(false));
        let p1s = SendPtr::new(p1);
        let reader = {
            let b = Arc::clone(&b);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                // This dereference must not return until finalize happens.
                let got = b.dereference(1, pin());
                assert!(
                    released.load(Ordering::SeqCst),
                    "dereference returned while the head entry was still pending"
                );
                assert_eq!(got, Some(p1s.get()));
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        b.finalize(1);
        reader.join().unwrap();
    }

    #[test]
    fn prepare_blocks_other_prepares_until_finalize() {
        let b: Arc<Bundle<u64>> = Arc::new(Bundle::new());
        let p0 = leak(0);
        b.init(p0, 0);
        let p1 = leak(1);
        let p2 = leak(2);
        b.prepare(p1);
        let released = Arc::new(AtomicBool::new(false));
        let p2s = SendPtr::new(p2);
        let other = {
            let b = Arc::clone(&b);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let p2 = p2s.get();
                b.prepare(p2);
                assert!(
                    released.load(Ordering::SeqCst),
                    "second prepare completed while first entry was pending"
                );
                b.finalize(2);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        b.finalize(1);
        other.join().unwrap();
        let ts: Vec<u64> = b.iter().map(|(_, t)| t).collect();
        assert_eq!(ts, vec![2, 1, 0], "entries remain ordered by timestamp");
    }

    #[test]
    fn reclaim_keeps_entry_needed_by_oldest_range_query() {
        let collector = Collector::new(1, ReclaimMode::Reclaim);
        let b: Bundle<u64> = Bundle::new();
        let ptrs: Vec<_> = (0..5).map(leak).collect();
        b.init(ptrs[0], 0);
        for (i, &p) in ptrs.iter().enumerate().skip(1) {
            b.prepare(p);
            b.finalize(i as u64 * 10);
        }
        assert_eq!(b.len(), 5);
        let guard = collector.pin(0);
        // Oldest active range query started at ts=25: entries 40, 30, 20 must
        // stay (20 satisfies it); 10 and 0 can go.
        let retired = b.reclaim_up_to(25, &guard);
        assert_eq!(retired, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.dereference(25, pin()), Some(ptrs[2]));
        assert_eq!(b.dereference(40, pin()), Some(ptrs[4]));
        // A second pass is a no-op.
        assert_eq!(b.reclaim_up_to(25, &guard), 0);
        drop(guard);
    }

    #[test]
    fn reclaim_with_all_entries_newer_is_a_noop() {
        let collector = Collector::new(1, ReclaimMode::Reclaim);
        let b: Bundle<u64> = Bundle::new();
        let p = leak(1);
        b.init(p, 50);
        let guard = collector.pin(0);
        assert_eq!(b.reclaim_up_to(10, &guard), 0);
        assert_eq!(b.len(), 1);
        drop(guard);
    }

    #[test]
    fn pending_entry_token_finalizes_and_merges() {
        let b: Bundle<u64> = Bundle::new();
        let p0 = leak(0);
        let p1 = leak(1);
        let p2 = leak(2);
        b.init(p0, 0);
        assert!(!b.restage(p1), "nothing pending to restage");
        b.prepare(p1);
        // A second update of the same link by the same transaction merges
        // into the pending entry instead of preparing a new one.
        assert!(b.restage(p2));
        b.finalize(5);
        assert_eq!(b.len(), 2);
        assert_eq!(b.dereference(5, pin()), Some(p2));
        assert_eq!(b.dereference(4, pin()), Some(p0));
    }

    #[test]
    fn aborted_entry_with_history_neutralizes_to_prior_value() {
        let b: Bundle<u64> = Bundle::new();
        let p0 = leak(0);
        let p1 = leak(1);
        b.init(p0, 3);
        b.prepare(p1);
        b.abort();
        // Readers at every timestamp resolve exactly as before the prepare.
        assert_eq!(b.dereference(3, pin()), Some(p0));
        assert_eq!(b.dereference(100, pin()), Some(p0));
        assert_eq!(b.dereference(2, pin()), None);
        // The neutralized duplicate keeps the bundle's timestamp ordering.
        let ts: Vec<u64> = b.iter().map(|(_, t)| t).collect();
        assert_eq!(ts, vec![3, 3]);
        // And a later real update still layers on top normally.
        let p2 = leak(2);
        b.prepare(p2);
        b.finalize(9);
        assert_eq!(b.dereference(8, pin()), Some(p0));
        assert_eq!(b.dereference(9, pin()), Some(p2));
    }

    #[test]
    fn aborted_first_entry_becomes_unsatisfiable_tombstone() {
        let b: Bundle<u64> = Bundle::new();
        let p = leak(7);
        b.prepare(p);
        b.abort();
        // No snapshot may ever satisfy the tombstone.
        assert_eq!(b.dereference(0, pin()), None);
        assert_eq!(b.dereference(u64::MAX - 2, pin()), None);
        assert_eq!(b.newest_ts(), Some(TOMBSTONE_TS));
    }

    #[test]
    fn abort_releases_spinning_dereference() {
        let b: Arc<Bundle<u64>> = Arc::new(Bundle::new());
        let p0 = leak(0);
        b.init(p0, 1);
        let p1 = leak(1);
        b.prepare(p1);
        let released = Arc::new(AtomicBool::new(false));
        let p0s = SendPtr::new(p0);
        let reader = {
            let b = Arc::clone(&b);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let got = b.dereference(10, pin());
                assert!(
                    released.load(Ordering::SeqCst),
                    "dereference returned while the entry was still pending"
                );
                assert_eq!(got, Some(p0s.get()), "aborted update must be invisible");
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        b.abort();
        reader.join().unwrap();
    }

    #[test]
    fn dereference_and_validate_at_form_the_read_version_surface() {
        let b: Bundle<u64> = Bundle::new();
        // Empty bundle: no value at any version, vacuously valid.
        assert_eq!(b.dereference(10, pin()), None);
        assert!(b.validate_at(0));
        assert_eq!(b.newest_committed_ts(), None);
        let p0 = leak(0);
        let p1 = leak(1);
        b.init(p0, 2);
        b.prepare(p1);
        b.finalize(7);
        assert_eq!(b.dereference(2, pin()), Some(p0));
        assert_eq!(b.dereference(7, pin()), Some(p1));
        assert_eq!(b.newest_committed_ts(), Some(7));
        // A read taken at ts < 7 is stale (the link changed at 7)...
        assert!(!b.validate_at(2));
        assert!(!b.validate_at(6));
        // ...one taken at or after 7 is still current.
        assert!(b.validate_at(7));
        assert!(b.validate_at(100));
    }

    #[test]
    fn newest_committed_ts_skips_pending_entries_without_blocking() {
        let b: Bundle<u64> = Bundle::new();
        let p0 = leak(0);
        let p1 = leak(1);
        b.init(p0, 3);
        // A pending head (an in-flight transaction's entry) is invisible
        // to the committed-version view — and the call must not spin.
        b.prepare(p1);
        assert_eq!(b.newest_committed_ts(), Some(3));
        assert!(b.validate_at(3), "own pending must not invalidate reads");
        b.finalize(9);
        assert_eq!(b.newest_committed_ts(), Some(9));
        assert!(!b.validate_at(3));
    }

    #[test]
    fn tombstoned_first_entry_never_validates() {
        let b: Bundle<u64> = Bundle::new();
        let p = leak(7);
        b.prepare(p);
        b.abort();
        // The aborted-created-node tombstone is newer than every real
        // timestamp: no read can validate against it.
        assert_eq!(b.newest_committed_ts(), Some(TOMBSTONE_TS));
        assert!(!b.validate_at(u64::MAX - 2));
    }

    #[test]
    fn concurrent_prepares_keep_bundle_sorted() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 200;
        let b: Arc<Bundle<u64>> = Arc::new(Bundle::new());
        let clock = Arc::new(crate::GlobalTimestamp::new(THREADS));
        b.init(Shared::null(), 0);
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let b = Arc::clone(&b);
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    b.prepare(Shared::null());
                    let ts = clock.advance(tid);
                    b.finalize(ts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ts: Vec<u64> = b.iter().map(|(_, t)| t).collect();
        assert_eq!(ts.len(), THREADS * PER_THREAD + 1);
        let mut sorted = ts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ts, sorted, "bundle entries must be sorted newest-first");
    }

    /// Called by `dereference` before and after its `ptr` load in this
    /// crate's test builds: every few calls it dawdles for about as long as
    /// a writer's whole cycle, so that a concurrent prepare does land
    /// between the reader's `ts` and `ptr` loads and its abort between the
    /// `ptr` load and the validation — the interleaving a torn read needs.
    pub(super) fn widen_torn_read_window() {
        thread_local!(static CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });
        let calls = CALLS.get().wrapping_add(1);
        CALLS.set(calls);
        if calls.is_multiple_of(4) {
            dawdle(512);
        }
    }

    thread_local!(static KEEPER_PAUSE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });

    /// Called by `reclaim_up_to` in this crate's test builds between
    /// finding its keeper on the chain and claiming the keeper's `next`:
    /// dawdles for the calling thread's `KEEPER_PAUSE` steps (none unless
    /// a test set them), so that a second cleaner can detach the keeper and
    /// walk past it meanwhile — the interleaving two cleaners need to meet
    /// on one detached tail.
    pub(super) fn widen_reclaim_window() {
        dawdle(KEEPER_PAUSE.get());
    }

    /// Burn a few cycles per step without giving the CPU away (a yield
    /// costs a scheduler quantum when threads outnumber cores).
    fn dawdle(steps: u32) {
        for i in 0..steps {
            std::hint::black_box(i);
        }
    }

    /// A fake link value: the bundle never dereferences its `T`s.
    fn fake(id: usize) -> Shared<'static, u64> {
        sh((id << 3) as *mut u64)
    }

    #[test]
    fn init_allocates_no_chain_and_empty_is_not_an_entry() {
        let b: Bundle<u64> = Bundle::new();
        assert_eq!((b.len(), b.newest_ts()), (0, None));
        b.check_invariants();
        b.init(fake(1), 4);
        assert!(b.older.load(Ordering::Relaxed).is_null());
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![(fake(1).as_raw(), 4)]);
        b.check_invariants();
    }

    #[test]
    fn read_torn_by_prepare_then_abort_restoring_the_same_ts_is_rejected() {
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(1), 3);
        // Reader: first half of a dereference at snapshot 10.
        let (seq, ts) = b.head_begin();
        assert_eq!(ts, 3);
        // Writer prepares between the reader's two data loads...
        b.prepare(fake(2));
        let torn = b.ptr.load(Ordering::Relaxed);
        assert_eq!(
            torn,
            fake(2).as_raw(),
            "the reader picks up the staged pointer"
        );
        // ...and aborts, which puts the very same timestamp back.
        b.abort();
        assert_eq!(b.ts.load(Ordering::Relaxed), ts);
        assert!(
            !b.head_validate(seq),
            "(3, staged) was never a state of the link"
        );
        assert_eq!(b.dereference(10, pin()), Some(fake(1)));
        b.check_invariants();
    }

    #[test]
    fn equal_timestamps_newest_wins_and_an_unchanged_ts_does_not_validate() {
        // Threshold 0: the relaxed clock never advances, every update gets
        // the same timestamp.
        let clock = crate::GlobalTimestamp::with_threshold(1, 0);
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(1), 0);
        b.prepare(fake(2));
        b.finalize(clock.advance(0));
        let (seq, ts) = b.head_begin();
        b.prepare(fake(3));
        b.finalize(clock.advance(0));
        assert_eq!(
            b.ts.load(Ordering::Relaxed),
            ts,
            "both updates carry one timestamp"
        );
        assert!(!b.head_validate(seq));
        assert_eq!(b.dereference(ts, pin()), Some(fake(3)));
        let entries: Vec<_> = b.iter().collect();
        assert_eq!(
            entries,
            vec![
                (fake(3).as_raw(), 0),
                (fake(2).as_raw(), 0),
                (fake(1).as_raw(), 0)
            ]
        );
        b.check_invariants();
    }

    #[test]
    fn restage_while_pending_publishes_only_the_last_pointer() {
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(1), 0);
        let (seq, _) = b.head_begin();
        b.prepare(fake(2));
        b.check_invariants();
        assert!(b.restage(fake(3)));
        assert_eq!(
            b.newest_committed_ts(),
            Some(0),
            "looks past the pending head"
        );
        b.finalize(5);
        assert!(!b.head_validate(seq));
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![(fake(3).as_raw(), 5), (fake(1).as_raw(), 0)]
        );
        b.check_invariants();
    }

    #[test]
    fn abort_without_history_tombstones_and_a_later_prepare_spills_nothing() {
        let b: Bundle<u64> = Bundle::new();
        b.prepare(fake(1));
        b.abort();
        assert!(!b.is_empty());
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![(fake(1).as_raw(), TOMBSTONE_TS)]
        );
        b.check_invariants();
        // A tombstone is not history: re-preparing keeps it off the chain,
        // so a second abort tombstones again and a commit stands alone.
        b.prepare(fake(2));
        b.abort();
        assert_eq!(b.len(), 1);
        b.prepare(fake(3));
        b.finalize(7);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![(fake(3).as_raw(), 7)]);
        assert_eq!(b.dereference(6, pin()), None);
        b.check_invariants();
    }

    #[test]
    fn reclaim_detaches_the_whole_chain_when_the_head_alone_satisfies() {
        let collector = Collector::new(1, ReclaimMode::Reclaim);
        let guard = collector.pin(0);
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(1), 0);
        b.prepare(fake(2));
        b.finalize(10);
        b.prepare(fake(3));
        b.finalize(20);
        let seq = b.seq.load(Ordering::Relaxed);
        assert_eq!(b.reclaim_up_to(25, &guard), 2);
        assert!(b.older.load(Ordering::Relaxed).is_null());
        assert_eq!(
            b.seq.load(Ordering::Relaxed),
            seq + 2,
            "detached under the sequence lock"
        );
        assert_eq!(b.dereference(25, pin()), Some(fake(3)));
        assert_eq!(b.reclaim_up_to(25, &guard), 0);
        assert_eq!(
            b.seq.load(Ordering::Relaxed),
            seq + 2,
            "nothing to detach, no lock"
        );
        // The head still spills and restores normally afterwards.
        b.prepare(fake(4));
        b.abort();
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![(fake(3).as_raw(), 20), (fake(3).as_raw(), 20)]
        );
        // A pending head never satisfies: the entry it displaced is kept.
        b.prepare(fake(5));
        assert_eq!(b.reclaim_up_to(25, &guard), 1);
        b.abort();
        assert_eq!(b.dereference(25, pin()), Some(fake(3)));
        b.check_invariants();
    }

    /// Two cleaners with adjacent keepers, `e11` and `e10`: the first
    /// dawdles at its keeper until the second has walked past it to its
    /// own, then detaches `e10` and everything below it while the second
    /// dawdles longer at `e10`, then claims `e10.next`. Both tails overlap
    /// from `e9` down, and every entry must still be retired exactly once.
    #[test]
    fn overlapping_cleaners_retire_each_entry_once() {
        const ENTRIES: usize = 64;
        let collector = Collector::new(2, ReclaimMode::Leaky);
        for round in 0..40 {
            let b: Bundle<u64> = Bundle::new();
            b.init(fake(0), 0);
            for ts in 1..ENTRIES {
                b.prepare(fake(ts));
                b.finalize(ts as u64);
            }
            let before = b.len();
            let barrier = std::sync::Barrier::new(2);
            let retired: usize = std::thread::scope(|s| {
                let cleaners = [(11, 20_000), (10, 200_000)].map(|(oldest, pause)| {
                    let (b, barrier, collector) = (&b, &barrier, &collector);
                    s.spawn(move || {
                        KEEPER_PAUSE.set(pause);
                        let guard = collector.pin(oldest as usize - 10);
                        barrier.wait();
                        b.reclaim_up_to(oldest, &guard)
                    })
                });
                cleaners.map(|c| c.join().unwrap()).iter().sum()
            });
            assert_eq!(
                retired,
                before - b.len(),
                "round {round}: an entry retired twice"
            );
            assert_eq!(b.len(), 53, "e63 inline, e62..=e11 on the chain");
            b.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "above newer entry's")]
    fn check_invariants_catches_an_out_of_order_finalize() {
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(1), 9);
        b.prepare(fake(2));
        b.finalize(4);
        b.check_invariants();
    }

    /// One writer runs prepare -> finalize / restage / abort chains on one
    /// bundle under a relaxed clock (pairs of updates share a timestamp)
    /// while a cleaner reclaims and pinned readers dereference announced
    /// snapshots; every answer is then checked against the writer's log.
    #[test]
    fn concurrent_readers_agree_with_the_writers_log() {
        const READERS: usize = 3;
        // The writer runs at least MIN_UPDATES, and on until the readers
        // have taken MIN_SNAPSHOTS between them (or, should one have died,
        // MAX_UPDATES).
        const MIN_UPDATES: usize = 20_000;
        const MAX_UPDATES: usize = 2_000_000;
        const MIN_SNAPSHOTS: usize = 20_000;
        // Marks a staged value that is restaged before it commits.
        const DECOY: usize = 1 << 40;
        const WRITER: usize = 0;
        const CLEANER: usize = 1;
        let ctx = crate::RqContext::with_threshold(READERS + 2, 2);
        let clock = ctx.clock();
        let b: Bundle<u64> = Bundle::new();
        b.init(fake(0), 0);
        let done = AtomicBool::new(false);
        let snapshots = std::sync::atomic::AtomicUsize::new(0);

        let (log, observed) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // Commit order; `(ts, id)` with `fake(id)` the link value.
                let mut log = vec![(0u64, 0usize)];
                let mut id = 0;
                while id < MIN_UPDATES
                    || (id < MAX_UPDATES && snapshots.load(Ordering::Relaxed) < MIN_SNAPSHOTS)
                {
                    id += 1;
                    // Slower than the readers, so that most snapshots are
                    // fresh enough to resolve at the inline head.
                    dawdle(2048);
                    match id % 5 {
                        0 => {
                            b.prepare(fake(id));
                            b.abort();
                        }
                        1 => {
                            // Staged twice; only the second value commits.
                            b.prepare(fake(DECOY | id));
                            assert!(b.restage(fake(id)));
                            let ts = clock.advance(WRITER);
                            b.finalize(ts);
                            log.push((ts, id));
                        }
                        _ => {
                            b.prepare(fake(id));
                            let ts = clock.advance(WRITER);
                            b.finalize(ts);
                            log.push((ts, id));
                        }
                    }
                }
                done.store(true, Ordering::Release);
                log
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let guard = ctx.pin(CLEANER);
                    b.reclaim_up_to(ctx.oldest_active(), &guard);
                    drop(guard);
                    ctx.collector().try_advance();
                }
            });
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (b, ctx, done, snapshots) = (&b, &ctx, &done, &snapshots);
                    s.spawn(move || {
                        let tid = r + 2;
                        // `(snapshot, id)`, consecutive repeats dropped.
                        let mut seen: Vec<(u64, usize)> = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            let rq = ctx.announce_rq(tid);
                            let snapshot = rq.ts();
                            for _ in 0..8 {
                                let p = b
                                    .dereference(snapshot, rq.guard())
                                    .expect("init satisfies all");
                                let got = (snapshot, p.as_raw() as usize >> 3);
                                if seen.last() != Some(&got) {
                                    seen.push(got);
                                }
                            }
                            drop(rq);
                            snapshots.fetch_add(1, Ordering::Relaxed);
                        }
                        seen
                    })
                })
                .collect();
            let observed: Vec<_> = readers.into_iter().map(|h| h.join().unwrap()).collect();
            (writer.join().unwrap(), observed)
        });

        b.check_invariants();
        assert_eq!(
            b.dereference(u64::MAX, pin()),
            Some(fake(log.last().unwrap().1))
        );
        assert!(
            log.windows(2).all(|w| w[0].0 <= w[1].0),
            "commit order is timestamp order"
        );
        for seen in observed {
            let mut last = (0u64, 0usize);
            for (snapshot, id) in seen {
                // The newest timestamp the snapshot satisfies, and where the
                // answer sits in commit order.
                let newest = log[log.partition_point(|e| e.0 <= snapshot) - 1].0;
                let at = log
                    .binary_search_by_key(&id, |e| e.1)
                    .unwrap_or_else(|_| panic!("snapshot {snapshot} saw uncommitted value {id}"));
                assert_eq!(
                    log[at].0, newest,
                    "snapshot {snapshot} resolved to commit {id} @ {}",
                    log[at].0
                );
                // Entries sharing that timestamp may only be seen in order.
                if last.0 == snapshot {
                    assert!(
                        last.1 <= at,
                        "snapshot {snapshot} went back in commit order"
                    );
                }
                last = (snapshot, at);
            }
        }
    }
}
