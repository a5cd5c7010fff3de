//! A bounded lock-free MPSC ring — the ingest submission queue.
//!
//! Producers reserve slots with **one `fetch_add`** on the tail counter;
//! the single consumer (the committer that owns the shard) scoops a
//! contiguous run of published slots per drain. The ring replaces the
//! `Mutex<VecDeque>` + condvar queues of the pre-ring front-end: under
//! heavy fan-in every producer used to serialize on the queue lock before
//! the committer ever saw an op — now the submit hot path is one
//! occupancy check, one tail `fetch_add`, one slot write, and one
//! sequence publish, with no lock anywhere.
//!
//! ## Slot protocol
//!
//! Storage is a power-of-two array of slots, each carrying a lap-tagged
//! sequence word (`seq`) next to its value cell. For the reservation at
//! global position `pos` (slot index `pos & mask`):
//!
//! * `seq == pos`       — the slot is **free** for this lap: the reserving
//!   producer may write the value.
//! * `seq == pos + 1`   — **published**: the producer stored the value and
//!   released it; the consumer may take it.
//! * `seq == pos + cap` — **consumed**: the consumer took the value and
//!   freed the slot for the next lap (it reads as *free* to the producer
//!   that will reserve `pos + cap`).
//!
//! Positions are 64-bit and never wrap in practice, so lap tags are never
//! reused (no ABA).
//!
//! ## Bounding: the occupancy gate
//!
//! A pure `fetch_add` reservation cannot be handed back, so a producer
//! must *know* a slot is free before reserving. A cache-padded occupancy
//! counter provides that: producers increment it before reserving and the
//! consumer decrements it only **after** freeing a slot's sequence word
//! (a batched [`MpscRing::pop_run`] frees a whole run of slots, then
//! decrements once by the run's length),
//! so `occupancy <= bound` implies at most `bound` reservations are
//! un-freed at any instant — and since reservations are dense and slots
//! are freed in order, the slot for a gated reservation is *already free*
//! when the producer reaches it (the seq wait below is a
//! never-spinning defensive check). A producer that loses the gate
//! backs its increment out and reports the ring full, handing the value
//! back untouched — the [`crate::QueueFull`] shed path costs one relaxed
//! load when the ring stays full.
//!
//! The logical depth bound may be below the power-of-two slot count
//! (capacity rounds up); [`MpscRing::try_push`] rejects at `bound`
//! pushed-not-yet-popped values exactly.
//!
//! ## What the ring does *not* do
//!
//! Blocking (parking a producer on a full ring, waking the consumer on a
//! publish) is layered on top by the front-end's eventcount-style slow
//! paths — the ring itself is pure std atomics plus the existing
//! `crossbeam-utils` cache-padding shim, and never touches a lock.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// One lap-tagged slot (see the module docs for the `seq` protocol).
struct Slot<T> {
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer single-consumer ring (see the
/// module docs for the slot protocol and the occupancy gate).
///
/// Producer methods ([`MpscRing::try_push`], [`MpscRing::try_reserve`])
/// are safe to call from any number of threads concurrently. Consumer
/// methods ([`MpscRing::pop`], [`MpscRing::pop_run`]) are `unsafe` with a
/// single-consumer contract — exactly one thread may consume at a time.
pub struct MpscRing<T> {
    slots: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// Slot count (≥ 2, ≥ `bound`, power of two).
    capacity: u64,
    /// Logical depth bound: `try_push` rejects at this many
    /// pushed-not-yet-popped values.
    bound: usize,
    /// Producers' reservation counter (positions handed out).
    tail: CachePadded<AtomicU64>,
    /// Consumer position: the next position to take.
    head: CachePadded<AtomicU64>,
    /// The gate: values accepted and not yet popped (conservatively
    /// overcounts by racing producers that will back out).
    occupancy: CachePadded<AtomicUsize>,
}

// The ring hands `T` values across threads by value; the slots' interior
// mutability is disciplined by the seq protocol (a slot is written only
// by its reserving producer and read only by the consumer, with
// release/acquire edges through `seq`).
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

/// A reserved-but-unpublished slot, returned by
/// [`MpscRing::try_reserve`]. Publishing is infallible and wait-free;
/// the split lets the caller run bookkeeping between acceptance and
/// publication (the front-end increments its in-flight counter there, so
/// a rejected push never has to undo it). **Must** be published: a
/// leaked reservation stalls the consumer at its position forever.
#[must_use = "a reserved slot must be published or the consumer stalls"]
pub struct PushSlot<'a, T> {
    ring: &'a MpscRing<T>,
    pos: u64,
}

impl<T> PushSlot<'_, T> {
    /// Write `value` into the reserved slot and publish it to the
    /// consumer. Wait-free: one value write and one release store.
    pub fn publish(self, value: T) {
        let slot = &self.ring.slots[(self.pos & self.ring.mask) as usize];
        // The occupancy gate proved the slot free at reservation (module
        // docs); the wait is defensive and does not spin in practice.
        while slot.seq.load(Ordering::Acquire) != self.pos {
            std::hint::spin_loop();
        }
        unsafe { (*slot.value.get()).write(value) };
        slot.seq.store(self.pos + 1, Ordering::Release);
    }
}

impl<T> MpscRing<T> {
    /// A ring rejecting pushes at `bound` queued values. Slot count is
    /// `bound` rounded up to a power of two (minimum 2 — the lap tags
    /// `pos + 1` and `pos + capacity` must differ). Panics if `bound`
    /// is 0.
    pub fn with_bound(bound: usize) -> Self {
        assert!(bound >= 1, "an MPSC ring needs at least one slot");
        let capacity = bound.max(2).next_power_of_two() as u64;
        MpscRing {
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicU64::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            mask: capacity - 1,
            capacity,
            bound,
            tail: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            occupancy: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// The logical depth bound (rejection threshold), in values.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Values accepted and not yet popped. Exact when producers are
    /// quiescent; may transiently overcount by producers racing the
    /// gate. This is the live-depth signal the `ingest.depth` gauge and
    /// the drain-time trace events report.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy.load(Ordering::Relaxed)
    }

    /// Reserve a slot, or `None` if the ring is at its bound. Lock-free:
    /// the accept path is two `fetch_add`s; the reject path is one
    /// relaxed load when the ring stays full (the gate RMW only runs
    /// when the load saw room).
    pub fn try_reserve(&self) -> Option<PushSlot<'_, T>> {
        // Read-only fast reject: producers spin-retrying against a full
        // ring must not write the (contended) gate line.
        if self.occupancy.load(Ordering::Relaxed) >= self.bound {
            return None;
        }
        if self.occupancy.fetch_add(1, Ordering::SeqCst) >= self.bound {
            self.occupancy.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let pos = self.tail.fetch_add(1, Ordering::Relaxed);
        Some(PushSlot { ring: self, pos })
    }

    /// Push `value`, or hand it back if the ring is at its bound.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        match self.try_reserve() {
            Some(slot) => {
                slot.publish(value);
                Ok(())
            }
            None => Err(value),
        }
    }

    /// Whether the consumer's next position is published (work is
    /// ready). Advisory from any thread; exact for the consumer.
    #[must_use]
    pub fn has_ready(&self) -> bool {
        let h = self.head.load(Ordering::Relaxed);
        self.slots[(h & self.mask) as usize]
            .seq
            .load(Ordering::Acquire)
            == h + 1
    }

    /// Read the value published at position `h` and free its slot for
    /// the next lap, or `None` if `h` is unpublished. Moves neither
    /// `head` nor the occupancy gate: the caller does both, in that
    /// order, once for everything it took.
    ///
    /// # Safety
    ///
    /// Single-consumer, and `h` must be the next untaken position
    /// (`head` plus what this call sequence already took).
    unsafe fn take(&self, h: u64) -> Option<T> {
        let slot = &self.slots[(h & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != h + 1 {
            return None;
        }
        // SAFETY: `seq == h + 1` is the producer's release of this
        // lap's value, and the single consumer reads it exactly once
        // (the seq store below retires the lap).
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.seq.store(h + self.capacity, Ordering::Release);
        Some(value)
    }

    /// Take the next published value, or `None` if the next position is
    /// unpublished. Frees the slot *before* decrementing the occupancy
    /// gate, preserving the gate's "un-freed reservations never exceed
    /// the bound" invariant.
    ///
    /// # Safety
    ///
    /// Single-consumer: no other thread may be calling `pop` or
    /// `pop_run` concurrently. (Producers are fine.)
    pub unsafe fn pop(&self) -> Option<T> {
        let h = self.head.load(Ordering::Relaxed);
        // SAFETY: single consumer (caller's contract), `h` is `head`.
        let value = unsafe { self.take(h) }?;
        self.head.store(h + 1, Ordering::Relaxed);
        self.occupancy.fetch_sub(1, Ordering::SeqCst);
        Some(value)
    }

    /// Take the contiguous published run from `head` into `out`, until
    /// the next position is unpublished or the taken values' summed
    /// `weight` reaches `budget` (the value that crosses the budget is
    /// taken whole; everything behind it stays published). Returns the
    /// weight taken.
    ///
    /// The whole run costs **one** `head` store and **one** gate
    /// `fetch_sub(n)` — the gate is the line producers hammer, so a
    /// drain touches it once, not once per value. Every slot of the run
    /// is freed *before* that single decrement, which is the module
    /// docs' invariant: the gate only ever under-reports free slots.
    ///
    /// # Safety
    ///
    /// Single-consumer: no other thread may be calling `pop` or
    /// `pop_run` concurrently. (Producers are fine.)
    pub unsafe fn pop_run(
        &self,
        budget: usize,
        weight: impl Fn(&T) -> usize,
        out: &mut Vec<T>,
    ) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let mut h = head;
        let mut taken = 0usize;
        while taken < budget {
            // SAFETY: single consumer (caller's contract); `h` is
            // `head` plus the values this loop already took.
            let Some(value) = (unsafe { self.take(h) }) else {
                break;
            };
            taken += weight(&value);
            out.push(value);
            h += 1;
        }
        if h != head {
            self.head.store(h, Ordering::Relaxed);
            self.occupancy
                .fetch_sub((h - head) as usize, Ordering::SeqCst);
        }
        taken
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // `&mut self`: no other consumer can exist, so popping is safe.
        // Published values still queued are dropped; a reserved-but-
        // unpublished slot never had a value written.
        while unsafe { self.pop() }.is_some() {}
    }
}

impl<T> std::fmt::Debug for MpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpscRing")
            .field("bound", &self.bound)
            .field("capacity", &self.capacity)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn single_thread_fifo_round_trip() {
        let ring = MpscRing::with_bound(4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.occupancy(), 4);
        for i in 0..4 {
            assert_eq!(unsafe { ring.pop() }, Some(i));
        }
        assert_eq!(unsafe { ring.pop() }, None);
        assert_eq!(ring.occupancy(), 0);
    }

    #[test]
    fn wraps_around_many_laps() {
        // Bound 3 forces a non-power-of-two bound inside a 4-slot ring;
        // 1000 values cycle through every slot hundreds of laps.
        let ring = MpscRing::with_bound(3);
        let mut next_pop = 0u64;
        for i in 0..1000u64 {
            ring.try_push(i).unwrap();
            if i % 3 == 2 {
                while let Some(v) = unsafe { ring.pop() } {
                    assert_eq!(v, next_pop);
                    next_pop += 1;
                }
            }
        }
        while let Some(v) = unsafe { ring.pop() } {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, 1000);
    }

    #[test]
    fn rejects_exactly_at_bound_and_hands_the_value_back() {
        for bound in [1usize, 2, 3, 8] {
            let ring = MpscRing::with_bound(bound);
            for i in 0..bound {
                assert!(ring.try_push(i).is_ok(), "bound {bound}: push {i}");
            }
            // Full: the exact value comes back, repeatedly.
            assert_eq!(ring.try_push(99), Err(99), "bound {bound}");
            assert_eq!(ring.try_push(99), Err(99), "bound {bound}");
            // One pop frees exactly one slot.
            assert_eq!(unsafe { ring.pop() }, Some(0));
            assert!(ring.try_push(100).is_ok(), "bound {bound}");
            assert_eq!(ring.try_push(101), Err(101), "bound {bound}");
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        let ring = MpscRing::with_bound(8);
        let value = Arc::new(());
        for _ in 0..5 {
            ring.try_push(Arc::clone(&value)).unwrap();
        }
        drop(ring);
        assert_eq!(Arc::strong_count(&value), 1, "queued Arcs dropped");
    }

    /// The seeded multi-producer wraparound hammer: producers × bounds,
    /// every value tagged with its producer and per-producer sequence;
    /// the consumer asserts per-producer FIFO order and exact delivery
    /// (nothing lost, nothing duplicated, nothing invented) while the
    /// ring wraps thousands of laps under rejection-retry pressure.
    #[test]
    fn multi_producer_wraparound_hammer() {
        for &producers in &[2usize, 4] {
            for &bound in &[1usize, 2, 7, 64] {
                const PER_PRODUCER: u64 = 5_000;
                let ring = Arc::new(MpscRing::with_bound(bound));
                let handles: Vec<_> = (0..producers as u64)
                    .map(|p| {
                        let ring = Arc::clone(&ring);
                        std::thread::spawn(move || {
                            for i in 0..PER_PRODUCER {
                                let mut v = (p << 32) | i;
                                loop {
                                    match ring.try_push(v) {
                                        Ok(()) => break,
                                        Err(back) => {
                                            v = back; // handback exactness
                                            std::thread::yield_now();
                                        }
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                let consumer = {
                    let ring = Arc::clone(&ring);
                    std::thread::spawn(move || {
                        let mut next = vec![0u64; producers];
                        let mut taken = 0u64;
                        let total = producers as u64 * PER_PRODUCER;
                        while taken < total {
                            match unsafe { ring.pop() } {
                                Some(v) => {
                                    let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                                    assert_eq!(
                                        i, next[p],
                                        "producer {p} order lost (bound {bound})"
                                    );
                                    next[p] += 1;
                                    taken += 1;
                                }
                                None => std::thread::yield_now(),
                            }
                        }
                        assert_eq!(unsafe { ring.pop() }, None, "ring over-delivered");
                    })
                };
                for h in handles {
                    h.join().unwrap();
                }
                consumer.join().unwrap();
                assert_eq!(ring.occupancy(), 0);
            }
        }
    }

    /// `pop_run` with every value weighing 1 and an unlimited budget.
    fn pop_all(ring: &MpscRing<u64>, out: &mut Vec<u64>) -> usize {
        unsafe { ring.pop_run(usize::MAX, |_| 1, out) }
    }

    #[test]
    fn pop_run_is_fifo_across_laps() {
        // 4 slots, 3 values in and out per round: twelve laps of every
        // slot, each run taken with one `head` store and one gate RMW.
        let ring = MpscRing::with_bound(4);
        let mut out = Vec::new();
        for round in 0..16u64 {
            for i in 0..3 {
                ring.try_push(round * 3 + i).unwrap();
            }
            assert_eq!(pop_all(&ring, &mut out), 3);
            assert_eq!(ring.occupancy(), 0);
            assert!(!ring.has_ready());
        }
        assert_eq!(out, (0..48).collect::<Vec<_>>());
        assert_eq!(pop_all(&ring, &mut out), 0, "an empty ring yields nothing");
    }

    #[test]
    fn the_bound_stays_exact_after_a_batched_free() {
        for (bound, k) in [(1usize, 1usize), (3, 2), (4, 4), (8, 5)] {
            let ring = MpscRing::with_bound(bound);
            for i in 0..bound as u64 {
                ring.try_push(i).unwrap();
            }
            assert_eq!(ring.try_push(99), Err(99), "bound {bound}: full");
            let mut out = Vec::new();
            assert_eq!(unsafe { ring.pop_run(k, |_| 1, &mut out) }, k);
            assert_eq!(out, (0..k as u64).collect::<Vec<_>>());
            // One decrement by k freed exactly k reservations.
            for i in 0..k as u64 {
                assert!(ring.try_push(100 + i).is_ok(), "bound {bound}: refill {i}");
            }
            assert_eq!(ring.try_push(99), Err(99), "bound {bound}: full again");
            assert_eq!(ring.occupancy(), bound);
        }
    }

    #[test]
    fn pop_run_takes_the_crossing_value_whole_and_leaves_the_rest() {
        let ring = MpscRing::with_bound(8);
        for v in [3u64, 3, 3, 3] {
            ring.try_push(v).unwrap();
        }
        let mut out = Vec::new();
        // Budget 4: the first value (3) is under it, the second crosses
        // and is still taken whole; the other two stay published.
        let taken = unsafe { ring.pop_run(4, |v| *v as usize, &mut out) };
        assert_eq!((taken, out.len()), (6, 2));
        assert_eq!(ring.occupancy(), 2);
        assert!(ring.has_ready());
        assert_eq!(unsafe { ring.pop() }, Some(3));
        assert_eq!(pop_all(&ring, &mut out), 1);
        assert_eq!(ring.occupancy(), 0);
    }

    /// Four producers against one `pop_run` consumer that dawdles so the
    /// ring keeps hitting its bound. `accepted` is bumped *after* a push
    /// succeeds and `consumed` is exact between runs, so
    /// `accepted - consumed` never exceeds the values really in the ring:
    /// reading it above `bound` would prove the gate let too many in
    /// (say, a batched decrement larger than the run it freed).
    #[test]
    fn batched_drain_never_admits_more_than_the_bound() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        /// Releases the producers when the consumer is done — or
        /// unwinding, so a failed assertion fails the test instead of
        /// leaving them spinning on a full ring.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        for bound in [2usize, 5, 16] {
            let ring = MpscRing::with_bound(bound);
            let accepted = AtomicU64::new(0);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let (ring, accepted, done) = (&ring, &accepted, &done);
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            while ring.try_push((p << 32) | i).is_err() {
                                if done.load(Ordering::SeqCst) {
                                    return;
                                }
                                std::thread::yield_now();
                            }
                            accepted.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
                let _release = Release(&done);
                let mut next = [0u64; PRODUCERS as usize];
                let mut consumed = 0u64;
                let mut out = Vec::new();
                while consumed < PRODUCERS * PER_PRODUCER {
                    // Dawdle until the producers have (most likely)
                    // refilled the ring: over-admission only shows at
                    // the bound.
                    for _ in 0..8 {
                        if ring.occupancy() >= bound {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    // `accepted` lags the pushes, so it may also trail
                    // what was already consumed.
                    let in_ring = accepted.load(Ordering::SeqCst).saturating_sub(consumed);
                    assert!(
                        in_ring <= bound as u64,
                        "{in_ring} values admitted to a ring bounded at {bound}"
                    );
                    pop_all(&ring, &mut out);
                    for v in out.drain(..) {
                        let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                        assert_eq!(i, next[p], "producer {p} order lost (bound {bound})");
                        next[p] += 1;
                        consumed += 1;
                    }
                }
            });
            assert_eq!(ring.occupancy(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_bound_is_rejected() {
        let _ = MpscRing::<u64>::with_bound(0);
    }
}
