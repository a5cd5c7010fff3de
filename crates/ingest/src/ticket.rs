//! The waitable one-shot handed back by every submission.
//!
//! A [`Ticket`] is the waiting half of a one-word state machine over
//! `std::thread::{park, unpark}` (no external channel crates —
//! consistent with the workspace's offline `shims/` policy). The
//! committer resolves a whole group of tickets at a time and a producer
//! is parked on at most one of them, so the design goal is that **resolving a ticket
//! nobody is parked on performs no syscall**: the resolver learns from
//! the state word whether a thread registered, and only then is there a
//! handle to unpark. `resolve` does not unpark itself — it hands the
//! parked thread back to the caller, which wakes it after storing the
//! *whole group's* outcomes ([`Wakers`]), so a woken producer never
//! catches up with the resolve loop and re-parks mid-group.
//!
//! ## States
//!
//! ```text
//!            wait(): register handle           resolve(): store value
//!   EMPTY ───────────────────────────▶ WAITING ───────────────────────┐
//!     │                                                               ▼
//!     └────────────── resolve(): store value ─────────────────────▶ READY
//!                                                                     │
//!                              wait() / try_take(): claim the value   ▼
//!                                                                   TAKEN
//! ```
//!
//! * `EMPTY`   — unresolved, nobody registered.
//! * `WAITING` — unresolved; the waiter stored its `Thread` handle and
//!   will park until the state changes.
//! * `READY`   — the outcome is in the value slot.
//! * `TAKEN`   — the outcome was claimed (by `wait` or a `Some` from
//!   `try_take`); a later `wait` panics instead of blocking forever.
//!
//! Every edge is taken once, `READY → TAKEN` by exactly one claimer
//! (`compare_exchange`, so racing `&`-callers of `try_take` cannot both
//! win). A never-claimed outcome is dropped with the slot, exactly once.
//!
//! ## Orderings
//!
//! The value and the waiter handle each sit in their own (uncontended)
//! `Mutex`, which already orders the accesses to them; the state word's
//! orderings are what make the *protocol* race-free without it:
//!
//! | edge | writer | reader | what it publishes |
//! |---|---|---|---|
//! | `EMPTY → WAITING` | waiter, `compare_exchange` **Release** | resolver's `swap` **Acquire** half | the registered `Thread` handle |
//! | `* → READY` | resolver, `swap` **Release** half | waiter's / claimer's **Acquire** load or CAS | the stored outcome |
//! | `READY → TAKEN` | claimer, `compare_exchange` **Acquire** (Relaxed store side: nothing is published by claiming) | — | — |
//!
//! No wake-up is lost: the waiter parks only after its `EMPTY → WAITING`
//! CAS succeeded, so the resolver's `swap` — which follows it in the
//! state word's modification order — returns `WAITING` and the handle;
//! the `unpark` that follows either finds the thread parked or leaves the
//! token that makes its next `park` return at once. The park loop
//! re-reads the state, so spurious wake-ups and stale tokens are benign.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;

use crate::IngestOutcome;

const EMPTY: u8 = 0;
const WAITING: u8 = 1;
const READY: u8 = 2;
const TAKEN: u8 = 3;

/// An outcome type a [`Ticket`] can carry, and the compact form the
/// committer stores for it: whatever is costly to build (the
/// `Vec<bool>` of [`crate::IngestOutcome`]) is built by
/// [`Outcome::unpack`] on the *waiter's* thread, off the committer's
/// serial path.
pub trait Outcome {
    /// What the committer stores in the ticket's slot.
    type Packed: Send;
    /// Expand the stored form; runs on the thread that claims the ticket.
    fn unpack(packed: Self::Packed) -> Self;
}

/// What the committer stores in an ingest ticket: an
/// [`IngestOutcome`] minus the per-ticket heap allocation.
#[derive(Debug)]
pub struct PackedOutcome {
    pub(crate) applied: Applied,
    pub(crate) ts: u64,
    pub(crate) seq: u64,
    pub(crate) group_ops: usize,
}

/// The outcome bits of one submission, as stored by the committer.
#[derive(Debug)]
pub(crate) enum Applied {
    /// A single-op submission's one bit, inline.
    One(bool),
    /// A batch's bits, in its op order.
    Many(Vec<bool>),
}

impl Outcome for IngestOutcome {
    type Packed = PackedOutcome;

    fn unpack(packed: PackedOutcome) -> Self {
        IngestOutcome {
            applied: match packed.applied {
                Applied::One(bit) => vec![bit],
                Applied::Many(bits) => bits,
            },
            ts: packed.ts,
            seq: packed.seq,
            group_ops: packed.group_ops,
        }
    }
}

// A ticket may be waited on from another thread than its submitter and
// polled through a shared reference.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Ticket<IngestOutcome>>();
};

/// The shared slot between one submission's waiter and the committer
/// thread that will resolve it (see the module docs for the protocol).
pub(crate) struct Oneshot<T> {
    state: AtomicU8,
    /// Written once by the resolver before `READY`, taken once by the
    /// claimer after it: never contended.
    value: Mutex<Option<T>>,
    /// The waiter's handle, stored before `EMPTY → WAITING`.
    waiter: Mutex<Option<Thread>>,
}

/// Both slot mutexes guard a plain `Option` that is valid at every
/// step, so a poisoned lock (a panic elsewhere on the holder's thread)
/// is recovered rather than propagated.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(|p| p.into_inner())
}

impl<T> Oneshot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Oneshot {
            state: AtomicU8::new(EMPTY),
            value: Mutex::new(None),
            waiter: Mutex::new(None),
        })
    }

    /// Store the outcome. Returns the thread parked on this slot, if
    /// any, **without waking it**: the caller unparks it once every
    /// outcome of the group is stored. Must be called at most once per
    /// slot.
    #[must_use = "a returned thread is parked on this slot and must be unparked"]
    pub(crate) fn resolve(&self, value: T) -> Option<Thread> {
        *lock(&self.value) = Some(value);
        match self.state.swap(READY, Ordering::AcqRel) {
            EMPTY => None,
            WAITING => lock(&self.waiter).take(),
            _ => panic!("a ticket resolves exactly once"),
        }
    }

    /// Claim the outcome if the slot is `READY`; at most one caller
    /// ever gets `Some`.
    fn try_take(&self) -> Option<T> {
        self.state
            .compare_exchange(READY, TAKEN, Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        let value = lock(&self.value).take();
        Some(value.expect("a READY slot holds its outcome until claimed"))
    }

    /// Block until resolved, then claim the outcome.
    fn wait(&self) -> T {
        loop {
            match self.state.load(Ordering::Acquire) {
                EMPTY => {
                    *lock(&self.waiter) = Some(std::thread::current());
                    // A failed CAS means the resolver got there first
                    // (it never reads the handle then); re-dispatch.
                    let _ = self.state.compare_exchange(
                        EMPTY,
                        WAITING,
                        Ordering::Release,
                        Ordering::Relaxed,
                    );
                }
                WAITING => std::thread::park(),
                READY => {
                    return self
                        .try_take()
                        .expect("wait owns the ticket: no rival claimer")
                }
                _ => panic!(
                    "Ticket::wait after try_take returned the outcome: \
                     a ticket yields its outcome exactly once"
                ),
            }
        }
    }
}

/// The parked threads collected while a group's tickets resolve,
/// deduplicated, to be woken once the whole group is stored. Lives in
/// the committer loop and is reused across groups.
#[derive(Default)]
pub(crate) struct Wakers(Vec<Thread>);

impl Wakers {
    /// Remember `thread` for the next [`Wakers::wake_all`]. A thread is
    /// parked on one ticket at a time, so the list holds at most one
    /// entry per producer and the duplicate scan (a spuriously woken
    /// producer can re-park on a later ticket of the same group) is
    /// over a handful of entries.
    pub(crate) fn push(&mut self, thread: Thread) {
        if !self.0.iter().any(|t| t.id() == thread.id()) {
            self.0.push(thread);
        }
    }

    /// Unpark every collected thread; returns how many were woken.
    pub(crate) fn wake_all(&mut self) -> usize {
        let woken = self.0.len();
        for thread in self.0.drain(..) {
            thread.unpark();
        }
        woken
    }
}

/// A waitable one-shot outcome of one ingest submission (see the module
/// docs). Obtained from [`crate::Ingest::submit`] /
/// [`crate::Ingest::submit_batch`]; resolved by the committer thread when
/// the submission's group commits. `Send` and `Sync`: it may be waited on
/// from another thread than the submitter, and polled through `&`.
#[must_use = "an unawaited ticket silently drops its outcome"]
pub struct Ticket<T: Outcome> {
    inner: Arc<Oneshot<T::Packed>>,
}

impl<T: Outcome> Ticket<T> {
    pub(crate) fn new(inner: Arc<Oneshot<T::Packed>>) -> Self {
        Ticket { inner }
    }

    /// Block until the submission's group commits and return the outcome.
    ///
    /// # Panics
    ///
    /// If [`Ticket::try_take`] already returned this ticket's outcome: a
    /// ticket yields it exactly once.
    pub fn wait(self) -> T {
        T::unpack(self.inner.wait())
    }

    /// Non-blocking poll: the outcome if the group already committed,
    /// `None` otherwise. A `Some` result **consumes** the outcome —
    /// later polls return `None` and a later [`Ticket::wait`] panics.
    /// Use it *instead of* `wait`, not before it.
    pub fn try_take(&self) -> Option<T> {
        self.inner.try_take().map(T::unpack)
    }
}

impl<T: Outcome> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Resolve, waking the parked waiter if there is one; returns
    /// whether a wake-up was needed.
    fn resolve_and_wake<T>(slot: &Oneshot<T>, value: T) -> bool {
        let mut wakers = Wakers::default();
        if let Some(t) = slot.resolve(value) {
            wakers.push(t);
        }
        wakers.wake_all() == 1
    }

    #[test]
    fn resolve_then_wait_round_trip() {
        let slot = Oneshot::new();
        assert!(slot.try_take().is_none());
        // Nobody is parked: resolving hands back no thread to wake.
        assert!(slot.resolve(7u32).is_none());
        assert_eq!(slot.wait(), 7);
    }

    #[test]
    fn wait_blocks_until_resolved_from_another_thread() {
        let slot = Oneshot::new();
        let resolver = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                // Resolve only once the waiter has registered, so the
                // parked edge (WAITING → READY, one wake) is the one taken.
                while slot.state.load(Ordering::Acquire) != WAITING {
                    std::hint::spin_loop();
                }
                resolve_and_wake(&slot, "done")
            })
        };
        assert_eq!(slot.wait(), "done");
        assert!(resolver.join().unwrap(), "a parked waiter needs its wake");
    }

    #[test]
    #[should_panic(expected = "after try_take")]
    fn try_take_claims_once_and_a_later_wait_panics() {
        let slot = Oneshot::new();
        let _ = slot.resolve(1u8);
        assert_eq!(slot.try_take(), Some(1));
        assert_eq!(slot.try_take(), None, "the outcome is yielded once");
        // Used to block forever; the TAKEN state makes it a loud bug.
        let _ = slot.wait();
    }

    #[test]
    fn racing_try_takes_yield_the_outcome_to_exactly_one() {
        for _ in 0..200 {
            let slot = Oneshot::new();
            let _ = slot.resolve(9u64);
            let start = Barrier::new(2);
            let got: usize = std::thread::scope(|s| {
                let pollers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            usize::from(slot.try_take().is_some())
                        })
                    })
                    .collect();
                pollers.into_iter().map(|p| p.join().unwrap()).sum()
            });
            assert_eq!(got, 1);
        }
    }

    /// Resolver vs. waiter, both orders, on two threads: each round the
    /// barrier releases both at once and the round's parity decides who
    /// dawdles, so READY-before-register, register-before-READY and the
    /// CAS-vs-swap collision in between all occur. A lost wake-up hangs
    /// the test; a torn hand-off fails the value check.
    #[test]
    fn resolver_vs_waiter_race_stress() {
        const ROUNDS: usize = 100_000;
        let slots: Vec<_> = (0..ROUNDS).map(|_| Oneshot::<usize>::new()).collect();
        let start = Barrier::new(2);
        let wakes = std::thread::scope(|s| {
            let resolver = s.spawn(|| {
                let mut wakes = 0usize;
                for (i, slot) in slots.iter().enumerate() {
                    start.wait();
                    for _ in 0..(i % 2) * (i % 64) {
                        std::hint::spin_loop();
                    }
                    wakes += usize::from(resolve_and_wake(slot, i));
                }
                wakes
            });
            for (i, slot) in slots.iter().enumerate() {
                start.wait();
                for _ in 0..((i + 1) % 2) * (i % 64) {
                    std::hint::spin_loop();
                }
                assert_eq!(slot.wait(), i);
            }
            resolver.join().unwrap()
        });
        assert!(wakes <= ROUNDS);
    }

    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn an_outcome_is_dropped_exactly_once_whoever_ends_up_owning_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        // Resolved, never taken: dropped with the slot.
        let slot = Oneshot::new();
        let _ = slot.resolve(Counted(Arc::clone(&drops)));
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Resolved and taken: dropped by the taker, not again by the slot.
        let slot = Oneshot::new();
        let _ = slot.resolve(Counted(Arc::clone(&drops)));
        drop(slot.try_take());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        // Never resolved: nothing to drop.
        drop(Oneshot::<Counted>::new());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wakers_deduplicate_a_thread_collected_twice() {
        let mut wakers = Wakers::default();
        wakers.push(std::thread::current());
        wakers.push(std::thread::current());
        assert_eq!(wakers.wake_all(), 1);
        assert_eq!(wakers.wake_all(), 0, "drained");
        // Consume the token the self-unpark left, so it cannot leak
        // into another park on this test thread.
        std::thread::park();
    }
}
