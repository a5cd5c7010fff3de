//! [`NodeLock`]: the update lock of every bundled node, one word that
//! names its holder, and [`BundledNode`], what the two-phase token needs
//! of a node it locks.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Bundle, TXN_LOCK_SPINS};

/// A node's update lock (Algorithm 1's per-node lock): one word holding
/// `0` when free, or the holder's `tid + 1`. Not reentrant.
///
/// Naming the holder is what lets a two-phase token keep no books of its
/// own: "do I hold this node?" is [`NodeLock::held_by`], one load. It is
/// exact for the caller's own `tid`, which is all a token asks: a `tid`
/// belongs to one thread at a time, and only that thread stores or clears
/// its `tid + 1`.
#[derive(Debug, Default)]
pub struct NodeLock(AtomicUsize);

/// Holds a [`NodeLock`] until dropped.
#[must_use = "the lock is released when the guard drops"]
#[derive(Debug)]
pub struct NodeLockGuard<'a>(&'a NodeLock);

impl NodeLock {
    /// Take the lock for `tid` if nobody holds it (`tid` included): one
    /// CAS, `false` on failure.
    pub(crate) fn acquire(&self, tid: usize) -> bool {
        self.0
            .compare_exchange(0, tid + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Release a lock taken with [`NodeLock::acquire`]: `Release` pairs
    /// with the next holder's `Acquire` CAS.
    pub(crate) fn release(&self) {
        debug_assert_ne!(self.0.load(Ordering::Relaxed), 0, "released a free lock");
        self.0.store(0, Ordering::Release);
    }

    /// The lock for `tid` if it is free now, without waiting.
    pub fn try_lock(&self, tid: usize) -> Option<NodeLockGuard<'_>> {
        self.acquire(tid).then(|| NodeLockGuard(self))
    }

    /// `true` if `tid` holds the lock (see the type's docs).
    #[must_use]
    pub fn held_by(&self, tid: usize) -> bool {
        self.0.load(Ordering::Relaxed) == tid + 1
    }

    /// Wait until `tid` holds the lock: [`TXN_LOCK_SPINS`] attempts, then
    /// a `yield_now`, and again.
    pub fn lock(&self, tid: usize) -> NodeLockGuard<'_> {
        debug_assert!(!self.held_by(tid), "NodeLock is not reentrant");
        loop {
            for _ in 0..TXN_LOCK_SPINS {
                if let Some(guard) = self.try_lock(tid) {
                    return guard;
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for NodeLockGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// What a two-phase token needs of the nodes it locks
/// ([`crate::TwoPhase::Node`]): the node's lock, and every bundle only the
/// lock's holder prepares. The token finds its pending entries as the
/// pending heads of these bundles on the nodes it holds.
pub trait BundledNode: Sized {
    /// The node's update lock.
    fn lock(&self) -> &NodeLock;
    /// The node's bundles (one per bundled outgoing link).
    fn bundles(&self) -> &[Bundle<Self>];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_holder_is_named_and_a_foreign_try_lock_fails() {
        let lock = NodeLock::default();
        assert!(!lock.held_by(0) && !lock.held_by(3));
        let guard = lock.try_lock(3).expect("a free lock");
        assert!(lock.held_by(3) && !lock.held_by(0));
        assert!(lock.try_lock(0).is_none(), "held by another tid");
        assert!(lock.try_lock(3).is_none(), "not reentrant");
        drop(guard);
        assert!(!lock.held_by(3), "the guard released it");
        let guard = lock.lock(0);
        assert!(lock.held_by(0));
        drop(guard);
        assert!(lock.try_lock(3).is_some());
    }

    #[test]
    fn a_blocking_lock_waits_for_the_holder() {
        let lock = NodeLock::default();
        let held = lock.try_lock(0).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let guard = lock.lock(1);
                assert!(lock.held_by(1));
                drop(guard);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(lock.held_by(0), "the waiter did not barge in");
            drop(held);
            waiter.join().unwrap();
        });
        assert!(!lock.held_by(0) && !lock.held_by(1));
    }
}
