//! Algorithm 1: `LinearizeUpdateOperation`, plus the outcomes of its
//! two-phase form that multi-structure transactions build on.

use crate::bundle_impl::Bundle;
use crate::ts::GlobalTimestamp;

/// A two-phase update could not acquire a lock it needs without risking a
/// deadlock; the caller must roll back everything it has prepared so far
/// (releasing its locks and neutralizing its pending entries) and retry
/// the whole transaction.
///
/// Single-structure updates never conflict — their per-structure lock
/// disciplines are cycle-free. A cross-structure transaction, however,
/// holds node locks from earlier keys while acquiring locks for later
/// ones, so its acquisition order cannot be made globally consistent with
/// every backend's internal order; bounded `try_lock` plus abort-and-retry
/// is what keeps the system deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("two-phase update lost a lock race and must retry")
    }
}

/// Why a read-write transaction's validate phase did not succeed.
///
/// The two outcomes demand different recoveries, which is why they are one
/// enum instead of two layered `Result`s:
///
/// * [`TxnValidateError::Conflict`] — a lock race with a concurrent
///   primitive operation (same meaning as [`Conflict`]). The recorded
///   reads themselves may still be valid; the *store* retries the whole
///   prepare/validate round internally after rolling back and backing
///   off, without involving the application.
/// * [`TxnValidateError::Invalidated`] — a recorded read is stale: another
///   update committed to a read key (or into a read range) between the
///   transaction's leased read timestamp and its validation. No amount of
///   internal retrying can fix this — the values the application computed
///   from are outdated — so the abort must propagate to the caller, who
///   re-runs the transaction body against a fresh snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnValidateError {
    /// Lock race; the store rolls back and retries internally.
    Conflict,
    /// Stale read set; the abort propagates to the application.
    Invalidated,
}

impl From<Conflict> for TxnValidateError {
    fn from(_: Conflict) -> Self {
        TxnValidateError::Conflict
    }
}

impl std::fmt::Display for TxnValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnValidateError::Conflict => Conflict.fmt(f),
            TxnValidateError::Invalidated => {
                f.write_str("a validated read went stale before commit; re-run the transaction")
            }
        }
    }
}

/// Linearize an update operation of a bundled data structure.
///
/// The four steps of Algorithm 1:
///
/// 1. every affected bundle gets a *pending* entry holding its new link
///    value ([`Bundle::prepare`]),
/// 2. the global timestamp is atomically advanced,
/// 3. `lin` is executed — this is the operation's linearization point (for
///    the lazy list: storing the predecessor's `newestNextPtr`; for the
///    skip list: setting `fullyLinked`; for the removals: the logical
///    delete flag),
/// 4. all pending entries are finalized with the new timestamp.
///
/// The caller must hold whatever structure-specific locks make the physical
/// change valid; bundling itself only requires that the same operation that
/// prepared a bundle is the one that finalizes it.
///
/// Returns the timestamp assigned to the update.
///
/// Allocates only what [`Bundle::prepare`] does (the displaced head's chain
/// entry): the operation finalizes through [`Bundle::finalize`], so no
/// owner token outlives its `prepare`. Updates that span structures carry
/// their [`crate::PendingEntry`] tokens in a [`crate::TwoPhaseState`]
/// instead — prepare everywhere, advance the clock once, finalize all.
pub fn linearize_update<T, F: FnOnce()>(
    clock: &GlobalTimestamp,
    tid: usize,
    bundles: &[(&Bundle<T>, *mut T)],
    lin: F,
) -> u64 {
    for (bundle, ptr) in bundles {
        // The token is only a handle on `bundle`, which step 4 reaches
        // through the slice.
        let _ = bundle.prepare(*ptr);
    }
    let ts = clock.advance(tid);
    lin();
    for (bundle, _) in bundles {
        bundle.finalize(ts);
    }
    ts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn assigns_increasing_timestamps_and_updates_all_bundles() {
        let clock = GlobalTimestamp::new(1);
        let b1: Bundle<u64> = Bundle::new();
        let b2: Bundle<u64> = Bundle::new();
        b1.init(std::ptr::null_mut(), 0);
        b2.init(std::ptr::null_mut(), 0);
        let p1 = Box::into_raw(Box::new(1u64));
        let p2 = Box::into_raw(Box::new(2u64));

        let lin_marker = AtomicU64::new(0);
        let t1 = linearize_update(&clock, 0, &[(&b1, p1), (&b2, p2)], || {
            lin_marker.store(1, Ordering::SeqCst);
        });
        assert_eq!(t1, 1);
        assert_eq!(lin_marker.load(Ordering::SeqCst), 1);
        assert_eq!(b1.dereference(t1), Some(p1));
        assert_eq!(b2.dereference(t1), Some(p2));
        assert_eq!(b1.dereference(t1 - 1), Some(std::ptr::null_mut()));

        let t2 = linearize_update(&clock, 0, &[(&b1, p2)], || {});
        assert_eq!(t2, 2);
        assert_eq!(b1.dereference(t2), Some(p2));
        assert_eq!(b1.dereference(t1), Some(p1));
        unsafe {
            drop(Box::from_raw(p1));
            drop(Box::from_raw(p2));
        }
    }

    #[test]
    fn split_prepare_finalize_spans_structures_with_one_timestamp() {
        // The transaction pattern: prepare on two independent bundles (as
        // if they lived on different shards), advance the clock once, and
        // finalize both with that single timestamp — an atomic cut.
        let clock = GlobalTimestamp::new(1);
        let b1: Bundle<u64> = Bundle::new();
        let b2: Bundle<u64> = Bundle::new();
        let old = Box::into_raw(Box::new(0u64));
        b1.init(old, 0);
        b2.init(old, 0);
        let p1 = Box::into_raw(Box::new(1u64));
        let p2 = Box::into_raw(Box::new(2u64));

        let pending = [b1.prepare(p1), b2.prepare(p2)];
        let ts = clock.advance(0);
        for entry in pending {
            entry.finalize(ts);
        }
        assert_eq!(ts, 1);
        assert_eq!(b1.dereference(ts), Some(p1));
        assert_eq!(b2.dereference(ts), Some(p2));
        assert_eq!(b1.dereference(ts - 1), Some(old));
        assert_eq!(b2.dereference(ts - 1), Some(old));
        unsafe {
            drop(Box::from_raw(old));
            drop(Box::from_raw(p1));
            drop(Box::from_raw(p2));
        }
    }

    #[test]
    fn aborted_prepare_is_invisible_at_every_timestamp() {
        let clock = GlobalTimestamp::new(1);
        let b: Bundle<u64> = Bundle::new();
        let old = Box::into_raw(Box::new(0u64));
        b.init(old, 0);
        let p = Box::into_raw(Box::new(1u64));
        b.prepare(p).abort();
        // The clock never advanced and the bundle resolves as before.
        assert_eq!(clock.read(), 0);
        assert_eq!(b.dereference(0), Some(old));
        assert_eq!(b.dereference(100), Some(old));
        unsafe {
            drop(Box::from_raw(old));
            drop(Box::from_raw(p));
        }
    }

    #[test]
    fn concurrent_reader_sees_update_not_before_linearization() {
        // Models the T1/T2 scenario of §3.3: a reader that observes the
        // linearization point (the shared pointer) and then dereferences the
        // bundle at the current timestamp must see the new value, even if it
        // races with finalization.
        let clock = Arc::new(GlobalTimestamp::new(2));
        let bundle: Arc<Bundle<u64>> = Arc::new(Bundle::new());
        let shared: Arc<AtomicPtr<u64>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));
        let initial = Box::into_raw(Box::new(0u64));
        bundle.init(initial, 0);
        shared.store(initial, Ordering::SeqCst);

        let new_val = Box::into_raw(Box::new(42u64));
        let new_val_addr = new_val as usize;
        let writer = {
            let clock = Arc::clone(&clock);
            let bundle = Arc::clone(&bundle);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let new_val = new_val_addr as *mut u64;
                linearize_update(&clock, 0, &[(&bundle, new_val)], || {
                    shared.store(new_val, Ordering::SeqCst);
                });
            })
        };
        // Reader: spin until the linearization point is visible, then a
        // "range query" started now must observe the new value too.
        loop {
            if shared.load(Ordering::SeqCst) == new_val {
                let ts = clock.read();
                let seen = bundle.dereference(ts).expect("entry must satisfy ts");
                assert_eq!(seen, new_val, "linearized update missing from snapshot");
                break;
            }
            std::hint::spin_loop();
        }
        writer.join().unwrap();
        unsafe {
            drop(Box::from_raw(initial));
            drop(Box::from_raw(new_val));
        }
    }
}
