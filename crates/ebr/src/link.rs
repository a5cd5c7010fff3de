//! Guard-typed links: the one place that decides when a node pointer may
//! be dereferenced.
//!
//! A [`Link`] is a node's outgoing pointer; [`Link::load`] takes the
//! reader's [`Guard`] and returns a [`Shared`] that borrows it, so the
//! pointer cannot outlive the pin that keeps its node allocated:
//!
//! ```compile_fail
//! use std::sync::atomic::Ordering;
//! let collector = ebr::Collector::new(1, ebr::ReclaimMode::Reclaim);
//! let link = ebr::Link::<u64>::new(ebr::Shared::null());
//! let escaped = {
//!     let guard = collector.pin(0);
//!     link.load(Ordering::Acquire, &guard)
//! };
//! assert!(escaped.is_null());
//! ```
//!
//! A `Link<T>` is shared between threads only when `T` is:
//!
//! ```compile_fail
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<ebr::Link<std::cell::Cell<u8>>>();
//! ```

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::Guard;

/// A node pointer that may be dereferenced for as long as the guard it was
/// loaded under (`'g`) is live. Null is a value like any other (an empty
/// child slot); dereferencing it panics. Compares by address.
#[repr(transparent)]
pub struct Shared<'g, T> {
    ptr: *mut T,
    _guard: PhantomData<&'g ()>,
}

impl<'g, T> Shared<'g, T> {
    const fn wrap(ptr: *mut T) -> Self {
        Shared {
            ptr,
            _guard: PhantomData,
        }
    }

    /// The null pointer.
    #[must_use]
    pub const fn null() -> Self {
        Self::wrap(std::ptr::null_mut())
    }

    /// Move `value` to the heap. The node lives until it is handed to
    /// [`Guard::retire`] (or freed by the structure's own drop).
    #[must_use]
    pub fn boxed(value: T, _guard: &'g Guard<'_>) -> Self {
        Self::wrap(Box::into_raw(Box::new(value)))
    }

    /// Re-admit a raw pointer kept across calls — a node a transaction
    /// token holds locked, a cursor's frontier, an undo record — under the
    /// caller's guard.
    ///
    /// # Safety
    ///
    /// `ptr` is null or a node that is still allocated for `'g`: it is
    /// locked by the caller (a locked node is never retired), or it was
    /// loaded under a guard of the same pin that `guard` extends.
    #[must_use]
    pub unsafe fn from_raw(ptr: *mut T, _guard: &'g Guard<'_>) -> Self {
        Self::wrap(ptr)
    }

    /// The address, for identities that outlive the guard (read sets,
    /// tokens); turning it back into a node takes [`Shared::from_raw`].
    #[inline]
    pub fn as_raw(self) -> *mut T {
        self.ptr
    }

    /// `true` for the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.ptr.is_null()
    }
}

impl<T> Deref for Shared<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        assert!(!self.ptr.is_null(), "dereferenced a null node pointer");
        // SAFETY: the invariant this module exists for. A non-null `Shared`
        // was published by `boxed`, loaded from a `Link` under a live guard,
        // or re-admitted by `from_raw`; a node is freed only by
        // `Guard::retire`, after it is unreachable from every link, and the
        // collector defers that free past every guard pinned before it.
        unsafe { &*self.ptr }
    }
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr
    }
}

impl<T> Eq for Shared<'_, T> {}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p})", self.ptr)
    }
}

/// A node's outgoing pointer: an `AtomicPtr` whose loads are [`Shared`]s
/// bound to the reader's guard. `Send` / `Sync` exactly when `T` is.
#[repr(transparent)]
pub struct Link<T> {
    ptr: AtomicPtr<T>,
    _node: PhantomData<T>,
}

impl<T> Link<T> {
    /// A link to `target` (which may be [`Shared::null`]).
    #[must_use]
    pub fn new(target: Shared<'_, T>) -> Self {
        let ptr = AtomicPtr::new(target.ptr);
        Link {
            ptr,
            _node: PhantomData,
        }
    }

    /// The current target, dereferenceable while `guard` is live.
    #[inline]
    pub fn load<'g>(&self, order: Ordering, _guard: &'g Guard<'_>) -> Shared<'g, T> {
        Shared::wrap(self.ptr.load(order))
    }

    /// Point the link at `target`.
    #[inline]
    pub fn store(&self, target: Shared<'_, T>, order: Ordering) {
        self.ptr.store(target.ptr, order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, ReclaimMode};
    use std::mem::size_of;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn shared_and_link_cost_one_pointer() {
        assert_eq!(
            size_of::<Shared<'_, [u64; 4]>>(),
            size_of::<*mut [u64; 4]>()
        );
        assert_eq!(
            size_of::<Link<[u64; 4]>>(),
            size_of::<AtomicPtr<[u64; 4]>>()
        );
    }

    /// Publish, load, unlink, retire, advance: the node is freed exactly
    /// once, and only after the reader's guard is gone.
    #[test]
    fn a_retired_node_is_dropped_once_after_the_grace_period() {
        struct Node(Arc<AtomicUsize>);
        impl Drop for Node {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let collector = Collector::new(2, ReclaimMode::Reclaim);
        let link = Link::new(Shared::null());
        let writer = collector.pin(0);
        link.store(
            Shared::boxed(Node(Arc::clone(&drops)), &writer),
            Ordering::Release,
        );
        let reader = collector.pin(1);
        let node = link.load(Ordering::Acquire, &reader);
        link.store(Shared::null(), Ordering::Release);
        // SAFETY: unlinked above; `reader` pinned before the unlink.
        unsafe { writer.retire(node.as_raw()) };
        drop(writer);
        collector.try_advance();
        assert!(!collector.try_advance(), "the reader holds the epoch");
        assert_eq!(
            (node.0.load(Ordering::SeqCst), collector.stats().freed()),
            (0, 0)
        );
        drop(reader);
        assert!(collector.try_advance() && collector.try_advance());
        collector.pin(0).flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert!(link.load(Ordering::Acquire, &collector.pin(0)).is_null());
        drop(collector);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed once, not again");
    }
}
