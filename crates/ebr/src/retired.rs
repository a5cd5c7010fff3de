//! A type-erased retired allocation awaiting reclamation.

/// A pointer that has been unlinked from a data structure and handed to the
/// collector, together with the function that knows how to drop it.
///
/// `Retired` erases the concrete type so that a single limbo list can hold
/// nodes, bundle entries, and any other allocation a data structure retires.
pub struct Retired {
    ptr: *mut u8,
    dtor: unsafe fn(*mut u8),
    epoch: u64,
}

// SAFETY: a `Retired` is only ever touched by the thread that owns the
// limbo list it sits in (or by the collector during its own teardown), so
// moving it across threads is sound as long as the underlying object is
// `Send`, which the unsafe `retire` requires.
unsafe impl Send for Retired {}

impl Retired {
    /// Wrap a heap allocation produced by `Box::into_raw`.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw` for a `T`, must not
    /// be dropped elsewhere, and must not be dereferenced after the grace
    /// period expires.
    pub(crate) unsafe fn from_box<T>(ptr: *mut T, epoch: u64) -> Self {
        unsafe fn drop_box<T>(p: *mut u8) {
            drop(Box::from_raw(p.cast::<T>()));
        }
        Retired {
            ptr: ptr.cast(),
            dtor: drop_box::<T>,
            epoch,
        }
    }

    /// The epoch during which this object was retired.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reclaim the allocation.
    ///
    /// # Safety
    ///
    /// May only be called once no thread can still hold a reference obtained
    /// while the object was reachable (i.e. after a grace period).
    pub(crate) unsafe fn reclaim(self) {
        (self.dtor)(self.ptr);
        // Nothing else to do for `self`; spelled as forget to document that
        // ownership of the pointee ended with the dtor call above.
        #[allow(clippy::forget_non_drop)]
        std::mem::forget(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Tracked;
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn from_box_runs_destructor_on_reclaim() {
        DROPS.store(0, Ordering::SeqCst);
        let p = Box::into_raw(Box::new(Tracked));
        // SAFETY: a fresh box, reclaimed once below.
        let r = unsafe { Retired::from_box(p, 7) };
        assert_eq!(r.epoch(), 7);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // SAFETY: nothing else refers to it.
        unsafe { r.reclaim() };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
}
