//! Offline stand-in for the `crossbeam-utils` crate.
//!
//! This workspace builds in environments with no access to crates.io, so
//! the handful of external APIs the code depends on are provided by small
//! local crates with the same names and signatures (see `shims/README.md`).
//! Only [`CachePadded`] is needed here.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to the length of a cache line, preventing false
/// sharing between adjacent per-thread slots.
///
/// 128 bytes covers the common cases: x86-64 prefetches cache lines in
/// pairs of 64 bytes, and Apple/ARM big cores use 128-byte lines.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads and aligns a value to the length of a cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Returns the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachePadded")
            .field("value", &self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_to_cache_line() {
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), 128);
        let slots: [CachePadded<u64>; 2] = [CachePadded::new(1), CachePadded::new(2)];
        let a = &slots[0] as *const _ as usize;
        let b = &slots[1] as *const _ as usize;
        assert!(b - a >= 128, "adjacent slots must not share a cache line");
    }

    #[test]
    fn deref_round_trip() {
        let mut p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        *p = 9;
        assert_eq!(p.into_inner(), 9);
    }
}
