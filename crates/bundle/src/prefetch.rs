//! A cache prefetch hint.

/// Ask the CPU to start loading every cache line of the `bytes` bytes at
/// `ptr` (`prefetcht0` on `x86_64`; nothing elsewhere).
///
/// This is a **hint**: it never dereferences `ptr`, never faults, and
/// returns before any data arrives — so `ptr` need not be valid, aligned
/// or even still allocated, and nothing read "through" a prefetch exists
/// to be used. It must therefore never feed a result: a traversal may
/// *prefetch* a pointer it is not entitled to *follow* (a newest pointer
/// during a snapshot walk), because deleting the call changes no outcome,
/// only when the cache misses are paid.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T, bytes: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        // Start at the line `ptr` falls in, so an object that begins
        // mid-line has its last line covered too.
        let lead = ptr as usize & (LINE - 1);
        let first = ptr.cast::<i8>().wrapping_sub(lead);
        let mut off = 0;
        while off < lead + bytes {
            // SAFETY: `prefetcht0` is architecturally a no-op on an address
            // it cannot load; it has no memory-safety requirement.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(off)) };
            off += LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (ptr, bytes);
}
