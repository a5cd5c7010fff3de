//! The counting global allocator of the allocation-bound suites
//! (`txn_allocs`, `primitive_allocs`): counts per thread, so the tests of
//! one binary do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = MINE.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every request unchanged to `System`; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations (and reallocations) this thread made while running `f`.
pub fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = MINE.with(Cell::get);
    let r = f();
    (MINE.with(Cell::get) - before, r)
}
