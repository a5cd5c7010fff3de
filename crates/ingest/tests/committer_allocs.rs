//! In steady state the committer's side of a single-op submission
//! performs no heap allocation: the group buffers are reused, the
//! outcome bit rides inline in the ticket, and resolving wakes through
//! handles the waiters registered. A counting global allocator splits
//! allocations into "this thread" (the producer: tickets, the outcome
//! `Vec<bool>`s) and "everyone else" — which, with one test in this
//! binary, is the committer thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingest::{Ingest, IngestConfig};
use store::{uniform_splits, SkipListStore, TxnOp};

struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = MINE.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every request unchanged to `System`; the counters touch
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

/// Allocations made by threads other than the caller since the counters
/// were last read this way.
fn others() -> u64 {
    TOTAL.load(Ordering::Relaxed) - MINE.with(Cell::get)
}

#[test]
fn steady_state_committer_allocates_per_group_not_per_submission() {
    const WINDOW: u64 = 256;
    const WINDOWS: u64 = 40;
    let store = Arc::new(SkipListStore::<u64, u64>::new(
        3,
        uniform_splits(4, 4 * WINDOW),
    ));
    let ingest = Ingest::spawn(
        Arc::clone(&store),
        IngestConfig {
            committers: 1,
            // One group per window, so "per group" and "per op" differ
            // by a factor of 256 and cannot be confused.
            linger: Duration::from_millis(2),
            ..IngestConfig::default()
        },
    );
    // Removes of absent keys: the store stages them without allocating
    // a node or a bundle entry, so what is left is the front-end.
    let window = |w: u64| (0..WINDOW).map(move |i| TxnOp::Remove((w * 7 + i * 4) % (4 * WINDOW)));
    let run = |w: u64| {
        for t in ingest.submit_all(window(w)) {
            assert_eq!(t.wait().applied, vec![false]);
        }
    };
    // Warm-up: every reused buffer reaches its high-water capacity.
    for w in 0..4 {
        run(w);
    }
    let (groups0, before) = (ingest.stats().groups, others());
    for w in 4..4 + WINDOWS {
        run(w);
    }
    let (groups, allocs) = (ingest.stats().groups - groups0, others() - before);
    ingest.shutdown();
    let ops = WINDOW * WINDOWS;
    println!(
        "committer allocations: {allocs} in {groups} groups ({:.1} per group)",
        allocs as f64 / groups as f64
    );
    // What remains is the store's own per-group bookkeeping inside
    // `apply_grouped` (15 allocations per group when this was written, 1
    // since the tokens keep their buffers warm;
    // the `Mutex`+`Condvar` tickets and `Vec<Vec<bool>>` scatter this
    // replaced cost 11,520 allocations on the same 10,240 submissions).
    assert!(
        allocs <= 32 * groups,
        "the committer allocated {allocs} times for {ops} single-op submissions \
         in {groups} groups: something on its path allocates per submission again"
    );
}
