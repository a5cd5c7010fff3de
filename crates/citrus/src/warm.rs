//! The hint-only warm pass that runs ahead of a range walk.
//!
//! An in-order walk meets its nodes one dependent cache miss at a time. A
//! binary tree, unlike a chain, knows both children of every in-range node
//! long before the walk gets to them, so the misses can overlap: this pass
//! runs over the range's subtree breadth-first and only *prefetches*. The
//! walk that follows is unchanged and alone produces the result.

use std::mem::{size_of, MaybeUninit};

use bundle::prefetch_read;
use ebr::Shared;

/// Capacity of the pass's breadth-first frontier, in nodes (8 KiB of call
/// stack, never initialised). A level of a range's subtree wider than this
/// is prefetched but not descended from; the walk pays for what lies below
/// it as it always did.
pub(crate) const FRONTIER: usize = 1024;

/// Prefetch the nodes a pruned in-order walk of `low..=high` is about to
/// touch in the subtree under `top`, following the pointers `links` reports
/// for each node as `(key, left, right)`: left where the key is at least
/// `low`, right where it is at most `high` — the walk's own pruning. A
/// point lookup (`low == high`) is a single dependent path with nothing to
/// overlap, and is skipped.
///
/// **Hint only.** The pass returns nothing and writes nothing outside its
/// own frame, so the pointers `links` reports may be ones the caller's walk
/// is not entitled to follow (the newest child pointers ahead of a snapshot
/// walk): a stale or concurrently changing picture only warms the wrong
/// lines. All `links` needs is that every node it is handed — `top` and
/// whatever it reported itself — may be *read*, which is the searches'
/// condition: each is a [`Shared`] loaded under the caller's guard.
pub(crate) fn warm_range<'g, N, K: Ord>(
    top: Shared<'g, N>,
    low: &K,
    high: &K,
    links: impl Fn(Shared<'g, N>) -> (K, Shared<'g, N>, Shared<'g, N>),
) {
    if low == high || top.is_null() {
        return;
    }
    let mut frontier = [const { MaybeUninit::<Shared<'g, N>>::uninit() }; FRONTIER];
    // Monotone counters; a node's slot is its count modulo the capacity.
    let (mut head, mut tail) = (0usize, 1usize);
    prefetch_read(top.as_raw(), size_of::<N>());
    frontier[0].write(top);
    while head != tail {
        // SAFETY: an uninitialised-buffer read, not a node one: every slot
        // in `head..tail` was written when `tail` passed it, and
        // `tail - head <= FRONTIER` keeps it from being overwritten before
        // `head` gets there.
        let node = unsafe { frontier[head % FRONTIER].assume_init() };
        head += 1;
        let (key, left, right) = links(node);
        for (child, wanted) in [(left, key >= *low), (right, key <= *high)] {
            if wanted && !child.is_null() {
                prefetch_read(child.as_raw(), size_of::<N>());
                if tail - head < FRONTIER {
                    frontier[tail % FRONTIER].write(child);
                    tail += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;

    use bundle::api::{ConcurrentSet, RangeQuerySet};
    use ebr::{Collector, Guard, Link, ReclaimMode};

    use crate::{BundledCitrusTree, UnsafeCitrusTree};

    struct Toy {
        key: u64,
        left: Link<Toy>,
        right: Link<Toy>,
    }

    /// A balanced tree over `lo..hi` (never freed: the collector is leaky).
    fn balanced<'g>(lo: u64, hi: u64, g: &'g Guard<'_>) -> Shared<'g, Toy> {
        if lo >= hi {
            return Shared::null();
        }
        let key = lo + (hi - lo) / 2;
        let (left, right) = (
            Link::new(balanced(lo, key, g)),
            Link::new(balanced(key + 1, hi, g)),
        );
        Shared::boxed(Toy { key, left, right }, g)
    }

    /// The keys of the nodes a pruned in-order walk of `low..=high` touches.
    fn touched(node: Shared<'_, Toy>, low: u64, high: u64, g: &Guard<'_>, acc: &mut Vec<u64>) {
        if !node.is_null() {
            acc.push(node.key);
            if node.key >= low {
                touched(node.left.load(Ordering::Relaxed, g), low, high, g, acc);
            }
            if node.key <= high {
                touched(node.right.load(Ordering::Relaxed, g), low, high, g, acc);
            }
        }
    }

    #[test]
    fn the_pass_reads_the_nodes_the_walk_will_touch_and_gives_up_past_its_frontier() {
        const KEYS: u64 = 4095;
        const _: () = assert!(KEYS as usize / 2 > FRONTIER);
        let collector = Collector::new(1, ReclaimMode::Leaky);
        let g = collector.pin(0);
        let top = balanced(0, KEYS, &g);
        let read = |low: u64, high: u64| {
            let seen = RefCell::new(Vec::new());
            warm_range(top, &low, &high, |n| {
                seen.borrow_mut().push(n.key);
                let load = |l: &Link<Toy>| l.load(Ordering::Relaxed, &g);
                (n.key, load(&n.left), load(&n.right))
            });
            let (mut seen, mut walk) = (seen.into_inner(), Vec::new());
            touched(top, low, high, &g, &mut walk);
            seen.sort_unstable();
            walk.sort_unstable();
            (seen, walk)
        };
        // Within the frontier: exactly the walk's nodes, each once (with
        // inverted bounds, the path down to the gap between them).
        for (low, high) in [(100, 163), (0, 700), (4000, 9000), (2047, 2048), (900, 800)] {
            let (seen, walk) = read(low, high);
            assert_eq!(seen, walk, "{low}..={high}");
        }
        // A point lookup and an empty tree are left alone.
        assert!(read(2047, 2047).0.is_empty());
        warm_range(Shared::<Toy>::null(), &0, &9, |_| unreachable!());
        // The whole tree: the last level is wider than the frontier. The
        // pass still ends, having read each node at most once and only
        // nodes of the walk, but not all of them.
        let (seen, walk) = read(0, KEYS);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(seen.iter().all(|k| walk.binary_search(k).is_ok()));
        assert!(FRONTIER <= seen.len() && seen.len() < walk.len());
    }

    /// The pass is a hint: behind it a range query answers what the model
    /// says, from the degenerate trees up to one whose full scan overflows
    /// the frontier many times over.
    fn ranges_match_the_model<S>(tree: S)
    where
        S: ConcurrentSet<u64, u64> + RangeQuerySet<u64, u64>,
    {
        const KEYS: usize = 100_000;
        const _: () = assert!(KEYS > 50 * FRONTIER);
        const SPACE: u64 = 1 << 20;
        let mut model = BTreeMap::new();
        let mut out = Vec::new();
        let mut check = |model: &BTreeMap<u64, u64>, low: u64, high: u64| {
            tree.range_query(0, &low, &high, &mut out);
            let expect: Vec<(u64, u64)> = if low <= high {
                model.range(low..=high).map(|(k, v)| (*k, *v)).collect()
            } else {
                Vec::new()
            };
            assert_eq!(out, expect, "{low}..={high} of {} keys", model.len());
        };
        check(&model, 0, SPACE);
        assert!(tree.insert(0, 7, 70));
        model.insert(7, 70);
        for (low, high) in [(0, SPACE), (7, 7), (8, 8), (0, 6), (7, 9), (9, 3)] {
            check(&model, low, high);
        }
        let mut seed = 0x5eed_0023_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        while model.len() < KEYS {
            let k = next() % SPACE;
            assert_eq!(tree.insert(0, k, k + 1), model.insert(k, k + 1).is_none());
            // Every eighth step a remove, so the tree has relocated nodes.
            if model.len() % 8 == 0 {
                let k = next() % SPACE;
                assert_eq!(tree.remove(0, &k), model.remove(&k).is_some());
            }
        }
        check(&model, 0, SPACE);
        for span in [0, 1, 50, 1_000, 40_000, SPACE / 2] {
            for _ in 0..8 {
                let low = next() % SPACE;
                check(&model, low, low + span);
                check(&model, low + span + 1, low);
            }
        }
    }

    #[test]
    fn bundled_ranges_behind_the_warm_pass_match_the_model() {
        ranges_match_the_model(BundledCitrusTree::<u64, u64>::with_mode(
            1,
            ebr::ReclaimMode::Reclaim,
        ));
    }

    #[test]
    fn unsafe_ranges_behind_the_warm_pass_match_the_model() {
        ranges_match_the_model(UnsafeCitrusTree::<u64, u64>::new(1));
    }
}
