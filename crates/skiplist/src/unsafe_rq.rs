//! The *Unsafe* skip list baseline: the lazy skip list with a naive,
//! non-linearizable range scan over the data layer (the paper's reference
//! line in Figures 2 and 3).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ebr::{Collector, Guard, Link, ReclaimMode, Shared};

use crate::MAX_LEVEL;

struct Node<K, V> {
    key: K,
    val: Option<V>,
    top_level: usize,
    lock: Mutex<()>,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    next: [Link<Node<K, V>>; MAX_LEVEL],
}

type NodePtr<'g, K, V> = Shared<'g, Node<K, V>>;
type Tower<'g, K, V> = [NodePtr<'g, K, V>; MAX_LEVEL];

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>, top: usize, succs: &Tower<'_, K, V>) -> Self {
        let link = |l| Link::new(if l > top { Shared::null() } else { succs[l] });
        Node {
            key,
            val,
            top_level: top,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            next: std::array::from_fn(link),
        }
    }
}

/// The optimistic lazy skip list with non-linearizable range queries.
pub struct UnsafeSkipList<K, V> {
    /// The sentinels; set once by the constructor.
    head: Link<Node<K, V>>,
    tail: Link<Node<K, V>>,
    collector: Collector,
    seeds: Box<[CachePadded<AtomicU64>]>,
}

impl<K, V> UnsafeSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a skip list supporting `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// Create a skip list with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        let collector = Collector::new(max_threads, mode);
        let guard = collector.pin(0);
        let tail = Node::new(
            K::default(),
            None,
            MAX_LEVEL - 1,
            &[Shared::null(); MAX_LEVEL],
        );
        let tail = Shared::boxed(tail, &guard);
        let head = Node::new(K::default(), None, MAX_LEVEL - 1, &[tail; MAX_LEVEL]);
        let head = Shared::boxed(head, &guard);
        head.fully_linked.store(true, Ordering::Release);
        tail.fully_linked.store(true, Ordering::Release);
        let (head, tail) = (Link::new(head), Link::new(tail));
        drop(guard);
        let seeds = (0..max_threads.max(1))
            .map(|i| {
                CachePadded::new(AtomicU64::new(
                    0x2545f4914f6cdd1du64.wrapping_mul(i as u64 + 1),
                ))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        UnsafeSkipList {
            head,
            tail,
            collector,
            seeds,
        }
    }

    /// The structure's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    fn pin(&self, tid: usize) -> Guard<'_> {
        self.collector.pin(tid)
    }

    fn ends<'g>(&self, guard: &'g Guard<'_>) -> (NodePtr<'g, K, V>, NodePtr<'g, K, V>) {
        let head = self.head.load(Ordering::Relaxed, guard);
        (head, self.tail.load(Ordering::Relaxed, guard))
    }

    fn random_level(&self, tid: usize) -> usize {
        let slot = &self.seeds[tid % self.seeds.len()];
        let mut x = slot.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot.store(x, Ordering::Relaxed);
        ((x.trailing_ones()) as usize).min(MAX_LEVEL - 1)
    }

    fn find<'g>(
        &self,
        key: &K,
        preds: &mut Tower<'g, K, V>,
        succs: &mut Tower<'g, K, V>,
        guard: &'g Guard<'_>,
    ) -> Option<usize> {
        let (mut pred, tail) = self.ends(guard);
        let mut lfound = None;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = pred.next[lvl].load(Ordering::Acquire, guard);
            while curr != tail && curr.key < *key {
                pred = curr;
                curr = pred.next[lvl].load(Ordering::Acquire, guard);
            }
            if lfound.is_none() && curr != tail && curr.key == *key {
                lfound = Some(lvl);
            }
            preds[lvl] = pred;
            succs[lvl] = curr;
        }
        lfound
    }

    /// The node holding `key` if it is present: found, fully linked and
    /// not removed.
    fn present<'g>(&self, key: &K, guard: &'g Guard<'_>) -> Option<NodePtr<'g, K, V>> {
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let n = succs[self.find(key, &mut preds, &mut succs, guard)?];
        (n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire)).then_some(n)
    }

    fn lock_and_validate<'a>(
        &self,
        preds: &'a Tower<'_, K, V>,
        succs: &Tower<'_, K, V>,
        top: usize,
        expect_succ: Option<NodePtr<'_, K, V>>,
        guard: &Guard<'_>,
    ) -> Option<Vec<MutexGuard<'a, ()>>> {
        let tail = self.ends(guard).1;
        let mut guards = Vec::with_capacity(top + 1);
        for lvl in 0..=top {
            let (pred, succ) = (&preds[lvl], expect_succ.unwrap_or(succs[lvl]));
            if lvl == 0 || *pred != preds[lvl - 1] {
                guards.push(pred.lock.lock());
            }
            let s_marked = succ != tail && succ.marked.load(Ordering::Acquire);
            let valid = !pred.marked.load(Ordering::Acquire)
                && !s_marked
                && pred.next[lvl].load(Ordering::Acquire, guard) == succ;
            if !valid {
                return None;
            }
        }
        Some(guards)
    }
}

impl<K, V> ConcurrentSet<K, V> for UnsafeSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let guard = self.pin(tid);
        let top = self.random_level(tid);
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        loop {
            if let Some(l) = self.find(&key, &mut preds, &mut succs, &guard) {
                let f = succs[l];
                if !f.marked.load(Ordering::Acquire) {
                    while !f.fully_linked.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    return false;
                }
                continue;
            }
            let Some(guards) = self.lock_and_validate(&preds, &succs, top, None, &guard) else {
                continue;
            };
            let node = Shared::boxed(Node::new(key, Some(value), top, &succs), &guard);
            for (lvl, pred) in preds.iter().enumerate().take(top + 1) {
                pred.next[lvl].store(node, Ordering::Release);
            }
            node.fully_linked.store(true, Ordering::Release);
            drop(guards);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        loop {
            let lfound = self.find(key, &mut preds, &mut succs, &guard);
            let (victim, level) = match lfound {
                Some(l) => (succs[l], l),
                None => return false,
            };
            if !(victim.fully_linked.load(Ordering::Acquire)
                && victim.top_level == level
                && !victim.marked.load(Ordering::Acquire))
            {
                return false;
            }
            let top = victim.top_level;
            let victim_lock = victim.lock.lock();
            if victim.marked.load(Ordering::Acquire) {
                return false;
            }
            let Some(guards) = self.lock_and_validate(&preds, &succs, top, Some(victim), &guard)
            else {
                drop(victim_lock);
                continue;
            };
            victim.marked.store(true, Ordering::Release);
            for lvl in (0..=top).rev() {
                let next = victim.next[lvl].load(Ordering::Acquire, &guard);
                preds[lvl].next[lvl].store(next, Ordering::Release);
            }
            drop(guards);
            drop(victim_lock);
            // SAFETY: `retire`: unlinked on every level (no bundles here).
            unsafe { guard.retire(victim.as_raw()) };
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        self.present(key, &self.pin(tid)).is_some()
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        self.present(key, &self.pin(tid))?.val.clone()
    }

    fn len(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let (head, tail) = self.ends(&guard);
        let mut n = 0;
        let mut curr = head.next[0].load(Ordering::Acquire, &guard);
        while curr != tail {
            if curr.fully_linked.load(Ordering::Acquire) && !curr.marked.load(Ordering::Acquire) {
                n += 1;
            }
            curr = curr.next[0].load(Ordering::Acquire, &guard);
        }
        n
    }
}

impl<K, V> RangeQuerySet<K, V> for UnsafeSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Non-linearizable scan: descend the index layers, then walk the data
    /// layer collecting unmarked nodes.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        let guard = self.pin(tid);
        out.clear();
        let (mut pred, tail) = self.ends(&guard);
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = pred.next[lvl].load(Ordering::Acquire, &guard);
            while curr != tail && curr.key < *low {
                pred = curr;
                curr = pred.next[lvl].load(Ordering::Acquire, &guard);
            }
        }
        let mut curr = pred.next[0].load(Ordering::Acquire, &guard);
        while curr != tail && curr.key <= *high {
            if curr.key >= *low && !curr.marked.load(Ordering::Acquire) {
                out.push((curr.key, curr.val.clone().expect("data node has a value")));
            }
            curr = curr.next[0].load(Ordering::Acquire, &guard);
        }
        out.len()
    }
}

impl<K, V> Drop for UnsafeSkipList<K, V> {
    fn drop(&mut self) {
        let guard = self.collector.pin(0);
        let mut curr = self.head.load(Ordering::Relaxed, &guard);
        while !curr.is_null() {
            let next = curr.next[0].load(Ordering::Relaxed, &guard);
            // SAFETY: a drop free: reachable nodes are the list's alone.
            unsafe { drop(Box::from_raw(curr.as_raw())) };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    type Sl = UnsafeSkipList<u64, u64>;

    #[test]
    fn basic_set_semantics() {
        let s = Sl::new(1);
        for k in [8u64, 2, 6, 4] {
            assert!(s.insert(0, k, k));
        }
        assert!(!s.insert(0, 6, 0));
        assert!(s.contains(0, &2));
        assert_eq!(s.get(0, &8), Some(8));
        assert!(s.remove(0, &2));
        assert!(!s.contains(0, &2));
        assert_eq!(s.len(0), 3);
        let mut out = Vec::new();
        s.range_query(0, &0, &10, &mut out);
        assert_eq!(out, vec![(4, 4), (6, 6), (8, 8)]);
    }

    #[test]
    fn matches_btreemap_model_sequentially() {
        let s = Sl::new(1);
        let mut model = BTreeMap::new();
        let mut seed = 99u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..3000 {
            let k = next() % 512;
            match next() % 3 {
                0 => assert_eq!(s.insert(0, k, k), model.insert(k, k).is_none()),
                1 => assert_eq!(s.remove(0, &k), model.remove(&k).is_some()),
                _ => assert_eq!(s.contains(0, &k), model.contains_key(&k)),
            }
        }
        assert_eq!(s.len(0), model.len());
    }

    #[test]
    fn concurrent_updates_preserve_structure() {
        const THREADS: usize = 4;
        let s = Arc::new(Sl::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut seed = (tid as u64 + 1).wrapping_mul(0xa24baed4963ee407);
                    for _ in 0..2000 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 256;
                        if seed.is_multiple_of(2) {
                            s.insert(tid, k, k);
                        } else {
                            s.remove(tid, &k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        s.range_query(0, &0, &(u64::MAX - 2), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), s.len(0));
    }
}
