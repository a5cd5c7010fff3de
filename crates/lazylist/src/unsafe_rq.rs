//! The *Unsafe* lazy list baseline (§8): linearizable primitive operations,
//! range queries that simply walk the current pointers with no consistency
//! guarantee. It is the performance reference line in Figures 2 and 3.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ebr::{Collector, Guard, Link, ReclaimMode, Shared};

struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: Mutex<()>,
    marked: AtomicBool,
    next: Link<Node<K, V>>,
}

type NodePtr<'g, K, V> = Shared<'g, Node<K, V>>;

/// A predecessor and its successor.
type Window<'g, K, V> = (NodePtr<'g, K, V>, NodePtr<'g, K, V>);

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>, next: NodePtr<'_, K, V>) -> Self {
        Node {
            key,
            val,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            next: Link::new(next),
        }
    }
}

/// The lazy sorted linked list exactly as published by Heller et al., with a
/// naive (non-linearizable) range query — the paper's `Unsafe` baseline.
pub struct UnsafeLazyList<K, V> {
    /// The sentinels; set once by the constructor.
    head: Link<Node<K, V>>,
    tail: Link<Node<K, V>>,
    collector: Collector,
}

impl<K, V> UnsafeLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a list supporting `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// Create a list with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        let collector = Collector::new(max_threads, mode);
        let guard = collector.pin(0);
        let tail = Shared::boxed(Node::new(K::default(), None, Shared::null()), &guard);
        let head = Shared::boxed(Node::new(K::default(), None, tail), &guard);
        let (head, tail) = (Link::new(head), Link::new(tail));
        drop(guard);
        UnsafeLazyList {
            head,
            tail,
            collector,
        }
    }

    /// The structure's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    fn pin(&self, tid: usize) -> Guard<'_> {
        self.collector.pin(tid)
    }

    fn ends<'g>(&self, guard: &'g Guard<'_>) -> Window<'g, K, V> {
        let head = self.head.load(Ordering::Relaxed, guard);
        (head, self.tail.load(Ordering::Relaxed, guard))
    }

    fn traverse<'g>(&self, target: &K, guard: &'g Guard<'_>) -> Window<'g, K, V> {
        let (mut pred, tail) = self.ends(guard);
        let mut curr = pred.next.load(Ordering::Acquire, guard);
        while curr != tail && curr.key < *target {
            pred = curr;
            curr = curr.next.load(Ordering::Acquire, guard);
        }
        (pred, curr)
    }

    fn validate(
        &self,
        pred: NodePtr<'_, K, V>,
        curr: NodePtr<'_, K, V>,
        guard: &Guard<'_>,
    ) -> bool {
        !pred.marked.load(Ordering::Acquire) && pred.next.load(Ordering::Acquire, guard) == curr
    }

    /// The node holding `key`, if it is present and not removed.
    fn find<'g>(&self, key: &K, guard: &'g Guard<'_>) -> Option<NodePtr<'g, K, V>> {
        let (_, curr) = self.traverse(key, guard);
        let found = curr != self.ends(guard).1 && curr.key == *key;
        (found && !curr.marked.load(Ordering::Acquire)).then_some(curr)
    }
}

impl<K, V> ConcurrentSet<K, V> for UnsafeLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let guard = self.pin(tid);
        let tail = self.ends(&guard).1;
        loop {
            let (pred, curr) = self.traverse(&key, &guard);
            let _lock = pred.lock.lock();
            if !self.validate(pred, curr, &guard) {
                continue;
            }
            if curr != tail && curr.key == key {
                return false;
            }
            let node = Shared::boxed(Node::new(key, Some(value), curr), &guard);
            pred.next.store(node, Ordering::Release);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let tail = self.ends(&guard).1;
        loop {
            let (pred, curr) = self.traverse(key, &guard);
            if curr == tail || curr.key != *key {
                return false;
            }
            let _pred_lock = pred.lock.lock();
            let _curr_lock = curr.lock.lock();
            if !self.validate(pred, curr, &guard) || curr.marked.load(Ordering::Acquire) {
                continue;
            }
            curr.marked.store(true, Ordering::Release);
            pred.next
                .store(curr.next.load(Ordering::Acquire, &guard), Ordering::Release);
            // SAFETY: `retire`: `curr` is unlinked (this list has no bundles).
            unsafe { guard.retire(curr.as_raw()) };
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        self.find(key, &self.pin(tid)).is_some()
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        self.find(key, &self.pin(tid))?.val.clone()
    }

    fn len(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let (head, tail) = self.ends(&guard);
        let mut n = 0;
        let mut curr = head.next.load(Ordering::Acquire, &guard);
        while curr != tail {
            n += 1;
            curr = curr.next.load(Ordering::Acquire, &guard);
        }
        n
    }
}

impl<K, V> RangeQuerySet<K, V> for UnsafeLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Non-linearizable scan over the current pointers: concurrent updates
    /// may be partially observed. This is exactly the paper's `Unsafe`
    /// reference implementation.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        let guard = self.pin(tid);
        out.clear();
        let tail = self.ends(&guard).1;
        let (_, mut curr) = self.traverse(low, &guard);
        while curr != tail && curr.key <= *high {
            if !curr.marked.load(Ordering::Acquire) {
                out.push((curr.key, curr.val.clone().expect("data node has a value")));
            }
            curr = curr.next.load(Ordering::Acquire, &guard);
        }
        out.len()
    }
}

impl<K, V> Drop for UnsafeLazyList<K, V> {
    fn drop(&mut self) {
        let guard = self.collector.pin(0);
        let mut curr = self.head.load(Ordering::Relaxed, &guard);
        while !curr.is_null() {
            let next = curr.next.load(Ordering::Relaxed, &guard);
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

    type List = UnsafeLazyList<u64, u64>;

    #[test]
    fn basic_set_semantics() {
        let l = List::new(1);
        assert!(l.insert(0, 3, 30));
        assert!(l.insert(0, 1, 10));
        assert!(l.insert(0, 2, 20));
        assert!(!l.insert(0, 2, 99));
        assert!(l.contains(0, &1));
        assert_eq!(l.get(0, &3), Some(30));
        assert!(l.remove(0, &1));
        assert!(!l.contains(0, &1));
        assert_eq!(l.len(0), 2);
        let mut out = Vec::new();
        l.range_query(0, &0, &10, &mut out);
        assert_eq!(out, vec![(2, 20), (3, 30)]);
    }

    #[test]
    fn matches_btreemap_model_sequentially() {
        let l = List::new(1);
        let mut model = BTreeMap::new();
        let mut seed = 42u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..2000 {
            let k = next() % 64;
            match next() % 3 {
                0 => assert_eq!(l.insert(0, k, k), model.insert(k, k).is_none()),
                1 => assert_eq!(l.remove(0, &k), model.remove(&k).is_some()),
                _ => assert_eq!(l.contains(0, &k), model.contains_key(&k)),
            }
        }
        assert_eq!(l.len(0), model.len());
    }

    #[test]
    fn concurrent_updates_preserve_structure() {
        const THREADS: usize = 4;
        let l = Arc::new(List::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let mut seed = (tid as u64 + 1) * 7919;
                    for _ in 0..2000 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 128;
                        if seed.is_multiple_of(2) {
                            l.insert(tid, k, k);
                        } else {
                            l.remove(tid, &k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        l.range_query(0, &0, &(u64::MAX - 1), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), l.len(0));
    }
}
