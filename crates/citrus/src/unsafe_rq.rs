//! The *Unsafe* Citrus-style BST baseline: same primitive operations as the
//! bundled tree, non-linearizable in-order range scans.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ebr::{Collector, Guard, Link, ReclaimMode, Shared};

use crate::warm::warm_range;
use crate::{LEFT, RIGHT};

struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: Mutex<()>,
    marked: AtomicBool,
    child: [Link<Node<K, V>>; 2],
}

type NodePtr<'g, K, V> = Shared<'g, Node<K, V>>;

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>, children: [NodePtr<'_, K, V>; 2]) -> Self {
        Node {
            key,
            val,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            child: children.map(Link::new),
        }
    }
}

/// Unbalanced internal BST with per-node locking and non-linearizable range
/// queries (the paper's `Unsafe` reference for the Citrus tree).
pub struct UnsafeCitrusTree<K, V> {
    /// The sentinel; set once by the constructor.
    root: Link<Node<K, V>>,
    collector: Collector,
}

impl<K, V> UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a tree supporting `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// Create a tree with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        let collector = Collector::new(max_threads, mode);
        let guard = collector.pin(0);
        let root = Node::new(K::default(), None, [Shared::null(); 2]);
        let root = Link::new(Shared::boxed(root, &guard));
        drop(guard);
        UnsafeCitrusTree { root, collector }
    }

    /// The structure's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    fn pin(&self, tid: usize) -> Guard<'_> {
        self.collector.pin(tid)
    }

    fn search<'g>(
        &self,
        key: &K,
        guard: &'g Guard<'_>,
    ) -> (NodePtr<'g, K, V>, usize, NodePtr<'g, K, V>) {
        let mut pred = self.root.load(Ordering::Relaxed, guard);
        let mut dir = LEFT;
        let mut curr = pred.child[LEFT].load(Ordering::Acquire, guard);
        while !curr.is_null() && curr.key != *key {
            dir = if *key < curr.key { LEFT } else { RIGHT };
            pred = curr;
            curr = curr.child[dir].load(Ordering::Acquire, guard);
        }
        (pred, dir, curr)
    }

    /// The node holding `key`, if it is present and not removed.
    fn present<'g>(&self, key: &K, guard: &'g Guard<'_>) -> Option<NodePtr<'g, K, V>> {
        let (_, _, curr) = self.search(key, guard);
        (!curr.is_null() && !curr.marked.load(Ordering::Acquire)).then_some(curr)
    }
}

impl<K, V> ConcurrentSet<K, V> for UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let guard = self.pin(tid);
        loop {
            let (pred, dir, curr) = self.search(&key, &guard);
            if !curr.is_null() {
                if !curr.marked.load(Ordering::Acquire) {
                    return false;
                }
                continue;
            }
            let _lock = pred.lock.lock();
            if pred.marked.load(Ordering::Acquire)
                || !pred.child[dir].load(Ordering::Acquire, &guard).is_null()
            {
                continue;
            }
            let node = Shared::boxed(Node::new(key, Some(value), [Shared::null(); 2]), &guard);
            pred.child[dir].store(node, Ordering::Release);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let load = |n: NodePtr<'_, K, V>, dir: usize| n.child[dir].load(Ordering::Acquire, &guard);
        loop {
            let (pred, dir, curr) = self.search(key, &guard);
            if curr.is_null() {
                return false;
            }
            let pred_lock = pred.lock.lock();
            let Some(curr_lock) = curr.lock.try_lock() else {
                continue;
            };
            if pred.marked.load(Ordering::Acquire)
                || curr.marked.load(Ordering::Acquire)
                || load(pred, dir) != curr
                || curr.key != *key
            {
                continue;
            }
            let (left, right) = (load(curr, LEFT), load(curr, RIGHT));
            if left.is_null() || right.is_null() {
                let repl = if left.is_null() { right } else { left };
                curr.marked.store(true, Ordering::Release);
                pred.child[dir].store(repl, Ordering::Release);
                drop((curr_lock, pred_lock));
                // SAFETY: `retire`: `curr` is spliced out (no bundles here).
                unsafe { guard.retire(curr.as_raw()) };
                return true;
            }
            // Two children: replace by a copy of the successor.
            let (mut succ_parent, mut succ) = (curr, right);
            while !load(succ, LEFT).is_null() {
                (succ_parent, succ) = (succ, load(succ, LEFT));
            }
            let sp_lock = if succ_parent != curr {
                let Some(g) = succ_parent.lock.try_lock() else {
                    continue;
                };
                Some(g)
            } else {
                None
            };
            let Some(succ_lock) = succ.lock.try_lock() else {
                continue;
            };
            let succ_still_leftmost = if succ_parent == curr {
                load(curr, RIGHT) == succ
            } else {
                load(succ_parent, LEFT) == succ
            };
            if succ.marked.load(Ordering::Acquire)
                || succ_parent.marked.load(Ordering::Acquire)
                || !load(succ, LEFT).is_null()
                || !succ_still_leftmost
            {
                continue;
            }
            let succ_right = load(succ, RIGHT);
            let new_right = if succ == right { succ_right } else { right };
            let new_node = Node::new(succ.key, succ.val.clone(), [left, new_right]);
            let new_node = Shared::boxed(new_node, &guard);
            curr.marked.store(true, Ordering::Release);
            succ.marked.store(true, Ordering::Release);
            pred.child[dir].store(new_node, Ordering::Release);
            if succ != right {
                succ_parent.child[LEFT].store(succ_right, Ordering::Release);
            }
            drop((succ_lock, sp_lock, curr_lock, pred_lock));
            // SAFETY: `retire`: both replaced by the copy (no bundles here).
            unsafe {
                guard.retire(curr.as_raw());
                guard.retire(succ.as_raw());
            }
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
        let mut n = 0;
        let mut stack =
            vec![self.root.load(Ordering::Relaxed, &guard).child[LEFT]
                .load(Ordering::Acquire, &guard)];
        while let Some(node) = stack.pop() {
            if !node.is_null() {
                n += 1;
                stack.extend(node.child.iter().map(|c| c.load(Ordering::Acquire, &guard)));
            }
        }
        n
    }
}

impl<K, V> RangeQuerySet<K, V> for UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Non-linearizable in-order walk over the current pointers — the
    /// traversal of the bundled tree's snapshot walk minus the bundles,
    /// behind the same warm pass, so the two differ by exactly what
    /// bundling costs.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        let guard = self.pin(tid);
        out.clear();
        let load = |n: NodePtr<'_, K, V>, dir: usize| n.child[dir].load(Ordering::Acquire, &guard);
        // Same ancestor-stack capacity as the bundled tree's walk.
        let mut stack = Vec::with_capacity(64);
        let mut curr = load(self.root.load(Ordering::Relaxed, &guard), LEFT);
        warm_range(curr, low, high, |n| (n.key, load(n, LEFT), load(n, RIGHT)));
        loop {
            while !curr.is_null() {
                curr = if curr.key < *low {
                    load(curr, RIGHT)
                } else {
                    stack.push(curr);
                    load(curr, LEFT)
                };
            }
            let Some(node) = stack.pop() else {
                return out.len();
            };
            if node.key > *high {
                return out.len();
            }
            if !node.marked.load(Ordering::Acquire) {
                out.push((node.key, node.val.clone().expect("data node has a value")));
            }
            curr = load(node, RIGHT);
        }
    }
}

impl<K, V> Drop for UnsafeCitrusTree<K, V> {
    fn drop(&mut self) {
        let guard = self.collector.pin(0);
        let mut stack = vec![self.root.load(Ordering::Relaxed, &guard)];
        while let Some(node) = stack.pop() {
            if !node.is_null() {
                stack.extend(node.child.iter().map(|c| c.load(Ordering::Relaxed, &guard)));
                // SAFETY: a drop free: reachable nodes are the tree's alone.
                unsafe { drop(Box::from_raw(node.as_raw())) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    type Tree = UnsafeCitrusTree<u64, u64>;

    #[test]
    fn basic_set_semantics() {
        let t = Tree::new(1);
        for k in [5u64, 2, 8, 1, 3, 7, 9] {
            assert!(t.insert(0, k, k));
        }
        assert!(!t.insert(0, 3, 0));
        assert!(t.contains(0, &7));
        assert!(t.remove(0, &5)); // two children
        assert!(t.remove(0, &1)); // leaf
        assert!(!t.contains(0, &5));
        assert_eq!(t.len(0), 5);
        let mut out = Vec::new();
        t.range_query(0, &2, &8, &mut out);
        assert_eq!(
            out.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 3, 7, 8]
        );
    }

    #[test]
    fn matches_btreemap_model_sequentially() {
        let t = Tree::new(1);
        let mut model = BTreeMap::new();
        let mut seed = 2024u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..4000 {
            let k = next() % 512;
            match next() % 3 {
                0 => assert_eq!(t.insert(0, k, k), model.insert(k, k).is_none()),
                1 => assert_eq!(t.remove(0, &k), model.remove(&k).is_some()),
                _ => assert_eq!(t.contains(0, &k), model.contains_key(&k)),
            }
        }
        assert_eq!(t.len(0), model.len());
    }

    #[test]
    fn concurrent_updates_preserve_structure() {
        const THREADS: usize = 4;
        let t = Arc::new(Tree::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut seed = (tid as u64 + 1).wrapping_mul(0xd1342543de82ef95);
                    for _ in 0..2000 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 256;
                        if seed.is_multiple_of(2) {
                            t.insert(tid, k, k);
                        } else {
                            t.remove(tid, &k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        t.range_query(0, &0, &(u64::MAX - 2), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), t.len(0));
    }
}
