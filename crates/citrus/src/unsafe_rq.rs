//! The *Unsafe* Citrus-style BST baseline: same primitive operations as the
//! bundled tree, non-linearizable in-order range scans.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use parking_lot::Mutex;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ebr::{Collector, Guard, ReclaimMode};

use crate::warm::warm_range;
use crate::{LEFT, RIGHT};

struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: Mutex<()>,
    marked: AtomicBool,
    child: [AtomicPtr<Node<K, V>>; 2],
}

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>) -> *mut Node<K, V> {
        Box::into_raw(Box::new(Node {
            key,
            val,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            child: [
                AtomicPtr::new(ptr::null_mut()),
                AtomicPtr::new(ptr::null_mut()),
            ],
        }))
    }
}

/// Unbalanced internal BST with per-node locking and non-linearizable range
/// queries (the paper's `Unsafe` reference for the Citrus tree).
pub struct UnsafeCitrusTree<K, V> {
    root: *mut Node<K, V>,
    collector: Collector,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for UnsafeCitrusTree<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for UnsafeCitrusTree<K, V> {}

impl<K, V> UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create a tree supporting `max_threads` registered threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// Create a tree with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        UnsafeCitrusTree {
            root: Node::new(K::default(), None),
            collector: Collector::new(max_threads, mode),
        }
    }

    /// The structure's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    fn pin(&self, tid: usize) -> Guard<'_> {
        self.collector.pin(tid)
    }

    fn search(&self, key: &K) -> (*mut Node<K, V>, usize, *mut Node<K, V>) {
        let mut pred = self.root;
        let mut dir = LEFT;
        let mut curr = unsafe { &*pred }.child[LEFT].load(Ordering::Acquire);
        while !curr.is_null() {
            let c = unsafe { &*curr };
            if c.key == *key {
                break;
            }
            dir = if *key < c.key { LEFT } else { RIGHT };
            pred = curr;
            curr = c.child[dir].load(Ordering::Acquire);
        }
        (pred, dir, curr)
    }
}

impl<K, V> ConcurrentSet<K, V> for UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let _guard = self.pin(tid);
        loop {
            let (pred, dir, curr) = self.search(&key);
            if !curr.is_null() {
                let c = unsafe { &*curr };
                if !c.marked.load(Ordering::Acquire) {
                    return false;
                }
                continue;
            }
            let pred_ref = unsafe { &*pred };
            let _lock = pred_ref.lock.lock();
            if pred_ref.marked.load(Ordering::Acquire)
                || !pred_ref.child[dir].load(Ordering::Acquire).is_null()
            {
                continue;
            }
            let node = Node::new(key, Some(value));
            pred_ref.child[dir].store(node, Ordering::Release);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        loop {
            let (pred, dir, curr) = self.search(key);
            if curr.is_null() {
                return false;
            }
            let pred_ref = unsafe { &*pred };
            let curr_ref = unsafe { &*curr };
            let pred_lock = pred_ref.lock.lock();
            let curr_lock = match curr_ref.lock.try_lock() {
                Some(g) => g,
                None => {
                    drop(pred_lock);
                    continue;
                }
            };
            if pred_ref.marked.load(Ordering::Acquire)
                || curr_ref.marked.load(Ordering::Acquire)
                || pred_ref.child[dir].load(Ordering::Acquire) != curr
                || curr_ref.key != *key
            {
                continue;
            }
            let left = curr_ref.child[LEFT].load(Ordering::Acquire);
            let right = curr_ref.child[RIGHT].load(Ordering::Acquire);
            if left.is_null() || right.is_null() {
                let repl = if left.is_null() { right } else { left };
                curr_ref.marked.store(true, Ordering::Release);
                pred_ref.child[dir].store(repl, Ordering::Release);
                drop(curr_lock);
                drop(pred_lock);
                unsafe { guard.retire(curr) };
                return true;
            }
            // Two children: replace by a copy of the successor.
            let mut succ_parent = curr;
            let mut succ = right;
            loop {
                let l = unsafe { &*succ }.child[LEFT].load(Ordering::Acquire);
                if l.is_null() {
                    break;
                }
                succ_parent = succ;
                succ = l;
            }
            let succ_ref = unsafe { &*succ };
            let sp_lock = if succ_parent != curr {
                match unsafe { &*succ_parent }.lock.try_lock() {
                    Some(g) => Some(g),
                    None => {
                        drop(curr_lock);
                        drop(pred_lock);
                        continue;
                    }
                }
            } else {
                None
            };
            let succ_lock = match succ_ref.lock.try_lock() {
                Some(g) => g,
                None => {
                    drop(sp_lock);
                    drop(curr_lock);
                    drop(pred_lock);
                    continue;
                }
            };
            let sp_ref = unsafe { &*succ_parent };
            let succ_still_leftmost = if succ_parent == curr {
                curr_ref.child[RIGHT].load(Ordering::Acquire) == succ
            } else {
                sp_ref.child[LEFT].load(Ordering::Acquire) == succ
            };
            if succ_ref.marked.load(Ordering::Acquire)
                || sp_ref.marked.load(Ordering::Acquire)
                || !succ_ref.child[LEFT].load(Ordering::Acquire).is_null()
                || !succ_still_leftmost
            {
                drop(succ_lock);
                drop(sp_lock);
                drop(curr_lock);
                drop(pred_lock);
                continue;
            }
            let succ_right = succ_ref.child[RIGHT].load(Ordering::Acquire);
            let new_node = Node::new(succ_ref.key, succ_ref.val.clone());
            let new_ref = unsafe { &*new_node };
            let new_right = if succ == right { succ_right } else { right };
            new_ref.child[LEFT].store(left, Ordering::Relaxed);
            new_ref.child[RIGHT].store(new_right, Ordering::Relaxed);
            curr_ref.marked.store(true, Ordering::Release);
            succ_ref.marked.store(true, Ordering::Release);
            pred_ref.child[dir].store(new_node, Ordering::Release);
            if succ != right {
                sp_ref.child[LEFT].store(succ_right, Ordering::Release);
            }
            drop(succ_lock);
            drop(sp_lock);
            drop(curr_lock);
            drop(pred_lock);
            unsafe {
                guard.retire(curr);
                guard.retire(succ);
            }
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        let _guard = self.pin(tid);
        let (_, _, curr) = self.search(key);
        !curr.is_null() && !unsafe { &*curr }.marked.load(Ordering::Acquire)
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let _guard = self.pin(tid);
        let (_, _, curr) = self.search(key);
        if !curr.is_null() && !unsafe { &*curr }.marked.load(Ordering::Acquire) {
            unsafe { &*curr }.val.clone()
        } else {
            None
        }
    }

    fn len(&self, tid: usize) -> usize {
        let _guard = self.pin(tid);
        let mut n = 0;
        let mut stack = vec![unsafe { &*self.root }.child[LEFT].load(Ordering::Acquire)];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            let node = unsafe { &*p };
            n += 1;
            stack.push(node.child[LEFT].load(Ordering::Acquire));
            stack.push(node.child[RIGHT].load(Ordering::Acquire));
        }
        n
    }
}

impl<K, V> RangeQuerySet<K, V> for UnsafeCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Non-linearizable in-order walk over the current pointers — the
    /// traversal of the bundled tree's snapshot walk minus the bundles,
    /// behind the same warm pass, so the two differ by exactly what
    /// bundling costs.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        let _guard = self.pin(tid);
        out.clear();
        // Same ancestor-stack capacity as the bundled tree's walk.
        let mut stack = Vec::with_capacity(64);
        let mut curr = unsafe { &*self.root }.child[LEFT].load(Ordering::Acquire);
        warm_range(curr, low, high, |p| {
            // SAFETY: pinned above, so every node reached over child
            // pointers stays allocated, as in `Self::search`.
            let n = unsafe { &*p };
            (
                n.key,
                n.child[LEFT].load(Ordering::Acquire),
                n.child[RIGHT].load(Ordering::Acquire),
            )
        });
        loop {
            while !curr.is_null() {
                let node = unsafe { &*curr };
                curr = if node.key < *low {
                    node.child[RIGHT].load(Ordering::Acquire)
                } else {
                    stack.push(curr);
                    node.child[LEFT].load(Ordering::Acquire)
                };
            }
            let Some(p) = stack.pop() else {
                return out.len();
            };
            let node = unsafe { &*p };
            if node.key > *high {
                return out.len();
            }
            if !node.marked.load(Ordering::Acquire) {
                out.push((node.key, node.val.clone().expect("data node has a value")));
            }
            curr = node.child[RIGHT].load(Ordering::Acquire);
        }
    }
}

impl<K, V> Drop for UnsafeCitrusTree<K, V> {
    fn drop(&mut self) {
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            let node = unsafe { &*p };
            stack.push(node.child[LEFT].load(Ordering::Relaxed));
            stack.push(node.child[RIGHT].load(Ordering::Relaxed));
            unsafe { drop(Box::from_raw(p)) };
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
