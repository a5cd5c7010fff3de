//! The bundled lazy linked list (§4).

use std::sync::atomic::{AtomicBool, Ordering};

use bundle::api::ConcurrentSet;
use bundle::{
    linearize_update, Bundle, BundledNode, Conflict, CursorStats, NodeLock, PrepareCursor,
    RqContext, ShardTxn, TokenPool, TwoPhase, TwoPhaseState, TxnValidateError,
};
use ebr::{Guard, Link, ReclaimMode, Shared};

/// A node of the bundled lazy list (Listing 2 of the paper).
///
/// `next` is the paper's `newestNextPtr`: the link value used by all
/// primitive operations and by the entry phase of range queries. `bundle`
/// records the history of that link for in-range snapshot traversals.
pub struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: NodeLock,
    marked: AtomicBool,
    next: Link<Node<K, V>>,
    bundle: Bundle<Node<K, V>>,
}

impl<K, V> BundledNode for Node<K, V> {
    fn lock(&self) -> &NodeLock {
        &self.lock
    }

    fn bundles(&self) -> &[Bundle<Self>] {
        std::slice::from_ref(&self.bundle)
    }
}

/// A node loaded under a guard that lives for `'g`.
type NodePtr<'g, K, V> = Shared<'g, Node<K, V>>;

/// A predecessor and its successor.
type Window<'g, K, V> = (NodePtr<'g, K, V>, NodePtr<'g, K, V>);

impl<K, V> Node<K, V> {
    /// A node linked to `next`, for [`Shared::boxed`] to publish.
    fn new(key: K, val: Option<V>, next: NodePtr<'_, K, V>) -> Self {
        Node {
            key,
            val,
            lock: NodeLock::default(),
            marked: AtomicBool::new(false),
            next: Link::new(next),
            bundle: Bundle::new(),
        }
    }
}

/// Lazy sorted linked list with bundled references and linearizable range
/// queries.
///
/// * `insert` / `remove`: fine-grained locking with optimistic traversal and
///   post-lock validation, exactly as in the original lazy list; the only
///   addition is the `LinearizeUpdateOperation` call that maintains the
///   bundles (Algorithm 4).
/// * `contains` / `get`: wait-free, never touch bundles.
/// * `range_query`: linearized at its start, traverses the minimal number of
///   nodes in the range through bundle dereferences (Algorithm 3).
///
/// Keys are `Copy + Ord + Default` (the `Default` value is only used for the
/// two sentinel nodes and never compared); values are `Clone`.
pub struct BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The sentinels; set once by the constructor.
    head: Link<Node<K, V>>,
    tail: Link<Node<K, V>>,
    /// Possibly shared with other structures (see [`RqContext`]); a list
    /// built through [`TwoPhase::new`] owns a private clock, matching the
    /// paper.
    ctx: RqContext,
    /// Warm transaction tokens, one slot per thread id (always parked
    /// empty: no node pointer outlives its transaction here).
    tokens: TokenPool<Self>,
}

impl<K, V> BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a list with an explicit reclamation mode. `ReclaimMode::Leaky`
    /// matches the paper's primary experimental configuration (no memory is
    /// ever freed while the structure is live).
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(&RqContext::with_mode(max_threads, mode))
    }

    fn head<'g>(&self, guard: &'g Guard<'_>) -> NodePtr<'g, K, V> {
        self.head.load(Ordering::Relaxed, guard)
    }

    fn tail<'g>(&self, guard: &'g Guard<'_>) -> NodePtr<'g, K, V> {
        self.tail.load(Ordering::Relaxed, guard)
    }

    /// Wait-free traversal to the first node with `key >= target` and its
    /// predecessor, using only the newest pointers.
    fn traverse<'g>(&self, target: &K, guard: &'g Guard<'_>) -> Window<'g, K, V> {
        self.traverse_from(self.head(guard), target, guard)
    }

    /// [`Self::traverse`] resuming from `start` instead of the head
    /// sentinel. `start` must be a node (or the head) whose key precedes
    /// `target`; if it was concurrently unlinked the walk still lands in the
    /// live list (an unlinked node's forward pointer is never cleared), and
    /// any resulting stale position is caught by the caller's under-lock
    /// validation.
    fn traverse_from<'g>(
        &self,
        start: NodePtr<'g, K, V>,
        target: &K,
        guard: &'g Guard<'_>,
    ) -> Window<'g, K, V> {
        let tail = self.tail(guard);
        let mut pred = start;
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

    /// [`ConcurrentSet::insert`], running `linked` once the new node is
    /// reachable but before its bundles are final (the window in which a
    /// token must not build on it; tests hold it open through `linked`).
    fn insert_then(&self, tid: usize, key: K, value: V, linked: impl FnOnce()) -> bool {
        let guard = self.pin(tid);
        let tail = self.tail(&guard);
        loop {
            let (pred, curr) = self.traverse(&key, &guard);
            let _lock = pred.lock.lock(tid);
            if !self.validate(pred, curr, &guard) {
                continue;
            }
            if curr != tail && curr.key == key {
                return false;
            }
            let node = Shared::boxed(Node::new(key, Some(value), curr), &guard);
            // Locked before it is reachable, as every prepare needs (the
            // `TwoPhase` lock contract), and until its bundles are final.
            let _node_lock = node.lock.lock(tid);
            // Bundles affected by an insertion: the new node's own bundle
            // (pointing at its successor) and the predecessor's bundle
            // (pointing at the new node) — Algorithm 4, lines 10-12.
            let bundles = [(&node.bundle, curr), (&pred.bundle, node)];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the new node becomes reachable.
                pred.next.store(node, Ordering::SeqCst);
                linked();
            });
            return true;
        }
    }
}

/// One eager structural change of a staged write (see [`TwoPhase::revert`]).
pub enum LazyUndo<K, V> {
    /// A staged insert physically linked `node` after `pred` (whose next
    /// previously was `prev_next`).
    Link {
        pred: *mut Node<K, V>,
        node: *mut Node<K, V>,
        prev_next: *mut Node<K, V>,
    },
    /// A staged remove marked and unlinked `curr` (previously
    /// `pred.next`).
    Unlink {
        pred: *mut Node<K, V>,
        curr: *mut Node<K, V>,
    },
}

impl<K, V> TwoPhase for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Node = Node<K, V>;
    type Undo = LazyUndo<K, V>;
    type Scratch = ();
    type Cursor<'a>
        = ShardCursor<'a, K, V>
    where
        Self: 'a;

    fn with_context(ctx: &RqContext) -> Self {
        let (head, tail) = ctx.collector().pin_exclusive(|guard| {
            let tail = Shared::boxed(Node::new(K::default(), None, Shared::null()), guard);
            let head = Shared::boxed(Node::new(K::default(), None, tail), guard);
            // The initial link is timestamped with the initial globalTs (0),
            // mirroring Figure 1's construction.
            head.bundle.init(tail, 0);
            (Link::new(head), Link::new(tail))
        });
        BundledLazyList {
            head,
            tail,
            ctx: ctx.clone(),
            tokens: TokenPool::new(ctx.max_threads()),
        }
    }

    fn context(&self) -> &RqContext {
        &self.ctx
    }

    fn tokens(&self) -> &TokenPool<Self> {
        &self.tokens
    }

    fn entry(node: &Node<K, V>) -> (K, &Option<V>) {
        (node.key, &node.val)
    }

    fn try_collect_at<'g>(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        guard: &'g Guard<'_>,
        visit: impl FnMut(NodePtr<'g, K, V>),
    ) -> Option<()> {
        // Phase 1 (GetFirstNodeInRange, first half): optimistic traversal
        // over the newest pointers up to the node preceding the range;
        // phase 2 enters and collects the range strictly through bundles.
        let (pred, _) = self.traverse(low, guard);
        let hop = |n: NodePtr<'g, K, V>| n.bundle.dereference(ts, guard);
        bundle::walk_chain_at::<Self>(pred, self.tail(guard), low, high, hop, visit)
    }

    fn collect_snapshot_at<'g>(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        guard: &'g Guard<'_>,
        visit: impl FnMut(NodePtr<'g, K, V>),
    ) {
        let hop = |n: NodePtr<'g, K, V>| n.bundle.dereference(ts, guard);
        bundle::walk_chain_at::<Self>(self.head(guard), self.tail(guard), low, high, hop, visit)
            .expect("a snapshot path from the head must stay satisfiable");
    }

    fn for_each_bundle(&self, guard: &Guard<'_>, mut f: impl FnMut(&Bundle<Node<K, V>>)) {
        let (mut curr, tail) = (self.head(guard), self.tail(guard));
        while curr != tail {
            f(&curr.bundle);
            curr = curr.next.load(Ordering::Acquire, guard);
        }
    }

    /// The cursor retains the last located position — a node the
    /// transaction touched (and usually holds locked) — and resumes the
    /// next seek from it when the target key lies beyond it, so a
    /// key-sorted batch pays one head walk plus short forward hops instead
    /// of a full traversal per op.
    fn txn_cursor(&self, txn: ShardTxn<Self>) -> ShardCursor<'_, K, V> {
        // The cursor-lifetime pin is what keeps every retained frontier
        // pointer allocated between seeks (pins are reentrant, so the
        // prepare internals nest freely).
        let guard = self.pin(txn.core.tid());
        ShardCursor {
            list: self,
            txn,
            _guard: guard,
            hint: std::ptr::null_mut(),
            stats: CursorStats::default(),
        }
    }

    /// Re-walks `low..=high` over the newest pointers, locking the
    /// range's gap predecessor and every in-range node. Phantom-safe: an
    /// insert into any in-range gap needs one of the locked nodes as
    /// predecessor, and a remove needs its victim's lock — both block
    /// until the transaction finishes, exactly like the no-op outcome
    /// pinning of the write path.
    fn validate_walk(
        &self,
        core: &mut TwoPhaseState<Node<K, V>>,
        _scratch: &mut (),
        expected: &[(K, usize)],
        low: &K,
        high: &K,
        guard: &Guard<'_>,
    ) -> Result<(), TxnValidateError> {
        let step = |prev: NodePtr<'_, K, V>, curr: NodePtr<'_, K, V>| {
            let torn = curr.marked.load(Ordering::Acquire)
                || prev.next.load(Ordering::Acquire, guard) != curr;
            (!torn).then(|| curr.next.load(Ordering::Acquire, guard))
        };
        bundle::validate_chain::<Self>(
            core,
            expected,
            high,
            self.tail(guard),
            || self.traverse(low, guard),
            |pred, first| self.validate(pred, first, guard),
            step,
        )
    }

    unsafe fn revert(&self, undo: LazyUndo<K, V>, guard: &Guard<'_>) {
        let node = |p| Shared::from_raw(p, guard);
        match undo {
            LazyUndo::Link {
                pred,
                node: created,
                prev_next,
            } => {
                // Mark the stillborn node so a primitive operation
                // blocked on its lock re-validates and retries.
                node(created).marked.store(true, Ordering::SeqCst);
                node(pred).next.store(node(prev_next), Ordering::SeqCst);
            }
            LazyUndo::Unlink { pred, curr } => {
                node(curr).marked.store(false, Ordering::SeqCst);
                node(pred).next.store(node(curr), Ordering::SeqCst);
            }
        }
    }
}

/// A prepare cursor over one [`ShardTxn`] (see
/// [`TwoPhase::txn_cursor`] and [`bundle::PrepareCursor`]).
///
/// The retained frontier is a single node — the last position a seek
/// located (the staged node, the no-op pin, or the gap predecessor).
/// After a staged write the frontier node is one the transaction holds
/// locked, so it can neither move nor die; after a [`Self::seek_read`]
/// it is an unlocked *hint*, re-checked (unmarked) before each resume
/// and backstopped by the under-lock validation every prepare performs.
/// A seek for a key at or behind the frontier falls back to a head walk.
pub struct ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    list: &'a BundledLazyList<K, V>,
    txn: ShardTxn<BundledLazyList<K, V>>,
    /// Keeps every retained pointer allocated between seeks.
    _guard: Guard<'a>,
    /// Last located position (never the head sentinel — the head resume
    /// is exactly a root descent; null = no frontier yet).
    hint: *mut Node<K, V>,
    stats: CursorStats,
}

impl<'a, K, V> ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The frontier node to resume from for `target`, if the retained
    /// position is usable: strictly before the target and not unlinked.
    /// (An unmarked node is still reachable — marking happens before
    /// unlinking, under the node's lock.)
    fn resume_point<'g>(&self, target: &K, guard: &'g Guard<'_>) -> Option<NodePtr<'g, K, V>> {
        // SAFETY: `from_raw` of a frontier: loaded by an earlier seek, under
        // the cursor's own pin, which `guard` nests in.
        let h = unsafe { Shared::from_raw(self.hint, guard) };
        (!h.is_null() && !h.marked.load(Ordering::Acquire) && h.key < *target).then_some(h)
    }

    /// Retain `node` as the frontier (the head sentinel degenerates to
    /// "no frontier": resuming from it is a root descent anyway).
    fn retain(&mut self, node: NodePtr<'_, K, V>, guard: &Guard<'_>) {
        let head = node == self.list.head(guard);
        self.hint = if head {
            std::ptr::null_mut()
        } else {
            node.as_raw()
        };
    }

    /// Locate `target`, resuming from the frontier when possible. The
    /// hint is consumed: a retry within one seek (torn validation)
    /// restarts from the head.
    fn locate<'g>(
        &mut self,
        target: &K,
        resume: &mut Option<NodePtr<'g, K, V>>,
        guard: &'g Guard<'_>,
    ) -> Window<'g, K, V> {
        match resume.take() {
            Some(start) => {
                self.stats.hinted += 1;
                self.list.traverse_from(start, target, guard)
            }
            None => {
                self.stats.descents += 1;
                self.list.traverse(target, guard)
            }
        }
    }
}

impl<'a, K, V> PrepareCursor<K, V> for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Txn = ShardTxn<BundledLazyList<K, V>>;

    /// Stage an insert at the sought position: the structural change is
    /// applied eagerly (so later keys of the same transaction observe it)
    /// but every affected bundle entry stays *pending* until the
    /// transaction's single commit timestamp finalizes it — snapshot
    /// reads therefore see either all of the transaction's writes or
    /// none. `Ok(false)` = key already present (the present node stays
    /// locked, pinning the no-op outcome until commit).
    fn seek_prepare_put(&mut self, key: K, value: V) -> Result<bool, Conflict> {
        let list = self.list;
        let guard = list.pin(self.txn.core.tid());
        let tail = list.tail(&guard);
        let mut resume = self.resume_point(&key, &guard);
        loop {
            let (pred, curr) = self.locate(&key, &mut resume, &guard);
            let txn = &mut self.txn;
            if curr != tail && curr.key == key {
                // Pin the no-op: hold the present node's lock until
                // commit. A marked node's remove has already linearized
                // (mark and unlink share the remover's critical section,
                // which requires this very lock) — retry and miss it.
                let sp = txn.core.savepoint();
                txn.core.lock(curr)?;
                if curr.marked.load(Ordering::Acquire) {
                    txn.core.retry_since(sp)?;
                    continue;
                }
                let at = Some(curr.as_raw() as usize);
                txn.staged.record(key, at, at);
                self.retain(curr, &guard);
                return Ok(false);
            }
            let sp = txn.core.savepoint();
            txn.core.lock(pred)?;
            if !list.validate(pred, curr, &guard) {
                txn.core.retry_since(sp)?;
                continue;
            }
            let node = Shared::boxed(Node::new(key, Some(value), curr), &guard);
            // Locked until commit/abort, so nobody builds on a node we may
            // roll back (uncontended: nobody can reach it yet).
            txn.core.lock(node)?;
            txn.core.prepare_bundle(node, &node.bundle, curr);
            txn.core.prepare_bundle(pred, &pred.bundle, node);
            // Eager physical link (the op's linearization effect); commit
            // order is still decided solely by the bundle timestamps.
            pred.next.store(node, Ordering::SeqCst);
            txn.core.add_created(node);
            txn.staged.record(key, None, Some(node.as_raw() as usize));
            txn.undo.push(LazyUndo::Link {
                pred: pred.as_raw(),
                node: node.as_raw(),
                prev_next: curr.as_raw(),
            });
            self.retain(node, &guard);
            return Ok(true);
        }
    }

    /// Stage a remove at the sought position. `Ok(false)` = key absent;
    /// the gap (predecessor whose successor skips past `key`) stays
    /// locked by the transaction, so the no-op outcome still holds at the
    /// commit timestamp (nobody can insert the key before the transaction
    /// finishes).
    fn seek_prepare_remove(&mut self, key: &K) -> Result<bool, Conflict> {
        let list = self.list;
        let guard = list.pin(self.txn.core.tid());
        let tail = list.tail(&guard);
        let mut resume = self.resume_point(key, &guard);
        loop {
            let (pred, curr) = self.locate(key, &mut resume, &guard);
            let txn = &mut self.txn;
            if curr == tail || curr.key != *key {
                // Pin the no-op: hold the gap's predecessor until commit.
                let sp = txn.core.savepoint();
                txn.core.lock(pred)?;
                if !list.validate(pred, curr, &guard) {
                    txn.core.retry_since(sp)?;
                    continue;
                }
                txn.staged.record(*key, None, None);
                self.retain(pred, &guard);
                return Ok(false);
            }
            let sp = txn.core.savepoint();
            txn.core.lock(pred)?;
            txn.core.lock(curr)?;
            if !list.validate(pred, curr, &guard) || curr.marked.load(Ordering::Acquire) {
                txn.core.retry_since(sp)?;
                continue;
            }
            let next = curr.next.load(Ordering::Acquire, &guard);
            txn.core.prepare_bundle(pred, &pred.bundle, next);
            // Eager logical delete + physical unlink.
            curr.marked.store(true, Ordering::SeqCst);
            pred.next.store(next, Ordering::SeqCst);
            txn.core.add_victim(curr);
            txn.staged.record(*key, Some(curr.as_raw() as usize), None);
            txn.undo.push(LazyUndo::Unlink {
                pred: pred.as_raw(),
                curr: curr.as_raw(),
            });
            self.retain(pred, &guard);
            return Ok(true);
        }
    }

    /// Read `key`'s current value (newest pointers — the transaction's
    /// own eager writes are visible) through the frontier, retaining the
    /// located position as an *unlocked* hint. Takes no locks and stages
    /// nothing; linearizes at the frontier validity check (an unmarked
    /// resume point is still reachable at that instant).
    fn seek_read(&mut self, key: &K) -> Option<V> {
        let guard = self.list.pin(self.txn.core.tid());
        let mut resume = self.resume_point(key, &guard);
        let (pred, curr) = self.locate(key, &mut resume, &guard);
        if curr != self.list.tail(&guard)
            && curr.key == *key
            && !curr.marked.load(Ordering::Acquire)
        {
            self.retain(curr, &guard);
            return curr.val.clone();
        }
        self.retain(pred, &guard);
        None
    }

    /// Hinted-resume vs root-descent counters accumulated so far.
    fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Give the transaction token back (dropping the frontier and the
    /// cursor's EBR pin); consume it with [`TwoPhase::txn_finalize`] or
    /// [`TwoPhase::txn_abort`].
    fn finish(self) -> ShardTxn<BundledLazyList<K, V>> {
        self.txn
    }
}

impl<'a, K, V> std::fmt::Debug for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCursor")
            .field("stats", &self.stats)
            .finish()
    }
}

impl<K, V> ConcurrentSet<K, V> for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        self.insert_then(tid, key, value, || ())
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let tail = self.tail(&guard);
        loop {
            let (pred, curr) = self.traverse(key, &guard);
            if curr == tail || curr.key != *key {
                return false;
            }
            // Locks are taken in ascending key order (pred.key < curr.key),
            // the same order every other multi-lock operation uses, so the
            // list cannot deadlock.
            let _pred_lock = pred.lock.lock(tid);
            let _curr_lock = curr.lock.lock(tid);
            if !self.validate(pred, curr, &guard) || curr.marked.load(Ordering::Acquire) {
                continue;
            }
            let next = curr.next.load(Ordering::Acquire, &guard);
            // Only the predecessor's bundle changes: the removed node's
            // bundle keeps describing the physical state just before the
            // removal (§4).
            let bundles = [(&pred.bundle, next)];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the logical delete. The physical
                // unlink shares the critical section (§4).
                curr.marked.store(true, Ordering::SeqCst);
                pred.next.store(next, Ordering::SeqCst);
            });
            // SAFETY: `retire`: `curr` is unlinked, and the one bundle entry
            // still pointing at it is older than the removal just stamped.
            unsafe { guard.retire(curr.as_raw()) };
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let (_, curr) = self.traverse(key, &guard);
        curr != self.tail(&guard) && curr.key == *key && !curr.marked.load(Ordering::Acquire)
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let guard = self.pin(tid);
        let (_, curr) = self.traverse(key, &guard);
        if curr != self.tail(&guard) && curr.key == *key && !curr.marked.load(Ordering::Acquire) {
            curr.val.clone()
        } else {
            None
        }
    }

    fn len(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let tail = self.tail(&guard);
        let mut n = 0;
        let mut curr = self.head(&guard).next.load(Ordering::Acquire, &guard);
        while curr != tail {
            n += 1;
            curr = curr.next.load(Ordering::Acquire, &guard);
        }
        n
    }
}

impl<K, V> Drop for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Exclusive access: free every reachable node (retired nodes are
        // freed by the collector, when their grace period ends or it drops).
        self.ctx.collector().pin_exclusive(|guard| {
            let mut curr = self.head(guard);
            while !curr.is_null() {
                let next = curr.next.load(Ordering::Relaxed, guard);
                // SAFETY: a drop free: reachable nodes are the list's alone.
                unsafe { drop(Box::from_raw(curr.as_raw())) };
                curr = next;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundle::api::RangeQuerySet;
    use std::sync::mpsc;

    type List = BundledLazyList<u64, u64>;

    #[test]
    fn empty_list_behaviour() {
        let l = List::new(1);
        assert!(!l.contains(0, &5));
        assert_eq!(l.get(0, &5), None);
        assert!(!l.remove(0, &5));
        assert_eq!(l.len(0), 0);
        assert!(l.is_empty(0));
        let mut out = Vec::new();
        assert_eq!(l.range_query(0, &0, &100, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn figure1_scenario_snapshots() {
        // Reproduces the Figure 1 example: insert(20), insert(30),
        // insert(10), remove(20) and checks what each snapshot would see.
        let l = List::new(1);
        l.insert(0, 20, 20);
        l.insert(0, 30, 30);
        l.insert(0, 10, 10);
        l.remove(0, &20);
        assert_eq!(l.context().read(), 4);
        let mut out = Vec::new();
        // A range query started now (ts=4) sees {10, 30}.
        l.range_query(0, &0, &100, &mut out);
        assert_eq!(
            out.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 30]
        );
        // The historical path for ts=3 ({10,20,30}) is still present in the
        // bundles (dereference on the head bundle at ts=0 sees the tail).
        assert!(l.bundle_entries(0) > 4);
    }

    #[test]
    fn space_overhead_is_two_entries_per_insert() {
        // §4 "Space overhead": n inserts (no removals) produce 2n bundle
        // entries plus the initial sentinel entry.
        let l = List::new(1);
        let n = 100u64;
        for k in 0..n {
            l.insert(0, k, k);
        }
        assert_eq!(l.bundle_entries(0), (2 * n + 1) as usize);
    }

    #[test]
    fn cursor_read_hint_invalidation_falls_back_to_descent() {
        // A seek_read retains an *unlocked* frontier hint; a foreign
        // remove of that very node must force the next seek back onto a
        // head walk — and the outcome must still be exact.
        let l = List::new(2);
        for k in [10u64, 20, 30, 40] {
            l.insert(0, k, k);
        }
        let mut cur = l.txn_cursor(l.txn_begin(1));
        assert_eq!(cur.seek_read(&20), Some(20));
        let after_read = cur.stats();
        // Foreign primitive remove of the retained node (the cursor holds
        // no locks yet, so the primitive cannot deadlock against it).
        assert!(l.remove(0, &20));
        // Forward seek: the hint (node 20) is marked, so this must be a
        // fallback descent, and it must see the post-remove list.
        assert_eq!(cur.seek_prepare_put(25, 250), Ok(true));
        let after_put = cur.stats();
        assert_eq!(
            after_put.descents,
            after_read.descents + 1,
            "a marked frontier hint must force a root descent"
        );
        // Backward seek: also a descent.
        assert_eq!(cur.seek_prepare_remove(&10), Ok(true));
        assert_eq!(cur.stats().descents, after_put.descents + 1);
        let ts = l.context().advance(1);
        l.txn_finalize(cur.finish(), ts);
        let mut out = Vec::new();
        l.range_query(0, &0, &100, &mut out);
        assert_eq!(out, vec![(25, 250), (30, 30), (40, 40)]);
    }

    #[test]
    fn a_token_keeps_off_a_primitive_insert_until_it_is_final() {
        // An insert of 10 held between link and finalize: a token putting
        // 11 behind the new node conflicts on its lock instead of
        // restaging the insert's pending entry with an uncommitted node.
        let s = &List::new(2);
        let ((linked, paused), (release, go)) = (mpsc::channel(), mpsc::channel::<()>());
        std::thread::scope(|scope| {
            let _release = release; // dropped however this closure ends
            scope.spawn(move || {
                s.insert_then(0, 10, 10, || {
                    linked.send(()).unwrap();
                    let _ = go.recv();
                })
            });
            paused.recv().unwrap();
            let mut cur = s.txn_cursor(s.txn_begin(1));
            assert_eq!(cur.seek_prepare_put(11, 11), Err(Conflict));
            s.txn_abort(cur.finish());
        });
        let mut out = Vec::new();
        s.range_query(1, &0, &100, &mut out);
        assert_eq!(out, [(10, 10)]);
    }

    #[test]
    fn leaky_mode_never_frees_nodes() {
        let l = BundledLazyList::<u64, u64>::with_mode(1, ReclaimMode::Leaky);
        for k in 0..20u64 {
            l.insert(0, k, k);
        }
        for k in 0..20u64 {
            l.remove(0, &k);
        }
        assert_eq!(l.context().collector().stats().retired(), 20);
        assert_eq!(l.context().collector().stats().freed(), 0);
    }
}
