//! The bundled lazy linked list (§4).

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use parking_lot::{Mutex, MutexGuard};

use bundle::api::ConcurrentSet;
use bundle::{
    linearize_update, Bundle, Conflict, CursorStats, PrepareCursor, RqContext, ShardTxn, TokenPool,
    TwoPhase, TwoPhaseState, TxnValidateError,
};
use ebr::{Collector, Guard, ReclaimMode};

/// A node of the bundled lazy list (Listing 2 of the paper).
///
/// `next` is the paper's `newestNextPtr`: the link value used by all
/// primitive operations and by the entry phase of range queries. `bundle`
/// records the history of that link for in-range snapshot traversals.
pub struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: Mutex<()>,
    marked: AtomicBool,
    next: AtomicPtr<Node<K, V>>,
    bundle: Bundle<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>) -> *mut Node<K, V> {
        Box::into_raw(Box::new(Node {
            key,
            val,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
            bundle: Bundle::new(),
        }))
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    /// Possibly shared with other structures (see [`RqContext`]); a list
    /// built through [`TwoPhase::new`] owns a private clock, matching the
    /// paper.
    ctx: RqContext,
    collector: Collector,
    /// Warm transaction tokens, one slot per thread id (always parked
    /// empty: no node pointer outlives its transaction here).
    tokens: TokenPool<Self>,
}

unsafe impl<K, V> Send for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}
unsafe impl<K, V> Sync for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}

impl<K, V> BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create a list with an explicit reclamation mode. `ReclaimMode::Leaky`
    /// matches the paper's primary experimental configuration (no memory is
    /// ever freed while the structure is live).
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(max_threads, mode, &RqContext::new(max_threads))
    }

    /// Wait-free traversal to the first node with `key >= target` and its
    /// predecessor, using only the newest pointers.
    fn traverse(&self, target: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        self.traverse_from(self.head, target)
    }

    /// [`Self::traverse`] resuming from `start` instead of the head
    /// sentinel. `start` must be a node (or the head) whose key precedes
    /// `target` and that is reachable under the caller's EBR pin; if it
    /// was concurrently unlinked the walk still lands in the live list
    /// (an unlinked node's forward pointer is never cleared), and any
    /// resulting stale position is caught by the caller's under-lock
    /// validation.
    fn traverse_from(
        &self,
        start: *mut Node<K, V>,
        target: &K,
    ) -> (*mut Node<K, V>, *mut Node<K, V>) {
        let mut pred = start;
        let mut curr = unsafe { &*pred }.next.load(Ordering::Acquire);
        while curr != self.tail && unsafe { &*curr }.key < *target {
            pred = curr;
            curr = unsafe { &*curr }.next.load(Ordering::Acquire);
        }
        (pred, curr)
    }

    fn validate(&self, pred: *mut Node<K, V>, curr: *mut Node<K, V>) -> bool {
        let p = unsafe { &*pred };
        !p.marked.load(Ordering::Acquire) && p.next.load(Ordering::Acquire) == curr
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
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

    fn with_context(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
        let tail = Node::new(K::default(), None);
        let head = Node::new(K::default(), None);
        unsafe {
            (*head).next.store(tail, Ordering::Release);
            // The initial link is timestamped with the initial globalTs (0),
            // mirroring Figure 1's construction.
            (*head).bundle.init(tail, 0);
        }
        BundledLazyList {
            head,
            tail,
            ctx: ctx.clone(),
            collector: Collector::new(max_threads, mode),
            tokens: TokenPool::new(max_threads),
        }
    }

    fn context(&self) -> &RqContext {
        &self.ctx
    }

    fn collector(&self) -> &Collector {
        &self.collector
    }

    fn tokens(&self) -> &TokenPool<Self> {
        &self.tokens
    }

    fn lock_of(node: &Node<K, V>) -> &Mutex<()> {
        &node.lock
    }

    fn entry(node: &Node<K, V>) -> (K, &Option<V>) {
        (node.key, &node.val)
    }

    fn try_collect_at(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        mut visit: impl FnMut(*mut Node<K, V>),
    ) -> Option<()> {
        // Phase 1 (GetFirstNodeInRange, first half): optimistic traversal
        // over the newest pointers up to the node preceding the range.
        let (pred, _) = self.traverse(low);

        // Phase 2: enter the range strictly through bundles.
        let mut node = unsafe { &*pred }.bundle.dereference(ts)?;
        // Skip nodes below the range (possible when nodes were removed
        // after the snapshot was fixed).
        while node != self.tail && unsafe { &*node }.key < *low {
            node = unsafe { &*node }.bundle.dereference(ts)?;
        }
        // Collect the snapshot (GetNext): every hop goes through the
        // bundle, so only nodes belonging to the snapshot are visited.
        while node != self.tail && unsafe { &*node }.key <= *high {
            visit(node);
            node = unsafe { &*node }.bundle.dereference(ts)?;
        }
        Some(())
    }

    fn collect_snapshot_at(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        mut visit: impl FnMut(*mut Node<K, V>),
    ) {
        let mut node = unsafe { &*self.head }
            .bundle
            .dereference(ts)
            .expect("head bundle must satisfy an announced snapshot");
        while node != self.tail && unsafe { &*node }.key < *low {
            node = unsafe { &*node }
                .bundle
                .dereference(ts)
                .expect("snapshot path must stay satisfiable");
        }
        while node != self.tail && unsafe { &*node }.key <= *high {
            visit(node);
            node = unsafe { &*node }
                .bundle
                .dereference(ts)
                .expect("snapshot path must stay satisfiable");
        }
    }

    fn for_each_bundle(&self, mut f: impl FnMut(&Bundle<Node<K, V>>)) {
        let mut curr = self.head;
        while curr != self.tail {
            let node = unsafe { &*curr };
            f(&node.bundle);
            curr = node.next.load(Ordering::Acquire);
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
            hint: ptr::null_mut(),
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
    ) -> Result<(), TxnValidateError> {
        let step = |prev: *mut Node<K, V>, curr: *mut Node<K, V>| {
            let c = unsafe { &*curr };
            let torn = c.marked.load(Ordering::Acquire)
                || unsafe { &*prev }.next.load(Ordering::Acquire) != curr;
            (!torn).then(|| c.next.load(Ordering::Acquire))
        };
        // SAFETY: nodes produced by traverse/step are reachable under the
        // caller's EBR pin; a locked node is never retired.
        unsafe {
            bundle::validate_chain::<Self>(
                core,
                expected,
                high,
                self.tail,
                || self.traverse(low),
                |pred, first| self.validate(pred, first),
                step,
            )
        }
    }

    unsafe fn revert(&self, undo: LazyUndo<K, V>) {
        match undo {
            LazyUndo::Link {
                pred,
                node,
                prev_next,
            } => {
                // Mark the stillborn node so a primitive operation
                // blocked on its lock re-validates and retries.
                (*node).marked.store(true, Ordering::SeqCst);
                (*pred).next.store(prev_next, Ordering::SeqCst);
            }
            LazyUndo::Unlink { pred, curr } => {
                (*curr).marked.store(false, Ordering::SeqCst);
                (*pred).next.store(curr, Ordering::SeqCst);
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// The frontier node to resume from for `target`, if the retained
    /// position is usable: strictly before the target and not unlinked.
    /// (An unmarked node is still reachable — marking happens before
    /// unlinking, under the node's lock.)
    fn resume_point(&self, target: &K) -> Option<*mut Node<K, V>> {
        let h = self.hint;
        if h.is_null() {
            return None;
        }
        let node = unsafe { &*h };
        if !node.marked.load(Ordering::Acquire) && node.key < *target {
            Some(h)
        } else {
            None
        }
    }

    /// Retain `node` as the frontier (the head sentinel degenerates to
    /// "no frontier": resuming from it is a root descent anyway).
    fn retain(&mut self, node: *mut Node<K, V>) {
        self.hint = if node == self.list.head {
            ptr::null_mut()
        } else {
            node
        };
    }

    /// Locate `target`, resuming from the frontier when possible. The
    /// hint is consumed: a retry within one seek (torn validation)
    /// restarts from the head.
    fn locate(
        &mut self,
        target: &K,
        resume: &mut Option<*mut Node<K, V>>,
    ) -> (*mut Node<K, V>, *mut Node<K, V>) {
        match resume.take() {
            Some(start) => {
                self.stats.hinted += 1;
                self.list.traverse_from(start, target)
            }
            None => {
                self.stats.descents += 1;
                self.list.traverse(target)
            }
        }
    }
}

impl<'a, K, V> PrepareCursor<K, V> for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
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
        let mut resume = self.resume_point(&key);
        loop {
            let (pred, curr) = self.locate(&key, &mut resume);
            let txn = &mut self.txn;
            if curr != list.tail && unsafe { &*curr }.key == key {
                // Pin the no-op: hold the present node's lock until
                // commit. A marked node's remove has already linearized
                // (mark and unlink share the remover's critical section,
                // which requires this very lock) — retry and miss it.
                let newly = unsafe { list.txn_lock(txn, curr) }?;
                if unsafe { &*curr }.marked.load(Ordering::Acquire) {
                    if newly {
                        txn.core.unlock_latest(1);
                        continue;
                    }
                    return Err(Conflict);
                }
                txn.staged
                    .record(key, Some(curr as usize), Some(curr as usize));
                self.retain(curr);
                return Ok(false);
            }
            let newly = unsafe { list.txn_lock(txn, pred) }?;
            if !list.validate(pred, curr) {
                if newly {
                    txn.core.unlock_latest(1);
                    continue;
                }
                // A node we already hold locked cannot be invalidated by
                // anyone else; treat the impossible as a conflict so the
                // transaction retries from scratch rather than spinning.
                return Err(Conflict);
            }
            let pred_ref = unsafe { &*pred };
            let node = Node::new(key, Some(value));
            let node_ref = unsafe { &*node };
            // Hold the new node's lock until commit/abort: any primitive
            // operation that would adopt it as a predecessor blocks on the
            // lock instead of spinning on our pending bundle entry (which
            // we might abort) — and cannot link behind a node we may undo.
            let node_guard: MutexGuard<'static, ()> = node_ref.lock.lock();
            txn.core.push_lock(node, node_guard);
            node_ref.next.store(curr, Ordering::Relaxed);
            txn.core.prepare_bundle(&node_ref.bundle, curr);
            txn.core.prepare_bundle(&pred_ref.bundle, node);
            // Eager physical link (the op's linearization effect); commit
            // order is still decided solely by the bundle timestamps.
            pred_ref.next.store(node, Ordering::SeqCst);
            txn.core.add_created(node);
            txn.staged.record(key, None, Some(node as usize));
            txn.undo.push(LazyUndo::Link {
                pred,
                node,
                prev_next: curr,
            });
            self.retain(node);
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
        let mut resume = self.resume_point(key);
        loop {
            let (pred, curr) = self.locate(key, &mut resume);
            let txn = &mut self.txn;
            if curr == list.tail || unsafe { &*curr }.key != *key {
                // Pin the no-op: hold the gap's predecessor until commit.
                let newly = unsafe { list.txn_lock(txn, pred) }?;
                if !list.validate(pred, curr) {
                    if newly {
                        txn.core.unlock_latest(1);
                        continue;
                    }
                    return Err(Conflict);
                }
                txn.staged.record(*key, None, None);
                self.retain(pred);
                return Ok(false);
            }
            let newly_pred = unsafe { list.txn_lock(txn, pred) }?;
            let newly_curr = match unsafe { list.txn_lock(txn, curr) } {
                Ok(n) => n,
                Err(c) => {
                    if newly_pred {
                        txn.core.unlock_latest(1);
                    }
                    return Err(c);
                }
            };
            let pred_ref = unsafe { &*pred };
            let curr_ref = unsafe { &*curr };
            if !list.validate(pred, curr) || curr_ref.marked.load(Ordering::Acquire) {
                txn.core
                    .unlock_latest(usize::from(newly_curr) + usize::from(newly_pred));
                if !newly_pred && !newly_curr {
                    return Err(Conflict);
                }
                continue;
            }
            let next = curr_ref.next.load(Ordering::Acquire);
            txn.core.prepare_bundle(&pred_ref.bundle, next);
            // Eager logical delete + physical unlink.
            curr_ref.marked.store(true, Ordering::SeqCst);
            pred_ref.next.store(next, Ordering::SeqCst);
            txn.core.add_victim(curr);
            txn.staged.record(*key, Some(curr as usize), None);
            txn.undo.push(LazyUndo::Unlink { pred, curr });
            self.retain(pred);
            return Ok(true);
        }
    }

    /// Read `key`'s current value (newest pointers — the transaction's
    /// own eager writes are visible) through the frontier, retaining the
    /// located position as an *unlocked* hint. Takes no locks and stages
    /// nothing; linearizes at the frontier validity check (an unmarked
    /// resume point is still reachable at that instant).
    fn seek_read(&mut self, key: &K) -> Option<V> {
        let mut resume = self.resume_point(key);
        let (pred, curr) = self.locate(key, &mut resume);
        if curr != self.list.tail && unsafe { &*curr }.key == *key {
            let c = unsafe { &*curr };
            if !c.marked.load(Ordering::Acquire) {
                self.retain(curr);
                return c.val.clone();
            }
        }
        self.retain(pred);
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCursor")
            .field("stats", &self.stats)
            .finish()
    }
}

impl<K, V> ConcurrentSet<K, V> for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let guard = self.pin(tid);
        loop {
            let (pred, curr) = self.traverse(&key);
            let pred_ref = unsafe { &*pred };
            let _lock = pred_ref.lock.lock();
            if !self.validate(pred, curr) {
                continue;
            }
            if curr != self.tail && unsafe { &*curr }.key == key {
                return false;
            }
            let node = Node::new(key, Some(value));
            unsafe { &*node }.next.store(curr, Ordering::Relaxed);
            // Bundles affected by an insertion: the new node's own bundle
            // (pointing at its successor) and the predecessor's bundle
            // (pointing at the new node) — Algorithm 4, lines 10-12.
            let node_ref = unsafe { &*node };
            let bundles = [(&node_ref.bundle, curr), (&pred_ref.bundle, node)];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the new node becomes reachable.
                pred_ref.next.store(node, Ordering::SeqCst);
            });
            drop(guard);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        loop {
            let (pred, curr) = self.traverse(key);
            if curr == self.tail || unsafe { &*curr }.key != *key {
                return false;
            }
            let pred_ref = unsafe { &*pred };
            let curr_ref = unsafe { &*curr };
            // Locks are taken in ascending key order (pred.key < curr.key),
            // the same order every other multi-lock operation uses, so the
            // list cannot deadlock.
            let _pred_lock = pred_ref.lock.lock();
            let _curr_lock = curr_ref.lock.lock();
            if !self.validate(pred, curr) || curr_ref.marked.load(Ordering::Acquire) {
                continue;
            }
            let next = curr_ref.next.load(Ordering::Acquire);
            // Only the predecessor's bundle changes: the removed node's
            // bundle keeps describing the physical state just before the
            // removal (§4).
            let bundles = [(&pred_ref.bundle, next)];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the logical delete. The physical
                // unlink shares the critical section (§4).
                curr_ref.marked.store(true, Ordering::SeqCst);
                pred_ref.next.store(next, Ordering::SeqCst);
            });
            // Safety: `curr` is unlinked; EBR defers the free past any
            // operation that may still hold a reference.
            unsafe { guard.retire(curr) };
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        let _guard = self.pin(tid);
        let (_, curr) = self.traverse(key);
        curr != self.tail
            && unsafe { &*curr }.key == *key
            && !unsafe { &*curr }.marked.load(Ordering::Acquire)
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let _guard = self.pin(tid);
        let (_, curr) = self.traverse(key);
        if curr != self.tail
            && unsafe { &*curr }.key == *key
            && !unsafe { &*curr }.marked.load(Ordering::Acquire)
        {
            unsafe { &*curr }.val.clone()
        } else {
            None
        }
    }

    fn len(&self, tid: usize) -> usize {
        let _guard = self.pin(tid);
        let mut n = 0;
        let mut curr = unsafe { &*self.head }.next.load(Ordering::Acquire);
        while curr != self.tail {
            n += 1;
            curr = unsafe { &*curr }.next.load(Ordering::Acquire);
        }
        n
    }
}

impl<K, V> Drop for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn drop(&mut self) {
        // Exclusive access: free every reachable node (retired nodes are
        // freed by the collector's own drop).
        let mut curr = self.head;
        while !curr.is_null() {
            let next = unsafe { &*curr }.next.load(Ordering::Relaxed);
            unsafe { drop(Box::from_raw(curr)) };
            if curr == self.tail {
                break;
            }
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundle::api::RangeQuerySet;
    use std::sync::Arc;

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
    fn txn_conflicts_surface_instead_of_deadlocking() {
        // A primitive writer hammers the same keys a transaction stages;
        // the transaction layer retries on Conflict. This is a smoke test
        // that the bounded try_lock path terminates.
        let l = Arc::new(List::new(3));
        for k in 0..64u64 {
            l.insert(0, k, k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let l = Arc::clone(&l);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    l.remove(0, &(k % 64));
                    l.insert(0, k % 64, k);
                    k += 1;
                }
            })
        };
        for round in 0..300u64 {
            loop {
                let mut cur = l.txn_cursor(l.txn_begin(1));
                let a = cur.seek_prepare_put(100 + (round % 8), round);
                let b = a.and_then(|_| cur.seek_prepare_remove(&(round % 64)));
                let txn = cur.finish();
                match b {
                    Ok(_) => {
                        let ts = l.context().advance(1);
                        l.txn_finalize(txn, ts);
                        break;
                    }
                    Err(Conflict) => {
                        l.txn_abort(txn);
                        std::thread::yield_now();
                    }
                }
            }
            l.remove(1, &(100 + (round % 8)));
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        let mut out = Vec::new();
        l.range_query(2, &0, &200, &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
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
    fn leaky_mode_never_frees_nodes() {
        let l = BundledLazyList::<u64, u64>::with_mode(1, ReclaimMode::Leaky);
        for k in 0..20u64 {
            l.insert(0, k, k);
        }
        for k in 0..20u64 {
            l.remove(0, &k);
        }
        assert_eq!(l.collector().stats().retired(), 20);
        assert_eq!(l.collector().stats().freed(), 0);
    }
}
