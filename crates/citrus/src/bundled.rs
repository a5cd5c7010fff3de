//! The bundled Citrus-style binary search tree (§6).

use std::mem::size_of;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};

use bundle::api::ConcurrentSet;
use bundle::{
    linearize_update, prefetch_read, Bundle, Conflict, CursorStats, InlineStack, PrepareCursor,
    RqContext, ShardTxn, TokenPool, TwoPhase, TwoPhaseState, TxnValidateError,
};
use ebr::{Collector, Guard, ReclaimMode};

use crate::warm::warm_range;
use crate::{LEFT, RIGHT};

/// A tree node (private fields; public only as [`TwoPhase::Node`]).
pub struct Node<K, V> {
    key: K,
    val: Option<V>,
    lock: Mutex<()>,
    marked: AtomicBool,
    child: [AtomicPtr<Node<K, V>>; 2],
    /// One bundled reference per child link (§6: "replacing each child link
    /// of the search tree with a bundled reference").
    bundle: [Bundle<Node<K, V>>; 2],
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
            bundle: [Bundle::new(), Bundle::new()],
        }))
    }
}

/// One ancestor on a cursor's retained spine: a node on the root path
/// plus the open key interval of the subtree slot it occupies (`None` =
/// unbounded). Any key strictly inside the interval has a search path
/// running through this node. (Private fields; public only inside
/// [`TwoPhase::Scratch`].)
pub struct SpineEntry<K, V> {
    node: *mut Node<K, V>,
    low: Option<K>,
    high: Option<K>,
}

/// A located position: `pred.child[dir]` is the slot holding `curr`
/// (null = key absent), `low`/`high` the slot's open key interval, and
/// `resumed` whether the search resumed from a non-root spine ancestor.
struct Located<K, V> {
    pred: *mut Node<K, V>,
    dir: usize,
    curr: *mut Node<K, V>,
    low: Option<K>,
    high: Option<K>,
    resumed: bool,
}

/// RAII token of one in-flight gated search (see
/// [`BundledCitrusTree::enter_search`]): drop makes the gate even again
/// (search finished). The release store pairs with the waiter's acquire
/// loop so everything the search did happens-before the waiter's unlink.
struct SearchGate<'a>(&'a AtomicU64);

impl Drop for SearchGate<'_> {
    fn drop(&mut self) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Release,
        );
    }
}

/// Unbalanced internal BST (Citrus-style) with bundled child references and
/// linearizable range queries.
///
/// The root is a sentinel whose key is never compared: the entire tree hangs
/// off its left child, which plays the role of Citrus' infinite-key root.
pub struct BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    root: *mut Node<K, V>,
    /// Possibly shared with other structures (see [`RqContext`]); a tree
    /// built through [`TwoPhase::new`] owns a private clock, matching the
    /// paper.
    ctx: RqContext,
    collector: Collector,
    /// Warm transaction tokens, one slot per thread id (always parked
    /// empty: no node pointer outlives its transaction here).
    tokens: TokenPool<Self>,
    /// **Revert epoch**: bumped by every [`TwoPhase::revert`] that puts an
    /// unlinked node back. That is the one structural change that
    /// *narrows* the key interval of a slot which itself stays as it is:
    /// while the victim of a staged remove is spliced out, the empty child
    /// slot of its gap pin (`txn_pin_gap`) covers the victim's whole gap,
    /// and once the abort has put the victim back it covers only the part
    /// on its own side of the victim again — and likewise a subtree's
    /// extreme node stops being the extreme when the old one returns. A
    /// search that landed there in between holds a position that is still
    /// unmarked and still empty, yet no longer the key's; linking at it
    /// would break the search order. Marks cannot tell — nothing at the
    /// slot was removed — so every update samples this counter *before* it
    /// searches and checks it again under its locks, beside the mark
    /// checks ([`Self::shape_epoch`]). That suffices because every such
    /// stale position needs the lock of the gap pin, which the aborting
    /// token holds until after the bump: a validation that can run at all
    /// runs after it.
    reverts: CachePadded<AtomicU64>,
    /// Per-thread **search gates** (seqlock-style announcements: odd =
    /// a newest-pointer search is in flight, even = idle), standing in
    /// for the RCU read-side critical sections of the original Citrus.
    /// Every [`Self::search`] / [`Self::search_spined`] descent runs
    /// inside its thread's gate; a two-children remove calls
    /// [`Self::wait_for_searchers`] — one grace period — before the
    /// relocation's `sp.child` unlink, so no search that started on the
    /// old path can observe the successor's slot emptied mid-descent
    /// and miss the (still logically present) relocated key.
    searchers: Box<[CachePadded<AtomicU64>]>,
}

unsafe impl<K, V> Send for BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}
unsafe impl<K, V> Sync for BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}

impl<K, V> BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create a tree with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(max_threads, mode, &RqContext::new(max_threads))
    }

    /// The revert epoch (see the `reverts` field): sample it before a
    /// search whose position will be linked at, compare under the locks.
    #[inline]
    fn shape_epoch(&self) -> u64 {
        self.reverts.load(Ordering::Acquire)
    }

    /// Enter `tid`'s search gate (odd = in flight). The `SeqCst` fence
    /// pairs with the one in [`Self::wait_for_searchers`]: by the
    /// store-buffering theorem, either the waiter observes this gate odd
    /// (and waits the search out), or this search's subsequent pointer
    /// loads observe everything the waiter published before its fence —
    /// in particular the relocation's `pred.child` link, so the search
    /// finds the relocated key at its new node and the pending unlink
    /// cannot make it miss.
    #[inline]
    fn enter_search(&self, tid: usize) -> SearchGate<'_> {
        let slot = &**self
            .searchers
            .get(tid)
            .expect("tid out of range for this tree");
        slot.store(
            slot.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        fence(Ordering::SeqCst);
        SearchGate(slot)
    }

    /// One grace period over the search gates: returns only when every
    /// *other* thread's search that was in flight at the call has
    /// finished (its gate value changed — the search exited, whether or
    /// not a new one started; a later search is safe, see
    /// [`Self::enter_search`]). Searches are wait-free and take no
    /// locks, so this terminates even though the caller holds node
    /// locks — which is exactly why the gates exist instead of waiting
    /// on the EBR epoch (pins are held across blocking lock
    /// acquisitions and for whole snapshot lifetimes; waiting on them
    /// under locks would deadlock).
    fn wait_for_searchers(&self, self_tid: usize) {
        fence(Ordering::SeqCst);
        for (tid, slot) in self.searchers.iter().enumerate() {
            if tid == self_tid {
                continue;
            }
            let seen = slot.load(Ordering::Acquire);
            if seen & 1 == 1 {
                while slot.load(Ordering::Acquire) == seen {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Wait-free search: returns `(pred, dir, curr)` where `curr` is the
    /// node holding `key` (or null) and `pred.child[dir]` was the link
    /// followed to reach it. The sentinel root's key is never compared.
    /// (Allocation-free fast path for the primitive operations; cursors
    /// use [`Self::search_spined`], which additionally maintains the
    /// resume spine.)
    ///
    /// The whole descent runs inside `tid`'s search gate — the RCU
    /// read-side critical section a relocation's grace period waits out
    /// (see [`Self::wait_for_searchers`]).
    fn search(&self, tid: usize, key: &K) -> (*mut Node<K, V>, usize, *mut Node<K, V>) {
        let _gate = self.enter_search(tid);
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

    /// [`Self::search`] resuming from (and maintaining) an ancestor
    /// `spine`: the root path of the last located position, each entry
    /// carrying the open key interval of the subtree slot it occupies.
    ///
    /// Ancestors that cannot lie on `key`'s search path any more — the
    /// key falls outside their interval, they hold the key themselves, or
    /// they were unlinked (marked) — are popped; the descent resumes from
    /// the deepest survivor (the sentinel root in the worst case, which
    /// is a plain root descent) and every node descended *through* is
    /// pushed, so the spine always ends at the returned predecessor. A
    /// spine entry that goes stale after its unmarked check can only
    /// yield a stale position (an unlinked node's child pointers are not
    /// cleared), which the caller's under-lock validation catches.
    fn search_spined(
        &self,
        tid: usize,
        key: &K,
        spine: &mut Vec<SpineEntry<K, V>>,
    ) -> Located<K, V> {
        // Like Self::search, the descent (spine validation included) is
        // one gated read-side critical section.
        let _gate = self.enter_search(tid);
        // Validate the spine root-downwards and keep the usable prefix:
        // stop at the first entry that is off `key`'s path (interval
        // miss), holds the key itself (resume from its parent), or is
        // marked. A marked ancestor poisons everything *below* it — the
        // two-children remove relocates its successor's key upward past
        // descendants that stay linked and unmarked, so a deeper resume
        // point could silently miss the relocated key even though it
        // looks healthy on its own. (Intervals themselves are immutable:
        // the tree never rotates, a node keeps its slot until removed.)
        let mut keep = 0usize;
        for e in spine.iter() {
            if e.node != self.root {
                let n = unsafe { &*e.node };
                if n.marked.load(Ordering::Acquire) || n.key == *key {
                    break;
                }
                let inside = e.low.is_none_or(|lo| lo < *key) && e.high.is_none_or(|hi| *key < hi);
                if !inside {
                    break;
                }
            }
            keep += 1;
        }
        spine.truncate(keep);
        let resumed = spine.last().is_some_and(|t| t.node != self.root);
        if spine.is_empty() {
            spine.push(SpineEntry {
                node: self.root,
                low: None,
                high: None,
            });
        }
        let top = spine.last().expect("spine holds at least the root");
        let mut pred = top.node;
        let (mut low, mut high) = (top.low, top.high);
        let mut dir = if pred == self.root || *key < unsafe { &*pred }.key {
            LEFT
        } else {
            RIGHT
        };
        if pred != self.root {
            let pk = unsafe { &*pred }.key;
            if dir == LEFT {
                high = Some(pk);
            } else {
                low = Some(pk);
            }
        }
        let mut curr = unsafe { &*pred }.child[dir].load(Ordering::Acquire);
        while !curr.is_null() {
            let c = unsafe { &*curr };
            if c.key == *key {
                break;
            }
            let ndir = if *key < c.key { LEFT } else { RIGHT };
            // `curr` becomes the new predecessor: it joins the spine with
            // the interval of the slot it occupies.
            spine.push(SpineEntry {
                node: curr,
                low,
                high,
            });
            if ndir == LEFT {
                high = Some(c.key);
            } else {
                low = Some(c.key);
            }
            pred = curr;
            dir = ndir;
            curr = c.child[ndir].load(Ordering::Acquire);
        }
        Located {
            pred,
            dir,
            curr,
            low,
            high,
            resumed,
        }
    }

    /// Bundle-only **in-order** walk from `entry` at snapshot `ts`: calls
    /// `visit` on every node of `low..=high` in ascending key order.
    /// Descends left while the key is at least `low` (nothing left of a
    /// smaller key is in range), visits on the way back up, and stops at
    /// the first key above `high`. `None` if any dereference fails (only
    /// possible when `entry` itself was reached optimistically).
    fn walk_at(
        &self,
        entry: *mut Node<K, V>,
        ts: u64,
        low: &K,
        high: &K,
        mut visit: impl FnMut(*mut Node<K, V>),
    ) -> Option<()> {
        let mut stack: InlineStack<_, WALK_STACK_INLINE> = InlineStack::new();
        let mut curr = entry;
        loop {
            while !curr.is_null() {
                let node = unsafe { &*curr };
                curr = if node.key < *low {
                    node.bundle[RIGHT].dereference(ts)?
                } else {
                    stack.push(curr);
                    node.bundle[LEFT].dereference(ts)?
                };
            }
            let Some(p) = stack.pop() else {
                return Some(());
            };
            let node = unsafe { &*p };
            if node.key > *high {
                return Some(());
            }
            visit(p);
            curr = node.bundle[RIGHT].dereference(ts)?;
        }
    }

    /// Pin the gap a staged remove is about to leave behind when its
    /// victim has a subtree on the `toward`-opposite side rooted at
    /// `from`: once the victim is spliced out, a re-insert of its key
    /// hangs off that subtree's extreme node in direction `toward` (the
    /// key's in-order neighbour), **not** off any node the remove itself
    /// locks — so without this lock a foreign insert of the removed key
    /// could commit between the prepare and the transaction's timestamp,
    /// and snapshots in between would see the key twice. Locks that
    /// extreme node and re-checks it under the lock (unmarked nodes never
    /// move and only grow at null slots, so an unmarked extreme with a
    /// null `toward` child is still the subtree's extreme — unless an
    /// abort put the old extreme back meanwhile, hence `epoch`, the
    /// caller's [`Self::shape_epoch`] sample from before its search).
    ///
    /// `Ok(Some(acquired))` = pinned (`acquired`: the lock was not held
    /// before); `Ok(None)` = the walk was torn and the lock released
    /// again, the caller retries its whole seek.
    fn txn_pin_gap(
        &self,
        txn: &mut ShardTxn<BundledCitrusTree<K, V>>,
        from: *mut Node<K, V>,
        toward: usize,
        epoch: u64,
    ) -> Result<Option<bool>, Conflict> {
        // SAFETY (both derefs): `from` hangs off a node the caller holds
        // locked and the cursor's EBR pin keeps every node reached from
        // it allocated.
        let mut gap = from;
        loop {
            let next = unsafe { &*gap }.child[toward].load(Ordering::Acquire);
            if next.is_null() {
                break;
            }
            gap = next;
        }
        let newly = unsafe { self.txn_lock(txn, gap) }?;
        let g = unsafe { &*gap };
        if g.marked.load(Ordering::Acquire)
            || !g.child[toward].load(Ordering::Acquire).is_null()
            || self.shape_epoch() != epoch
        {
            if newly {
                txn.core.unlock_latest(1);
                return Ok(None);
            }
            // A node we hold locked cannot be invalidated by others.
            return Err(Conflict);
        }
        Ok(Some(newly))
    }

    /// One pruned in-order walk over the newest child pointers: collects
    /// every node of `low..=high` into `acc` in ascending key order and
    /// returns the range's two in-order neighbours `[pred_lo, succ_hi]` —
    /// the largest node below `low` and the smallest above `high`, the
    /// sentinel root where a side has none. Same shape as
    /// [`Self::walk_at`]: the nodes below `low` it steps over come in
    /// ascending order (each hangs in the right subtree of the one before),
    /// so the last of them is `pred_lo`, and the node it stops at is
    /// `succ_hi`.
    ///
    /// These are the *boundary pins* of a validated range: a BST insert's
    /// parent is always the new key's in-order predecessor or successor,
    /// so locking every in-range node plus these two blocks every possible
    /// insert into the range (the empty-tree degenerate case pins the root
    /// itself, which every first insert must lock).
    ///
    /// `None` = a marked node was encountered — some removal is
    /// mid-critical-section (or the traversal followed a stale pointer
    /// into one), so the observation is torn and the caller must retry.
    fn walk_range_newest(
        &self,
        low: &K,
        high: &K,
        acc: &mut Vec<(K, usize)>,
        stack: &mut Vec<*mut Node<K, V>>,
    ) -> Option<[*mut Node<K, V>; 2]> {
        // SAFETY (every deref below): the caller holds an EBR pin, so
        // each node reached through child pointers stays allocated, and
        // the sentinel root lives as long as the tree.
        acc.clear();
        stack.clear();
        let mut pred_lo = self.root;
        let mut curr = unsafe { &*self.root }.child[LEFT].load(Ordering::Acquire);
        loop {
            while !curr.is_null() {
                let n = unsafe { &*curr };
                if n.marked.load(Ordering::Acquire) {
                    return None;
                }
                curr = if n.key < *low {
                    pred_lo = curr;
                    n.child[RIGHT].load(Ordering::Acquire)
                } else {
                    stack.push(curr);
                    n.child[LEFT].load(Ordering::Acquire)
                };
            }
            let Some(p) = stack.pop() else {
                return Some([pred_lo, self.root]);
            };
            let n = unsafe { &*p };
            if n.key > *high {
                return Some([pred_lo, p]);
            }
            acc.push((n.key, p as usize));
            curr = n.child[RIGHT].load(Ordering::Acquire);
        }
    }
}

/// Levels of a snapshot walk's ancestor stack kept on the call stack
/// (deeper ones spill to the heap): more than the expected height of a
/// tree of a few million random keys, so a walk — every transactional
/// `get` is one — does not allocate.
const WALK_STACK_INLINE: usize = 64;

/// One eager structural change of a staged write (see [`TwoPhase::revert`]).
pub enum CitrusUndo<K, V> {
    /// A staged insert stored `node` into `pred.child[dir]` (previously
    /// null).
    Link {
        pred: *mut Node<K, V>,
        dir: usize,
        node: *mut Node<K, V>,
    },
    /// A zero/one-child remove spliced `repl` into `pred.child[dir]`,
    /// marking `curr`.
    Splice {
        pred: *mut Node<K, V>,
        dir: usize,
        curr: *mut Node<K, V>,
    },
    /// A two-children remove replaced `curr` by `new_node` under
    /// `pred.child[dir]`, marked `curr` and `succ`, and (when the
    /// successor was not curr's direct right child) moved `succ` out of
    /// `sp.child[LEFT]`.
    Replace {
        pred: *mut Node<K, V>,
        dir: usize,
        curr: *mut Node<K, V>,
        succ: *mut Node<K, V>,
        new_node: *mut Node<K, V>,
        sp: *mut Node<K, V>,
        sp_moved: bool,
    },
}

impl<K, V> TwoPhase for BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    type Key = K;
    type Value = V;
    type Node = Node<K, V>;
    type Undo = CitrusUndo<K, V>;
    /// The validate walk's three buffers — the first walk, the under-lock
    /// re-walk it is compared with, the ancestor stack of both — and the
    /// cursor's spine (on loan to the open cursor, back at `finish`).
    type Scratch = (
        Vec<(K, usize)>,
        Vec<(K, usize)>,
        Vec<*mut Node<K, V>>,
        Vec<SpineEntry<K, V>>,
    );
    type Cursor<'a>
        = ShardCursor<'a, K, V>
    where
        Self: 'a;

    fn with_context(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
        let root = Node::new(K::default(), None);
        unsafe {
            // The sentinel's left link starts empty at timestamp 0.
            (*root).bundle[LEFT].init(ptr::null_mut(), 0);
            (*root).bundle[RIGHT].init(ptr::null_mut(), 0);
        }
        BundledCitrusTree {
            root,
            ctx: ctx.clone(),
            collector: Collector::new(max_threads, mode),
            tokens: TokenPool::new(max_threads),
            reverts: CachePadded::new(AtomicU64::new(0)),
            searchers: (0..max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
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

    /// Enters at the sentinel root and descends through **bundles only**,
    /// like [`Self::collect_snapshot_at`], so it never fails. The paper's
    /// optimistic entry (descend over the newest pointers to the last node
    /// outside the range, then enter the snapshot through that node's
    /// bundle) is unsound in this tree for a timestamp that is not brand
    /// new: a two-children remove replaces a node by a copy of its
    /// successor, which *widens* the key interval of the slots below it.
    /// If keys of the range lived in the old, narrower layout at `ts` —
    /// between the removed key and its successor, removed since — the
    /// newest pointers lead into a subtree where they never were, every
    /// node on the way exists at `ts`, nothing fails, and the keys are
    /// missed. (A reader descheduled between its clock read and its
    /// descent is all it takes; the linearizability oracle saw it in ~6% of
    /// oversubscribed runs.) The chains have no such case: a link's
    /// position is its two neighbours.
    ///
    /// So the newest pointers may not be **followed** to a result — not to
    /// an entry point, not to a key. They may still be **prefetched**: the
    /// warm pass at the top of [`Self::collect_snapshot_at`] runs over
    /// exactly those pointers, and is sound because it decides nothing.
    /// Where the newest layout and the snapshot's differ it warms lines the
    /// walk will not read and leaves cold some it will; the walk, which
    /// takes every hop through [`Bundle::dereference`], neither knows nor
    /// cares. Deleting the pass changes no outcome.
    fn try_collect_at(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        visit: impl FnMut(*mut Node<K, V>),
    ) -> Option<()> {
        self.collect_snapshot_at(ts, low, high, visit);
        Some(())
    }

    /// A hint-only breadth-first prefetch of the range's subtree over the
    /// newest pointers (`warm_range`), then the walk proper: from the
    /// sentinel, every hop through a bundle (`walk_at`).
    fn collect_snapshot_at(&self, ts: u64, low: &K, high: &K, visit: impl FnMut(*mut Node<K, V>)) {
        let newest = unsafe { &*self.root }.child[LEFT].load(Ordering::Acquire);
        warm_range(newest, low, high, |p| {
            // SAFETY: the caller's EBR pin keeps every node reached over
            // child pointers allocated, as in `Self::search`; `key` is
            // immutable and the links are atomics.
            let n = unsafe { &*p };
            (
                n.key,
                n.child[LEFT].load(Ordering::Acquire),
                n.child[RIGHT].load(Ordering::Acquire),
            )
        });
        let entry = unsafe { &*self.root }.bundle[LEFT]
            .dereference(ts)
            .expect("root bundle must satisfy an announced snapshot");
        self.walk_at(entry, ts, low, high, visit)
            .expect("snapshot walk must stay satisfiable");
    }

    fn for_each_bundle(&self, mut f: impl FnMut(&Bundle<Node<K, V>>)) {
        let mut stack: InlineStack<_, WALK_STACK_INLINE> = InlineStack::new();
        stack.push(self.root);
        while let Some(p) = stack.pop() {
            let node = unsafe { &*p };
            f(&node.bundle[LEFT]);
            f(&node.bundle[RIGHT]);
            for link in &node.child {
                let child = link.load(Ordering::Acquire);
                if !child.is_null() {
                    // The sibling waits on the stack while the other
                    // subtree is visited: start its miss now.
                    prefetch_read(child, size_of::<Node<K, V>>());
                    stack.push(child);
                }
            }
        }
    }

    /// The cursor retains the last located position's **ancestor spine**
    /// (the root path, with each node's subtree key interval) and resumes
    /// the next search from the deepest ancestor whose interval still
    /// contains the target, so a key-sorted batch descends once and then
    /// walks short subtree hops.
    fn txn_cursor(&self, mut txn: ShardTxn<Self>) -> ShardCursor<'_, K, V> {
        // The cursor-lifetime pin keeps every retained spine pointer
        // allocated between seeks (pins are reentrant).
        let guard = self.pin(txn.core.tid());
        let spine = std::mem::take(&mut txn.scratch.3);
        debug_assert!(spine.is_empty(), "a spine outlived its cursor's pin");
        ShardCursor {
            tree: self,
            txn,
            _guard: guard,
            spine,
            epoch: self.shape_epoch(),
            stats: CursorStats::default(),
        }
    }

    /// One walk of the live tree finds the in-range nodes and the range's
    /// two in-order boundary neighbours (`walk_range_newest`; the
    /// sentinel root where a side has none), all of them are locked, and a
    /// second walk under the locks confirms the picture is stable before
    /// it is compared with `expected`. Both walks and their ancestor stack
    /// reuse the token's scratch buffers.
    ///
    /// Phantom safety: with all in-range nodes and both boundaries locked
    /// (and the second walk having re-derived exactly the same nodes and
    /// boundaries under those locks), any insert of an in-range key needs
    /// its in-order predecessor or successor — a locked node — as parent,
    /// every in-range remove needs its victim's lock, and every relocation
    /// (two-children remove of an outside key) needs the relocated
    /// successor's lock. All block until the transaction finalizes, so the
    /// reads hold at the commit timestamp.
    fn validate_walk(
        &self,
        core: &mut TwoPhaseState<Node<K, V>>,
        (walk, verify, stack, _): &mut Self::Scratch,
        expected: &[(K, usize)],
        low: &K,
        high: &K,
    ) -> Result<(), TxnValidateError> {
        'attempt: for _ in 0..bundle::MAX_VALIDATE_ATTEMPTS {
            let mut newly = 0usize;
            let Some(bounds) = self.walk_range_newest(low, high, walk, stack) else {
                continue;
            };
            for node in walk
                .iter()
                .map(|(_, n)| *n as *mut Node<K, V>)
                .chain(bounds)
            {
                // SAFETY: `node` was reached under the caller's EBR pin, and
                // a locked node is never retired.
                match unsafe { core.lock(node, &(*node).lock) } {
                    Ok(true) => newly += 1,
                    Ok(false) => {}
                    Err(Conflict) => {
                        core.unlock_latest(newly);
                        return Err(TxnValidateError::Conflict);
                    }
                }
                if node != self.root && unsafe { &*node }.marked.load(Ordering::Acquire) {
                    core.unlock_latest(newly);
                    continue 'attempt;
                }
            }
            // With the locks held, the picture must be stable: re-walk and
            // re-derive the boundaries. Any difference means an update was
            // mid-flight during the first walk — retry.
            if self.walk_range_newest(low, high, verify, stack) != Some(bounds) || verify != walk {
                core.unlock_latest(newly);
                continue 'attempt;
            }
            if walk[..] != *expected {
                core.unlock_latest(newly);
                return Err(TxnValidateError::Invalidated);
            }
            return Ok(());
        }
        Err(TxnValidateError::Conflict)
    }

    unsafe fn revert(&self, undo: CitrusUndo<K, V>) {
        match undo {
            CitrusUndo::Link { pred, dir, node } => {
                (*node).marked.store(true, Ordering::SeqCst);
                (*pred).child[dir].store(ptr::null_mut(), Ordering::SeqCst);
            }
            CitrusUndo::Splice { pred, dir, curr } => {
                (*curr).marked.store(false, Ordering::SeqCst);
                (*pred).child[dir].store(curr, Ordering::SeqCst);
                self.reverts.fetch_add(1, Ordering::SeqCst);
            }
            CitrusUndo::Replace {
                pred,
                dir,
                curr,
                succ,
                new_node,
                sp,
                sp_moved,
            } => {
                (*new_node).marked.store(true, Ordering::SeqCst);
                if sp_moved {
                    (*sp).child[LEFT].store(succ, Ordering::SeqCst);
                }
                (*pred).child[dir].store(curr, Ordering::SeqCst);
                (*succ).marked.store(false, Ordering::SeqCst);
                (*curr).marked.store(false, Ordering::SeqCst);
                self.reverts.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// A prepare cursor over one [`ShardTxn`] (see
/// [`TwoPhase::txn_cursor`] and [`bundle::PrepareCursor`]).
///
/// The retained frontier is the last located position's **ancestor
/// spine**: the root path, each entry tagged with the open key interval
/// of its subtree slot. A seek resumes from the deepest spine ancestor
/// whose interval contains the target, reached through an all-unmarked
/// prefix (a marked ancestor poisons everything below it — the
/// two-children remove relocates keys upward). Spine entries staged by
/// the transaction are locked; the rest are unlocked hints whose stale
/// positions are caught by the under-lock validation every prepare
/// performs (the retry falls back to a root descent).
pub struct ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    tree: &'a BundledCitrusTree<K, V>,
    txn: ShardTxn<BundledCitrusTree<K, V>>,
    /// Keeps every retained spine pointer allocated between seeks.
    _guard: Guard<'a>,
    spine: Vec<SpineEntry<K, V>>,
    /// The tree's [`BundledCitrusTree::shape_epoch`] as of the current
    /// seek attempt; the spine was built no earlier.
    epoch: u64,
    stats: CursorStats,
}

impl<'a, K, V> ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// One search, resuming from the retained spine when it can still be
    /// trusted.
    fn locate(&mut self, key: &K) -> Located<K, V> {
        // An abort since the spine was built may have narrowed the
        // intervals it recorded: forget it. The sample also dates this
        // attempt for the under-lock checks of the seek.
        let epoch = self.tree.shape_epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            self.spine.clear();
        }
        let loc = self
            .tree
            .search_spined(self.txn.core.tid(), key, &mut self.spine);
        if loc.resumed {
            self.stats.hinted += 1;
        } else {
            self.stats.descents += 1;
        }
        loc
    }
}

impl<'a, K, V> PrepareCursor<K, V> for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    type Txn = ShardTxn<BundledCitrusTree<K, V>>;

    /// Stage an insert at the sought position: eager structural link with
    /// the affected bundle entries left *pending* until the transaction's
    /// single commit timestamp. `Ok(false)` = key already present; the
    /// present node stays locked so the no-op outcome still holds at the
    /// commit timestamp.
    fn seek_prepare_put(&mut self, key: K, value: V) -> Result<bool, Conflict> {
        let tree = self.tree;
        loop {
            let loc = self.locate(&key);
            let (pred, dir, curr) = (loc.pred, loc.dir, loc.curr);
            let txn = &mut self.txn;
            if !curr.is_null() {
                if unsafe { &*curr }.marked.load(Ordering::Acquire) {
                    // Key found but mid-removal; the remover already holds
                    // all its locks (mark and unlink share one critical
                    // section), so the unlink completes without us.
                    std::hint::spin_loop();
                    self.spine.clear();
                    continue;
                }
                // Pin the no-op: hold the present node's lock until
                // commit (a remove must acquire it). If it got marked
                // before we locked it, the remove linearized first —
                // retry and miss it.
                let newly = unsafe { tree.txn_lock(txn, curr) }?;
                if unsafe { &*curr }.marked.load(Ordering::Acquire) {
                    if newly {
                        txn.core.unlock_latest(1);
                        self.spine.clear();
                        continue;
                    }
                    return Err(Conflict);
                }
                txn.staged
                    .record(key, Some(curr as usize), Some(curr as usize));
                self.spine.push(SpineEntry {
                    node: curr,
                    low: loc.low,
                    high: loc.high,
                });
                return Ok(false);
            }
            let newly = unsafe { tree.txn_lock(txn, pred) }?;
            let pred_ref = unsafe { &*pred };
            if pred_ref.marked.load(Ordering::Acquire)
                || !pred_ref.child[dir].load(Ordering::Acquire).is_null()
                || tree.shape_epoch() != self.epoch
            {
                if newly {
                    txn.core.unlock_latest(1);
                    self.spine.clear();
                    continue;
                }
                // A node we hold locked cannot be invalidated by others.
                return Err(Conflict);
            }
            let node = Node::new(key, Some(value));
            let node_ref = unsafe { &*node };
            // Hold the new leaf's lock until commit/abort so primitive
            // operations block on it instead of building on state we may
            // roll back.
            let node_guard: MutexGuard<'static, ()> = node_ref.lock.lock();
            txn.core.push_lock(node, node_guard);
            txn.core
                .prepare_bundle(&node_ref.bundle[LEFT], ptr::null_mut());
            txn.core
                .prepare_bundle(&node_ref.bundle[RIGHT], ptr::null_mut());
            txn.core.prepare_bundle(&pred_ref.bundle[dir], node);
            // Eager linearization effect.
            pred_ref.child[dir].store(node, Ordering::SeqCst);
            txn.core.add_created(node);
            txn.staged.record(key, None, Some(node as usize));
            txn.undo.push(CitrusUndo::Link { pred, dir, node });
            self.spine.push(SpineEntry {
                node,
                low: loc.low,
                high: loc.high,
            });
            return Ok(true);
        }
    }

    /// Stage a remove at the sought position. `Ok(false)` = key absent;
    /// the insertion point (the node whose `child[dir]` slot the key
    /// would occupy) stays locked, so the no-op outcome still holds at
    /// the commit timestamp (nobody can insert the key before the
    /// transaction finishes).
    fn seek_prepare_remove(&mut self, key: &K) -> Result<bool, Conflict> {
        let tree = self.tree;
        loop {
            let loc = self.locate(key);
            let (pred, dir, curr) = (loc.pred, loc.dir, loc.curr);
            let txn = &mut self.txn;
            if curr.is_null() {
                // Pin the no-op: hold the insertion parent until commit.
                let newly = unsafe { tree.txn_lock(txn, pred) }?;
                let pred_ref = unsafe { &*pred };
                if pred_ref.marked.load(Ordering::Acquire)
                    || !pred_ref.child[dir].load(Ordering::Acquire).is_null()
                    || tree.shape_epoch() != self.epoch
                {
                    if newly {
                        txn.core.unlock_latest(1);
                        self.spine.clear();
                        continue;
                    }
                    return Err(Conflict);
                }
                txn.staged.record(*key, None, None);
                return Ok(false);
            }
            let pred_ref = unsafe { &*pred };
            let curr_ref = unsafe { &*curr };
            let mut newly = 0usize;
            match unsafe { tree.txn_lock(txn, pred) } {
                Ok(true) => newly += 1,
                Ok(false) => {}
                Err(c) => return Err(c),
            }
            match unsafe { tree.txn_lock(txn, curr) } {
                Ok(true) => newly += 1,
                Ok(false) => {}
                Err(c) => {
                    txn.core.unlock_latest(newly);
                    return Err(c);
                }
            }
            if pred_ref.marked.load(Ordering::Acquire)
                || curr_ref.marked.load(Ordering::Acquire)
                || pred_ref.child[dir].load(Ordering::Acquire) != curr
                || curr_ref.key != *key
            {
                txn.core.unlock_latest(newly);
                if newly == 0 {
                    return Err(Conflict);
                }
                self.spine.clear();
                continue;
            }
            let left = curr_ref.child[LEFT].load(Ordering::Acquire);
            let right = curr_ref.child[RIGHT].load(Ordering::Acquire);

            // Pin the gap the removed key leaves behind (`txn_pin_gap`).
            // With a left subtree it moves under that subtree's rightmost
            // node — also after a two-children replace, whose copy holds
            // a larger key; with only a right subtree, under its
            // leftmost; with neither it stays under `pred`, already
            // locked.
            let gap = if !left.is_null() {
                Some((left, RIGHT))
            } else if !right.is_null() {
                Some((right, LEFT))
            } else {
                None
            };
            if let Some((from, toward)) = gap {
                match tree.txn_pin_gap(txn, from, toward, self.epoch) {
                    Ok(Some(acquired)) => newly += usize::from(acquired),
                    Ok(None) => {
                        txn.core.unlock_latest(newly);
                        self.spine.clear();
                        continue;
                    }
                    Err(c) => {
                        txn.core.unlock_latest(newly);
                        return Err(c);
                    }
                }
            }

            if left.is_null() || right.is_null() {
                // Cases 1 & 2: splice the only child (or null) into pred.
                let repl = if left.is_null() { right } else { left };
                txn.core.prepare_bundle(&pred_ref.bundle[dir], repl);
                curr_ref.marked.store(true, Ordering::SeqCst);
                pred_ref.child[dir].store(repl, Ordering::SeqCst);
                txn.core.add_victim(curr);
                txn.staged.record(*key, Some(curr as usize), None);
                txn.undo.push(CitrusUndo::Splice { pred, dir, curr });
                return Ok(true);
            }

            // Case 3: two children — replace `curr` by an RCU-style copy
            // of its successor.
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
            let sp_ref = unsafe { &*succ_parent };
            if succ_parent != curr {
                match unsafe { tree.txn_lock(txn, succ_parent) } {
                    Ok(true) => newly += 1,
                    Ok(false) => {}
                    Err(c) => {
                        txn.core.unlock_latest(newly);
                        return Err(c);
                    }
                }
            }
            match unsafe { tree.txn_lock(txn, succ) } {
                Ok(true) => newly += 1,
                Ok(false) => {}
                Err(c) => {
                    txn.core.unlock_latest(newly);
                    return Err(c);
                }
            }
            let succ_still_leftmost = if succ_parent == curr {
                curr_ref.child[RIGHT].load(Ordering::Acquire) == succ
            } else {
                sp_ref.child[LEFT].load(Ordering::Acquire) == succ
            };
            if succ_ref.marked.load(Ordering::Acquire)
                || sp_ref.marked.load(Ordering::Acquire)
                || !succ_ref.child[LEFT].load(Ordering::Acquire).is_null()
                || !succ_still_leftmost
                || tree.shape_epoch() != self.epoch
            {
                txn.core.unlock_latest(newly);
                if newly == 0 {
                    return Err(Conflict);
                }
                self.spine.clear();
                continue;
            }
            let succ_right = succ_ref.child[RIGHT].load(Ordering::Acquire);
            let new_node = Node::new(succ_ref.key, succ_ref.val.clone());
            let new_ref = unsafe { &*new_node };
            let new_right = if succ == right { succ_right } else { right };
            let new_guard: MutexGuard<'static, ()> = new_ref.lock.lock();
            txn.core.push_lock(new_node, new_guard);
            new_ref.child[LEFT].store(left, Ordering::Relaxed);
            new_ref.child[RIGHT].store(new_right, Ordering::Relaxed);

            txn.core.prepare_bundle(&new_ref.bundle[LEFT], left);
            txn.core.prepare_bundle(&new_ref.bundle[RIGHT], new_right);
            txn.core.prepare_bundle(&pred_ref.bundle[dir], new_node);
            let sp_moved = succ != right;
            if sp_moved {
                txn.core.prepare_bundle(&sp_ref.bundle[LEFT], succ_right);
            }
            // Eager linearization effect.
            curr_ref.marked.store(true, Ordering::SeqCst);
            succ_ref.marked.store(true, Ordering::SeqCst);
            pred_ref.child[dir].store(new_node, Ordering::SeqCst);
            if sp_moved {
                // Same grace period as the primitive two-children remove
                // (see ConcurrentSet::remove): the successor's old slot
                // stays reachable, so wait out every in-flight gated
                // search before emptying it. The staged locks are held
                // until commit/abort, and searches take no locks, so the
                // wait terminates.
                tree.wait_for_searchers(txn.core.tid());
                sp_ref.child[LEFT].store(succ_right, Ordering::SeqCst);
            }
            txn.core.add_victim(curr);
            txn.core.add_victim(succ);
            txn.core.add_created(new_node);
            txn.staged.record(*key, Some(curr as usize), None);
            // The successor's key keeps its value but moves to the fresh
            // copy; a read that recorded the old node must reconcile.
            txn.staged
                .record(succ_ref.key, Some(succ as usize), Some(new_node as usize));
            txn.undo.push(CitrusUndo::Replace {
                pred,
                dir,
                curr,
                succ,
                new_node,
                sp: succ_parent,
                sp_moved,
            });
            // The copy took curr's slot: it joins the spine so seeks into
            // its subtree (keys beyond the removed one) resume below it.
            self.spine.push(SpineEntry {
                node: new_node,
                low: loc.low,
                high: loc.high,
            });
            return Ok(true);
        }
    }

    /// Read `key`'s current value (newest pointers — the transaction's
    /// own eager writes are visible) through the spine, retaining the
    /// located position as an *unlocked* hint. Takes no locks and stages
    /// nothing.
    fn seek_read(&mut self, key: &K) -> Option<V> {
        let loc = self.locate(key);
        if !loc.curr.is_null() {
            let c = unsafe { &*loc.curr };
            if !c.marked.load(Ordering::Acquire) {
                self.spine.push(SpineEntry {
                    node: loc.curr,
                    low: loc.low,
                    high: loc.high,
                });
                return c.val.clone();
            }
        }
        None
    }

    /// Hinted-resume vs root-descent counters accumulated so far.
    fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Give the transaction token back (forgetting the spine — its
    /// buffer returns to the token — and dropping the cursor's EBR pin);
    /// consume it with [`TwoPhase::txn_finalize`] or
    /// [`TwoPhase::txn_abort`].
    fn finish(mut self) -> ShardTxn<BundledCitrusTree<K, V>> {
        self.spine.clear();
        self.txn.scratch.3 = self.spine;
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
            .field("spine_depth", &self.spine.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<K, V> ConcurrentSet<K, V> for BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let _guard = self.pin(tid);
        loop {
            let epoch = self.shape_epoch();
            let (pred, dir, curr) = self.search(tid, &key);
            if !curr.is_null() {
                let c = unsafe { &*curr };
                if !c.marked.load(Ordering::Acquire) {
                    return false;
                }
                // Key found but node is being removed: retry until the
                // removal's physical unlink makes it unreachable.
                std::hint::spin_loop();
                continue;
            }
            let pred_ref = unsafe { &*pred };
            let _lock = pred_ref.lock.lock();
            // Validate: predecessor still live, the slot still empty — and
            // still the key's (no abort put a node back meanwhile).
            if pred_ref.marked.load(Ordering::Acquire)
                || !pred_ref.child[dir].load(Ordering::Acquire).is_null()
                || self.shape_epoch() != epoch
            {
                continue;
            }
            let node = Node::new(key, Some(value));
            let node_ref = unsafe { &*node };
            // A new leaf contributes entries for both of its (null)
            // children so that snapshot traversals entering it always find
            // a satisfying entry, plus the predecessor's changed link.
            let bundles = [
                (&node_ref.bundle[LEFT], ptr::null_mut()),
                (&node_ref.bundle[RIGHT], ptr::null_mut()),
                (&pred_ref.bundle[dir], node),
            ];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                pred_ref.child[dir].store(node, Ordering::SeqCst);
            });
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        loop {
            let epoch = self.shape_epoch();
            let (pred, dir, curr) = self.search(tid, key);
            if curr.is_null() {
                return false;
            }
            let pred_ref = unsafe { &*pred };
            let curr_ref = unsafe { &*curr };
            // Blocking lock only for the first acquisition; everything else
            // is try-locked with full release on failure, so no deadlock.
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
                // Cases 1 & 2: zero or one child — splice the child (or
                // null) into the predecessor.
                let repl = if left.is_null() { right } else { left };
                let bundles = [(&pred_ref.bundle[dir], repl)];
                linearize_update(self.ctx.clock(), tid, &bundles, || {
                    curr_ref.marked.store(true, Ordering::SeqCst);
                    pred_ref.child[dir].store(repl, Ordering::SeqCst);
                });
                drop(curr_lock);
                drop(pred_lock);
                unsafe { guard.retire(curr) };
                return true;
            }

            // Case 3: two children — replace `curr` by an RCU-style copy of
            // its successor (the leftmost node of the right subtree).
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
                || self.shape_epoch() != epoch
            {
                drop(succ_lock);
                drop(sp_lock);
                drop(curr_lock);
                drop(pred_lock);
                continue;
            }
            let succ_right = succ_ref.child[RIGHT].load(Ordering::Acquire);
            // The copy takes curr's position, key/value of the successor,
            // curr's left child, and the appropriate right child.
            let new_node = Node::new(succ_ref.key, succ_ref.val.clone());
            let new_ref = unsafe { &*new_node };
            let new_right = if succ == right { succ_right } else { right };
            new_ref.child[LEFT].store(left, Ordering::Relaxed);
            new_ref.child[RIGHT].store(new_right, Ordering::Relaxed);

            let bundles = [
                (&new_ref.bundle[LEFT], left),
                (&new_ref.bundle[RIGHT], new_right),
                (&pred_ref.bundle[dir], new_node),
                (&sp_ref.bundle[LEFT], succ_right),
            ];
            // The last one only when the successor is physically moved out
            // of its old slot.
            let bundles = &bundles[..if succ != right { 4 } else { 3 }];
            linearize_update(self.ctx.clock(), tid, bundles, || {
                curr_ref.marked.store(true, Ordering::SeqCst);
                succ_ref.marked.store(true, Ordering::SeqCst);
                pred_ref.child[dir].store(new_node, Ordering::SeqCst);
            });
            if succ != right {
                // The successor moves out of a slot that stays reachable:
                // wait one grace period over the search gates before
                // emptying it, so no search that entered via the old path
                // finds `sp.child[LEFT]` already swung past the (still
                // logically present) relocated key. Deliberately *outside*
                // the linearize closure — snapshots spin on the pending
                // bundle entries while it runs, and the wait must not
                // stall them; the bundle entry for `sp.bundle[LEFT]` is
                // already finalized at the commit timestamp, which is
                // correct because fixed-timestamp traversals read bundles,
                // not this lagging newest pointer (RCU old-path validity).
                // All four locks are still held, so no competing update
                // can touch the slot in between.
                self.wait_for_searchers(tid);
                sp_ref.child[LEFT].store(succ_right, Ordering::SeqCst);
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
        let (_, _, curr) = self.search(tid, key);
        // A *found* node answers true even if marked (RCU old-path
        // validity, as in the original Citrus, whose reads never check
        // the mark): a splice victim is only reachable while its remove
        // is mid-critical-section — ordering this read before that
        // remove is linearizable — and a relocation victim's key is
        // still logically present (its copy is already linked, or the
        // relocator is inside the same critical section), so answering
        // absent there would be a linearizability violation, not a
        // race-window nicety.
        !curr.is_null()
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let _guard = self.pin(tid);
        let (_, _, curr) = self.search(tid, key);
        if !curr.is_null() {
            // Marked nodes answer too — see Self::contains. A victim's
            // value is immutable once reachable (relocation copies it,
            // never moves it), so the clone is sound under the EBR pin.
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

impl<K, V> Drop for BundledCitrusTree<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
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
    use bundle::api::RangeQuerySet;
    use std::sync::Arc;
    use std::time::Duration;

    type Tree = BundledCitrusTree<u64, u64>;

    #[test]
    fn empty_tree_behaviour() {
        let t = Tree::new(1);
        assert!(!t.contains(0, &1));
        assert!(!t.remove(0, &1));
        assert_eq!(t.len(0), 0);
        let mut out = Vec::new();
        assert_eq!(t.range_query(0, &0, &100, &mut out), 0);
    }

    #[test]
    fn successor_move_keeps_snapshot_consistent() {
        // Exercise case 3 of remove repeatedly while a reader scans.
        let t = Arc::new(Tree::new(2));
        for k in 0..200u64 {
            t.insert(0, k, k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    t.range_query(1, &0, &200, &mut out);
                    assert!(
                        out.windows(2).all(|w| w[0].0 < w[1].0),
                        "duplicate key observed"
                    );
                }
            })
        };
        for _ in 0..20 {
            // Removing interior nodes with two children triggers the copy.
            for k in (10..190u64).step_by(7) {
                t.remove(0, &k);
            }
            for k in (10..190u64).step_by(7) {
                t.insert(0, k, k);
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(t.len(0), 200);
    }

    /// Snapshot reads come out of the in-order walk already sorted: while
    /// a writer keeps relocating successors (two-children removes) through
    /// the range and a third thread stages removes only to abort them,
    /// every fixed-timestamp read must be strictly ascending as returned,
    /// and hold every key the writer never touches. The reads alternate
    /// between a range whose subtree fits the warm pass's frontier and the
    /// whole tree, whose lower levels overflow it: under
    /// `ReclaimMode::Reclaim` the pass runs over nodes that are being
    /// unlinked, put back and freed around it, and must change nothing.
    #[test]
    fn snapshot_reads_are_ascending_as_walked_under_relocating_removes() {
        const KEYS: u64 = 4096;
        // Balanced, so the whole tree's widest level is KEYS / 2 nodes.
        const _: () = assert!(KEYS as usize / 2 > crate::warm::FRONTIER);
        // The writer runs at least MIN_ROUNDS, and on until the readers have
        // checked MIN_READS snapshots (or, should one have died, MAX_ROUNDS).
        const MIN_ROUNDS: usize = 4;
        const MAX_ROUNDS: usize = 400;
        const MIN_READS: usize = 200;
        let ctx = bundle::RqContext::new(4);
        let t = Tree::with_context(4, ReclaimMode::Reclaim, &ctx);
        // Midpoints first: a balanced tree, every inner node has two
        // children.
        let mut order = Vec::new();
        let mut spans = std::collections::VecDeque::from([(0u64, KEYS)]);
        while let Some((lo, hi)) = spans.pop_front() {
            if lo < hi {
                let mid = lo + (hi - lo) / 2;
                order.push(mid);
                spans.extend([(lo, mid), (mid + 1, hi)]);
            }
        }
        for &k in &order {
            assert!(t.insert(0, k, k));
        }
        // Three keys in four come and go, the middle one of each run of
        // three first both ways: it is re-inserted as the parent of the
        // other two, so its next remove has two children and relocates its
        // successor (round one relocates through the balanced tree's deeper
        // shapes).
        let toggled = |k: u64| k % 4 != 1;
        order.retain(|k| toggled(*k));
        order.sort_by_key(|k| k % 4 != 3);
        let ranges = [(40u64, 215u64), (0, KEYS - 1)];
        let reads = std::sync::atomic::AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let check = |(low, high): (u64, u64), keys: &mut dyn Iterator<Item = u64>| {
            let keys: Vec<u64> = keys.collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "not ascending: {keys:?}"
            );
            assert!(keys.iter().all(|k| (low..=high).contains(k)));
            assert_eq!(
                keys.iter().filter(|k| !toggled(**k)).count(),
                (low..=high).filter(|k| !toggled(*k)).count()
            );
            reads.fetch_add(1, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut out = Vec::new();
                for &(low, high) in ranges.iter().cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let _guard = t.pin(1);
                    let ts = ctx.start_rq(1);
                    t.range_query_at(1, ts, &low, &high, &mut out);
                    ctx.finish_rq(1);
                    check((low, high), &mut out.iter().map(|e| e.0));
                }
            });
            s.spawn(|| {
                let (mut out, mut nodes) = (Vec::new(), Vec::new());
                for &(low, high) in ranges.iter().cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let _guard = t.pin(2);
                    let lease = ctx.lease_read(2);
                    t.txn_range_read(2, lease.ts(), &low, &high, &mut out, &mut nodes);
                    assert!(out.iter().map(|e| e.0).eq(nodes.iter().map(|n| n.0)));
                    check((low, high), &mut nodes.iter().map(|n| n.0));
                }
            });
            // Stage the remove of a key the writer never touches (in this
            // tree an inner node: the remove splices or relocates, under a
            // gap pin) and abort it: the key must not flicker, and the
            // revert puts nodes back under the readers' warm passes.
            s.spawn(|| {
                for k in (0..KEYS).filter(|k| !toggled(*k)).cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let mut cur = t.txn_cursor(t.txn_begin_write_only(3));
                    // A lost lock race stages nothing; the abort is the same.
                    let _ = cur.seek_prepare_remove(&k);
                    t.txn_abort(cur.finish());
                }
            });
            let mut rounds = 0;
            while rounds < MIN_ROUNDS
                || (rounds < MAX_ROUNDS && reads.load(Ordering::Relaxed) < MIN_READS)
            {
                for k in &order {
                    assert!(t.remove(0, k));
                }
                for &k in &order {
                    assert!(t.insert(0, k, k));
                }
                rounds += 1;
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(t.len(0), KEYS as usize);
    }

    #[test]
    fn txn_validate_pins_the_empty_tree_against_first_inserts() {
        let ctx = bundle::RqContext::new(2);
        let t = BundledCitrusTree::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        let lease = ctx.lease_read(1);
        let mut out = Vec::new();
        let mut nodes = Vec::new();
        t.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut nodes);
        assert!(out.is_empty());
        drop(lease);
        // Empty tree: the boundary pin degenerates to the sentinel root.
        let mut txn = t.txn_begin(1);
        assert_eq!(t.txn_validate(&mut txn, &0, &100, &nodes), Ok(()));
        t.txn_abort(txn);
        t.insert(0, 5, 5);
        let mut txn = t.txn_begin(1);
        assert_eq!(
            t.txn_validate(&mut txn, &0, &100, &nodes),
            Err(TxnValidateError::Invalidated)
        );
        t.txn_abort(txn);
    }

    #[test]
    fn staged_remove_with_children_pins_the_removed_key() {
        // A staged remove whose victim has children moves the key's gap
        // into a subtree none of the remove's own locks cover. Without
        // the extra pin a foreign insert of the removed key commits
        // *before* the transaction's timestamp and snapshots in between
        // see the key twice. Shapes: left child only, right child only,
        // two children (gap parent = left subtree's rightmost, 40).
        for shape in [&[50u64, 30][..], &[50, 70], &[50, 30, 70, 40, 60]] {
            let ctx = bundle::RqContext::new(3);
            let t = BundledCitrusTree::<u64, u64>::with_context(3, ReclaimMode::Reclaim, &ctx);
            for &k in shape {
                t.insert(0, k, k);
            }
            let mut cur = t.txn_cursor(t.txn_begin(0));
            assert_eq!(cur.seek_prepare_remove(&50), Ok(true));
            let txn = cur.finish();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                let t = &t;
                s.spawn(move || tx.send(t.insert(1, 50, 999)).unwrap());
                assert!(
                    rx.recv_timeout(std::time::Duration::from_millis(100))
                        .is_err(),
                    "{shape:?}: re-insert of a key whose remove is still staged went through"
                );
                let ts = ctx.advance(0);
                t.txn_finalize(txn, ts);
                assert_eq!(
                    rx.recv(),
                    Ok(true),
                    "{shape:?}: insert lands after the commit"
                );
            });
            let mut scan = Vec::new();
            t.range_query(2, &0, &100, &mut scan);
            let mut expect: Vec<(u64, u64)> = shape.iter().map(|&k| (k, k)).collect();
            expect.sort_unstable();
            expect.iter_mut().find(|e| e.0 == 50).unwrap().1 = 999;
            assert_eq!(scan, expect, "{shape:?}");
        }
    }

    #[test]
    fn covered_read_of_a_relocated_successor_validates_without_a_walk() {
        let ctx = bundle::RqContext::new(2);
        let t = BundledCitrusTree::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        for k in [50u64, 25, 75, 60, 90, 55] {
            t.insert(0, k, k);
        }
        // Point reads the way the store makes them: the degenerate range.
        let read = |ts: u64, k: u64| {
            let (mut out, mut nodes) = (Vec::new(), Vec::new());
            t.txn_range_read(1, ts, &k, &k, &mut out, &mut nodes);
            (out.first().map(|e| e.1), nodes)
        };
        let lease = ctx.lease_read(1);
        let (v55, read55) = read(lease.ts(), 55);
        let (v60, read60) = read(lease.ts(), 60);
        assert_eq!((v55, v60), (Some(55), Some(60)));
        // Removing 50 (two children) relocates its successor 55 into a
        // fresh copy: the read of 55 recorded the *old* node, which is the
        // relocation's staged `pre` image, and the copy is locked by the
        // transaction — covered, no walk.
        let mut cur = t.txn_cursor(t.txn_begin(1));
        assert_eq!(cur.seek_prepare_remove(&50), Ok(true));
        let mut txn = cur.finish();
        assert_eq!(t.txn_validate(&mut txn, &55, &55, &read55), Ok(()));
        assert_eq!(txn.validate_walks(), 0);
        // A key the transaction did not touch still takes the full pass.
        assert_eq!(t.txn_validate(&mut txn, &60, &60, &read60), Ok(()));
        assert_eq!(txn.validate_walks(), 1);
        let ts = ctx.advance(1);
        t.txn_finalize(txn, ts);
        drop(lease);
        let mut scan = Vec::new();
        t.range_query(0, &0, &100, &mut scan);
        assert_eq!(scan, vec![(25, 25), (55, 55), (60, 60), (75, 75), (90, 90)]);

        // A *foreign* relocation between the read and the prepare changes
        // the key's node identity: the covered read goes stale.
        let lease = ctx.lease_read(1);
        let (v90, read90) = read(lease.ts(), 90);
        assert_eq!(v90, Some(90));
        assert!(t.remove(0, &75), "two children: relocates 90");
        let mut cur = t.txn_cursor(t.txn_begin(1));
        assert_eq!(cur.seek_prepare_remove(&90), Ok(true));
        let mut txn = cur.finish();
        assert_eq!(
            t.txn_validate(&mut txn, &90, &90, &read90),
            Err(TxnValidateError::Invalidated)
        );
        assert_eq!(txn.validate_walks(), 0);
        t.txn_abort(txn);
    }

    #[test]
    fn cursor_sorted_batch_resumes_from_the_spine() {
        // A key-sorted staged batch into one subtree region must be
        // dominated by spine resumes after the first descent.
        let t = Tree::new(1);
        let mut keys: Vec<u64> = (0..512u64).map(|i| (i * 167) % 1024).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        let mut seed = 11u64;
        for i in (1..shuffled.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            shuffled.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        for &k in &shuffled {
            if k % 2 == 1 {
                t.insert(0, k, k);
            }
        }
        let mut cur = t.txn_cursor(t.txn_begin(0));
        let mut staged = 0u64;
        for &k in &keys {
            if k % 2 == 0 {
                assert_eq!(cur.seek_prepare_put(k, k), Ok(true), "key {k}");
                staged += 1;
            }
        }
        let stats = cur.stats();
        assert_eq!(stats.hinted + stats.descents, staged);
        assert!(
            stats.hinted > stats.descents,
            "ascending seeks must mostly ride the spine: {stats:?}"
        );
        let ts = t.context().advance(0);
        t.txn_finalize(cur.finish(), ts);
        let mut out = Vec::new();
        t.range_query(0, &0, &2_000, &mut out);
        assert_eq!(out.len(), keys.len());
    }

    #[test]
    fn cursor_spine_invalidation_by_foreign_relocation_stays_correct() {
        // A foreign two-children remove relocates a key upward: the
        // cursor's retained spine runs straight through the removed node,
        // so the next seek must unwind past the marked ancestor instead
        // of resuming below it (and must still find the relocated key).
        let t = Tree::new(2);
        for k in [50u64, 25, 75, 60, 90, 55, 65] {
            t.insert(0, k, k);
        }
        let mut cur = t.txn_cursor(t.txn_begin(1));
        // Build a spine down to the leaf region under 50's right subtree.
        assert_eq!(cur.seek_read(&55), Some(55));
        // Foreign remove of 50 (two children): 55 relocates into a fresh
        // copy at 50's old position; the old 55 node — on the cursor's
        // spine — is marked. (The cursor holds no locks yet, so the
        // primitive remove cannot deadlock against it.)
        assert!(t.remove(0, &50));
        // The relocated key must still be found (marked-prefix unwind),
        // not wrongly reported absent from the stale spine.
        assert_eq!(cur.seek_read(&55), Some(55));
        assert_eq!(cur.seek_prepare_put(55, 550), Ok(false), "55 is present");
        assert_eq!(cur.seek_prepare_remove(&50), Ok(false), "50 is gone");
        let ts = t.context().advance(1);
        t.txn_finalize(cur.finish(), ts);
        let mut out = Vec::new();
        t.range_query(0, &0, &100, &mut out);
        assert_eq!(
            out,
            vec![(25, 25), (55, 55), (60, 60), (65, 65), (75, 75), (90, 90)]
        );
    }

    /// The paper's optimistic range-query entry, deterministically wrong in
    /// this tree: 60 is removed, then 50 is replaced by a copy of its
    /// successor 70, so the newest pointers now route `[55, 65]` left of
    /// that copy, under 30 — where 60 never was. A snapshot from before
    /// both removes must still see 60.
    #[test]
    fn an_old_snapshot_sees_keys_a_later_relocation_routed_away_from() {
        let t = Tree::new(2);
        for k in [50u64, 30, 70, 60] {
            t.insert(0, k, k);
        }
        let _pin = t.pin(1);
        let old = t.context().announce_rq(1);
        assert!(t.remove(0, &60));
        assert!(t.remove(0, &50));
        let mut out = Vec::new();
        t.range_query_at(1, old.ts(), &55, &65, &mut out);
        assert_eq!(out, vec![(60, 60)], "the old snapshot lost a key");
        t.range_query_at(1, old.ts(), &0, &100, &mut out);
        assert_eq!(out, vec![(30, 30), (50, 50), (60, 60), (70, 70)]);
        drop(old);
        t.range_query(1, &0, &100, &mut out);
        assert_eq!(out, vec![(30, 30), (70, 70)]);
    }

    /// An abort puts a spliced-out node back, which *narrows* the interval
    /// of its gap pin's empty slot. A position found while the node was
    /// out — here a cursor's spine; a primitive insert waiting for the gap
    /// pin's lock is the same case — is unmarked, empty, and wrong: only
    /// the revert epoch can tell. The key linked at it would sit in the
    /// wrong subtree, invisible to every search.
    #[test]
    fn a_position_found_during_a_staged_remove_is_not_trusted_after_its_abort() {
        let t = Tree::new(3);
        // 50 has a left child only; its gap pin is 40, the left subtree's
        // rightmost node.
        for k in [50u64, 30, 40] {
            t.insert(0, k, k);
        }
        let mut stager = t.txn_cursor(t.txn_begin(0));
        assert_eq!(stager.seek_prepare_remove(&50), Ok(true));
        // With 50 spliced out, 60's search path ends at 40's right slot.
        let mut cur = t.txn_cursor(t.txn_begin_write_only(1));
        assert_eq!(cur.seek_read(&60), None);
        t.txn_abort(stager.finish());
        assert!(t.contains(2, &50), "the abort put 50 back");
        // 60 now belongs under 50, not under 40.
        assert_eq!(cur.seek_prepare_put(60, 60), Ok(true));
        let ts = t.context().advance(1);
        t.txn_finalize(cur.finish(), ts);
        assert!(t.contains(2, &60), "60 was linked where no search finds it");
        assert_eq!(t.get(2, &60), Some(60));
        let mut out = Vec::new();
        t.range_query(2, &0, &100, &mut out);
        assert_eq!(out, vec![(30, 30), (40, 40), (50, 50), (60, 60)]);
        assert!(t.remove(2, &60) && t.insert(2, 45, 45));
    }

    /// The deterministic shape of the relocation race: removing 50 picks
    /// successor 60 two links deep (succ_parent 75 != curr), so the
    /// remove is an RCU copy + deferred `sp.child` unlink. The relocated
    /// key must stay visible throughout.
    #[test]
    fn two_children_remove_relocates_without_losing_the_successor() {
        let t = Tree::new(1);
        for k in [50u64, 25, 75, 60, 85, 70] {
            assert!(t.insert(0, k, k * 10));
        }
        assert!(t.remove(0, &50));
        for k in [25u64, 60, 70, 75, 85] {
            assert!(t.contains(0, &k), "{k} lost by the relocation");
        }
        assert_eq!(t.get(0, &60), Some(600), "relocated key keeps its value");
        let mut out = Vec::new();
        assert_eq!(t.range_query(0, &0, &100, &mut out), 5);
        assert_eq!(
            out.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![25, 60, 70, 75, 85]
        );
    }

    #[test]
    fn grace_period_waits_out_an_in_flight_search() {
        let t = Arc::new(Tree::new(4));
        let gate = t.enter_search(1);
        let waited = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let (t, waited) = (Arc::clone(&t), Arc::clone(&waited));
            std::thread::spawn(move || {
                t.wait_for_searchers(0);
                waited.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !waited.load(Ordering::SeqCst),
            "grace period must not elapse while a search is in flight"
        );
        drop(gate);
        waiter.join().unwrap();
        assert!(waited.load(Ordering::SeqCst));
        // And with all gates idle it returns immediately (the caller's
        // own gate is skipped).
        let _own = t.enter_search(2);
        t.wait_for_searchers(2);
    }

    /// Stress the wait-free-search vs relocation race: a writer
    /// repeatedly performs the deterministic two-children remove that
    /// relocates key 60 while readers hammer `contains(60)`. Key 60 is
    /// logically present for the entire odd phase, so any `contains`
    /// call observing the same odd phase before and after must say so —
    /// a miss means a search slipped past the relocation's unlink (the
    /// race the search-gate grace period closes).
    #[test]
    fn relocated_key_never_flickers_under_concurrent_searches() {
        const ROUNDS: u64 = 4000;
        const READERS: usize = 3;
        let t = Arc::new(Tree::new(1 + READERS));
        let phase = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (t, phase) = (Arc::clone(&t), Arc::clone(&phase));
                std::thread::spawn(move || {
                    let tid = 1 + r;
                    let mut checked = 0u64;
                    loop {
                        let before = phase.load(Ordering::SeqCst);
                        if before == u64::MAX {
                            return checked;
                        }
                        let found = t.contains(tid, &60);
                        let after = phase.load(Ordering::SeqCst);
                        if before == after && before & 1 == 1 {
                            assert!(
                                found,
                                "contains(60) missed the relocated key in phase {before}"
                            );
                            checked += 1;
                        }
                    }
                })
            })
            .collect();
        for round in 0..ROUNDS {
            for k in [50u64, 25, 75, 60, 85, 70] {
                assert!(t.insert(0, k, k));
            }
            phase.store(round * 2 + 1, Ordering::SeqCst);
            // The relocation under test (succ 60, succ_parent 75).
            assert!(t.remove(0, &50));
            for k in [25u64, 75, 85, 70] {
                assert!(t.remove(0, &k));
            }
            assert!(t.contains(0, &60));
            phase.store(round * 2 + 2, Ordering::SeqCst);
            assert!(t.remove(0, &60));
        }
        phase.store(u64::MAX, Ordering::SeqCst);
        let verified: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        // Sanity: the readers actually raced the live phases.
        assert!(verified > 0, "readers never observed a live phase");
    }
}
