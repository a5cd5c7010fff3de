//! The bundled lazy skip list (§5).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bundle::api::ConcurrentSet;
use bundle::{
    linearize_update, prefetch_read, Bundle, BundledNode, CachePadded, Conflict, CursorStats,
    GlobalTimestamp, InlineStack, NodeLock, NodeLockGuard, PrepareCursor, Recycler, RqContext,
    ShardTxn, TokenPool, TwoPhase, TwoPhaseState, TxnValidateError,
};
use ebr::{Collector, Guard, Link, ReclaimMode, Shared};

use crate::MAX_LEVEL;

/// A tower of the skip list (private fields; public only as
/// [`TwoPhase::Node`]).
pub struct Node<K, V> {
    key: K,
    val: Option<V>,
    top_level: usize,
    lock: NodeLock,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    next: [Link<Node<K, V>>; MAX_LEVEL],
    /// Bundled reference for the bottom (data) layer link only — the
    /// paper's optimization: index layers are never consulted by in-range
    /// traversals, so they are left unbundled.
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

/// One node per level: a search's predecessors or successors.
type Tower<'g, K, V> = [NodePtr<'g, K, V>; MAX_LEVEL];

/// A located position kept across calls: `[preds, succs]` as addresses.
type Position<K, V> = [[*mut Node<K, V>; MAX_LEVEL]; 2];

/// Searches [`BundledSkipList::descend_lockstep`] runs at once.
const LOCKSTEP: usize = 64;

/// `level`, or the top level if `level` is above it.
fn clamp_level(level: usize) -> usize {
    if level < MAX_LEVEL {
        level
    } else {
        MAX_LEVEL - 1
    }
}

/// Geometric (p = 1/2) tower height from `tid`'s xorshift PRNG in
/// `seeds`, clamped to the top level (so always 0 on one level).
pub(crate) fn random_level(seeds: &[CachePadded<AtomicU64>], tid: usize) -> usize {
    let slot = &seeds[tid % seeds.len()];
    let mut x = slot.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    slot.store(x, Ordering::Relaxed);
    clamp_level(x.trailing_ones() as usize)
}

/// The skip list's [`TwoPhase::Scratch`]: the position its cursor planned
/// for each key of the current window ([`PrepareCursor::plan`]), in key
/// order. Every cursor starts it empty, so an address in it was loaded
/// under the pin of the cursor that reads it. (Private fields; public only
/// inside [`TwoPhase::Scratch`].)
pub struct Plan<K, V> {
    positions: Vec<(K, Position<K, V>)>,
}

impl<K, V> Default for Plan<K, V> {
    fn default() -> Self {
        Plan {
            positions: Vec::new(),
        }
    }
}

impl<K, V> Node<K, V> {
    /// A tower of height `top` linked to `succs` on each of its levels (not
    /// yet fully linked), for [`Shared::boxed`] to publish.
    fn new(key: K, val: Option<V>, top: usize, succs: &Tower<'_, K, V>) -> Self {
        let link = |l| Link::new(if l > top { Shared::null() } else { succs[l] });
        Node {
            key,
            val,
            top_level: top,
            lock: NodeLock::default(),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            next: std::array::from_fn(link),
            bundle: Bundle::new(),
        }
    }
}

/// Lazy skip list with bundled references on the data layer, providing
/// linearizable range queries (§5 of the paper).
pub struct BundledSkipList<K, V>
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
    seeds: Box<[CachePadded<AtomicU64>]>,
}

impl<K, V> BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a skip list with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(&RqContext::with_mode(max_threads, mode))
    }

    /// The structure's global timestamp (diagnostics). This and the next
    /// three are inherent spellings of [`TwoPhase`] items, for callers that
    /// hold the concrete type without importing the trait.
    pub fn clock(&self) -> &GlobalTimestamp {
        self.ctx.clock()
    }

    /// The context's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        self.ctx.collector()
    }

    /// Total number of bundle entries on the data layer (diagnostic).
    pub fn bundle_entries(&self, tid: usize) -> usize {
        TwoPhase::bundle_entries(self, tid)
    }

    /// Spawn a background recycler running [`TwoPhase::cleanup_bundles`]
    /// every `delay` on thread slot `tid`.
    pub fn spawn_recycler(self: &Arc<Self>, tid: usize, delay: Duration) -> Recycler
    where
        K: 'static,
        V: 'static,
    {
        TwoPhase::spawn_recycler(self, tid, delay)
    }

    fn head<'g>(&self, guard: &'g Guard<'_>) -> NodePtr<'g, K, V> {
        self.head.load(Ordering::Relaxed, guard)
    }

    fn tail<'g>(&self, guard: &'g Guard<'_>) -> NodePtr<'g, K, V> {
        self.tail.load(Ordering::Relaxed, guard)
    }

    /// Standard skip list search: fill `preds`/`succs` at every level and
    /// return the highest level at which `key` was found.
    fn find<'g>(
        &self,
        key: &K,
        preds: &mut Tower<'g, K, V>,
        succs: &mut Tower<'g, K, V>,
        guard: &'g Guard<'_>,
    ) -> Option<usize> {
        self.descend(key, self.head(guard), MAX_LEVEL - 1, preds, succs, guard)
    }

    /// The descent behind [`Self::find`], from `pred` at level `start` down.
    fn descend<'g>(
        &self,
        key: &K,
        mut pred: NodePtr<'g, K, V>,
        start: usize,
        preds: &mut Tower<'g, K, V>,
        succs: &mut Tower<'g, K, V>,
        guard: &'g Guard<'_>,
    ) -> Option<usize> {
        let tail = self.tail(guard);
        let mut lfound = None;
        for lvl in (0..=start).rev() {
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

    /// [`Self::find`] for several keys at once, into `plan`'s positions
    /// (at most [`LOCKSTEP`]), each a finger search from the position
    /// `from`: it starts at the lowest level where `from`'s successor is
    /// not before its key, with `from` copied above that level (from the
    /// root if `from` is past the key). One step of every unfinished search
    /// per round, so that their cache misses overlap instead of queueing
    /// behind each other. A step prefetches what the search's next step
    /// reads (the key and the `next[lvl]` slot of the node it looks at),
    /// and a search that reaches level 0 prefetches what its seek checks
    /// and writes: the lock, `marked` / `fully_linked` and data-layer
    /// bundle of its predecessor, and its successor's mark. The positions
    /// are hints for [`ShardCursor::locate`]; they decide nothing.
    fn descend_lockstep<'g>(
        &self,
        plan: &mut [(K, Position<K, V>)],
        [from_preds, from_succs]: &[Tower<'g, K, V>; 2],
        guard: &'g Guard<'_>,
    ) {
        debug_assert!(plan.len() <= LOCKSTEP);
        let (head, tail) = (self.head(guard), self.tail(guard));
        let mut at = [(head, tail, 0); LOCKSTEP];
        for ((key, [preds, succs]), (pred, curr, lvl)) in plan.iter_mut().zip(&mut at) {
            let passes = |l: usize| from_succs[l] == tail || *key <= from_succs[l].key;
            *lvl = (0..MAX_LEVEL).find(|&l| passes(l)).unwrap_or(MAX_LEVEL - 1);
            *pred = from_preds[*lvl];
            if *pred != head && pred.key >= *key {
                (*pred, *lvl) = (head, MAX_LEVEL - 1);
            }
            for l in *lvl + 1..MAX_LEVEL {
                preds[l] = from_preds[l].as_raw();
                succs[l] = from_succs[l].as_raw();
            }
            *curr = pred.next[*lvl].load(Ordering::Acquire, guard);
            prefetch_read(&curr.key, std::mem::size_of::<K>());
            prefetch_read(&curr.next[*lvl], 1);
        }
        // Per search: the node it stands on, the one it looks at next, and
        // the level it walks (`DONE` once it has recorded level 0).
        const DONE: usize = usize::MAX;
        let mut live = plan.len();
        while live > 0 {
            for ((key, [preds, succs]), (pred, curr, lvl)) in plan.iter_mut().zip(&mut at) {
                if *lvl == DONE {
                    continue;
                }
                if *curr != tail && curr.key < *key {
                    *pred = *curr;
                } else {
                    preds[*lvl] = pred.as_raw();
                    succs[*lvl] = curr.as_raw();
                    if *lvl == 0 {
                        *lvl = DONE;
                        live -= 1;
                        prefetch_read(&pred.lock, 1);
                        prefetch_read(&pred.marked, 1);
                        prefetch_read(&pred.fully_linked, 1);
                        prefetch_read(&pred.bundle, std::mem::size_of::<Bundle<Node<K, V>>>());
                        prefetch_read(&curr.marked, 1);
                        continue;
                    }
                    *lvl -= 1;
                }
                *curr = pred.next[*lvl].load(Ordering::Acquire, guard);
                prefetch_read(&curr.key, std::mem::size_of::<K>());
                prefetch_read(&curr.next[*lvl], 1);
            }
        }
    }

    /// [`Self::find`] resuming from `hint`, a retained predecessor/successor
    /// position (the cursor's frontier, or a planned position), walking at
    /// least `min_levels` levels (finger search). `None` = the hint is
    /// unusable for `key`; otherwise the found level.
    ///
    /// The finger search is O(log distance), not O(log n): an **ascend
    /// probe** climbs from level 0 to the highest level at which the
    /// frontier can still advance toward the target (~log₂ of the key
    /// distance), a plain descent runs from that single validated entry
    /// down to level 0, and every level *above* the start is filled by
    /// copying the frontier as-is — no pointer chasing at all. The
    /// stale-copied positions are only trustworthy under the callers'
    /// existing under-lock validation: an insert never links above its
    /// pre-drawn tower height (passed as `min_levels`, so every level
    /// the insert links is genuinely walked), and a remove validates
    /// every level against the victim (`expect_succ`), falling back to a
    /// root descent when a stale upper entry disagrees. For the same
    /// reason the found level is derived only from walked levels: a
    /// found node whose tower outgrows the walk sends the remove back to
    /// the same hints with the tower's height as `min_levels`.
    ///
    /// A frontier entry that goes stale *after* its validity check
    /// (unlinked mid-walk) can only yield a stale position, never a torn
    /// one (an unlinked node's forward pointers are not cleared), and
    /// every caller re-validates positions under node locks before
    /// acting.
    fn find_hinted<'g>(
        &self,
        key: &K,
        hint: &[Tower<'g, K, V>; 2],
        min_levels: usize,
        preds: &mut Tower<'g, K, V>,
        succs: &mut Tower<'g, K, V>,
        guard: &'g Guard<'_>,
    ) -> Option<Option<usize>> {
        let [front_preds, front_succs] = hint;
        let (head, tail) = (self.head(guard), self.tail(guard));
        // A frontier entry is usable while it is live, fully linked and
        // strictly before the target.
        let usable = |c: NodePtr<'g, K, V>| {
            !c.is_null()
                && c != head
                && c.key < *key
                && !c.marked.load(Ordering::Acquire)
                && c.fully_linked.load(Ordering::Acquire)
        };
        // Ascend probe: the highest level at which the frontier entry is
        // still usable and can still advance toward the target. Breaks on
        // the first level that cannot advance — higher frontier entries
        // sit at even smaller keys, so walking would start further back.
        let mut ascend = usize::MAX; // MAX = no usable level
        for (lvl, &cand) in front_preds.iter().enumerate() {
            if !usable(cand) {
                break;
            }
            ascend = lvl;
            let nxt = cand.next[lvl].load(Ordering::Acquire, guard);
            if nxt == tail || nxt.key >= *key {
                break;
            }
        }
        // An insert must genuinely walk every level it will link; when
        // its tower outgrows the probe, the start entry at that height
        // needs its own validation (rare — towers are geometric).
        let start = clamp_level(ascend.max(min_levels));
        if ascend == usize::MAX || (start > ascend && !usable(front_preds[start])) {
            return None;
        }
        // Levels above the start: the frontier position verbatim (plain
        // copies; re-validated under locks before any use).
        preds[(start + 1)..].copy_from_slice(&front_preds[(start + 1)..]);
        succs[(start + 1)..].copy_from_slice(&front_succs[(start + 1)..]);
        // Plain descent from the validated start entry.
        Some(self.descend(key, front_preds[start], start, preds, succs, guard))
    }

    /// `true` if `pred` still links to `succ` on `lvl` with both unmarked
    /// and `pred` fully linked.
    ///
    /// `fully_linked` on the predecessor is load-bearing for the bundles,
    /// not just the tower: an insert publishes its node's data-layer
    /// pointers *before* preparing its bundle (only `fullyLinked` is the
    /// linearization point). Using such a half-linked node as a predecessor
    /// would write our bundle entry into its still-empty bundle; the insert
    /// would then finalize its own entry with a larger timestamp,
    /// reordering history so snapshots resurrect our removed successor (a
    /// use-after-free once the successor's memory is reclaimed).
    fn linked(
        &self,
        pred: NodePtr<'_, K, V>,
        lvl: usize,
        succ: NodePtr<'_, K, V>,
        guard: &Guard<'_>,
    ) -> bool {
        let s_marked = succ != self.tail(guard) && succ.marked.load(Ordering::Acquire);
        !pred.marked.load(Ordering::Acquire)
            && pred.fully_linked.load(Ordering::Acquire)
            && !s_marked
            && pred.next[lvl].load(Ordering::Acquire, guard) == succ
    }

    /// Lock `preds[0..=top]`, skipping duplicates, and validate that every
    /// level still links `pred -> succ` with both unmarked. The locks taken
    /// go into `guards` (dropping it releases them), whatever the verdict.
    /// One guard per distinct predecessor, `top + 1 <= MAX_LEVEL` at most:
    /// the stack never spills and — filled in place, not returned — is
    /// never copied, so a primitive update takes its locks without
    /// allocating.
    fn lock_and_validate<'a>(
        &self,
        tid: usize,
        (preds, succs): (&'a Tower<'_, K, V>, &Tower<'_, K, V>),
        top: usize,
        expect_succ: Option<NodePtr<'_, K, V>>,
        guards: &mut InlineStack<NodeLockGuard<'a>, MAX_LEVEL>,
        guard: &Guard<'_>,
    ) -> bool {
        for lvl in 0..=top {
            if lvl == 0 || preds[lvl] != preds[lvl - 1] {
                guards.push(preds[lvl].lock.lock(tid));
            }
            if !self.linked(preds[lvl], lvl, expect_succ.unwrap_or(succs[lvl]), guard) {
                return false;
            }
        }
        true
    }

    /// Transaction-aware variant of `lock_and_validate`: bounded `try_lock`
    /// through the token, which skips the locks it already holds (a
    /// predecessor shared by several levels too).
    /// `Ok(true)` = locked and valid; `Ok(false)` = validation failed (the
    /// caller releases what it locked since its savepoint and retries its
    /// traversal); `Err(Conflict)` = a lock could not be acquired (caller
    /// aborts).
    fn txn_lock_and_validate(
        &self,
        txn: &mut ShardTxn<BundledSkipList<K, V>>,
        (preds, succs): (&Tower<'_, K, V>, &Tower<'_, K, V>),
        top: usize,
        expect_succ: Option<NodePtr<'_, K, V>>,
        guard: &Guard<'_>,
    ) -> Result<bool, Conflict> {
        for lvl in 0..=top {
            txn.core.lock(preds[lvl])?;
            if !self.linked(preds[lvl], lvl, expect_succ.unwrap_or(succs[lvl]), guard) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// One eager structural change of a staged write (see [`TwoPhase::revert`]).
pub enum SkipUndo<K, V> {
    /// A staged insert linked `node` between `preds` and `succs` on
    /// levels `0..=top`.
    Link {
        node: *mut Node<K, V>,
        preds: [*mut Node<K, V>; MAX_LEVEL],
        succs: [*mut Node<K, V>; MAX_LEVEL],
        top: usize,
    },
    /// A staged remove marked `victim` and unlinked it from `preds` on
    /// levels `0..=top`.
    Unlink {
        victim: *mut Node<K, V>,
        preds: [*mut Node<K, V>; MAX_LEVEL],
        top: usize,
    },
}

impl<K, V> TwoPhase for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Node = Node<K, V>;
    type Undo = SkipUndo<K, V>;
    type Scratch = Plan<K, V>;
    type Cursor<'a>
        = ShardCursor<'a, K, V>
    where
        Self: 'a;

    fn with_context(ctx: &RqContext) -> Self {
        let max_threads = ctx.max_threads();
        let (head, tail) = ctx.collector().pin_exclusive(|guard| {
            let tail = Node::new(
                K::default(),
                None,
                MAX_LEVEL - 1,
                &[Shared::null(); MAX_LEVEL],
            );
            let tail = Shared::boxed(tail, guard);
            let head = Node::new(K::default(), None, MAX_LEVEL - 1, &[tail; MAX_LEVEL]);
            let head = Shared::boxed(head, guard);
            head.fully_linked.store(true, Ordering::Release);
            tail.fully_linked.store(true, Ordering::Release);
            head.bundle.init(tail, 0);
            (Link::new(head), Link::new(tail))
        });
        let seeds = (0..max_threads.max(1))
            .map(|i| {
                CachePadded::new(AtomicU64::new(
                    0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1),
                ))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BundledSkipList {
            head,
            tail,
            ctx: ctx.clone(),
            tokens: TokenPool::new(max_threads),
            seeds,
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
        // Phase 1 (GetFirstNodeInRange): descend through the index layers
        // using the newest pointers to reach the data-layer node preceding
        // the range; phase 2 enters and traverses the range strictly
        // through the data-layer bundles.
        let (mut pred, tail) = (self.head(guard), self.tail(guard));
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = pred.next[lvl].load(Ordering::Acquire, guard);
            while curr != tail && curr.key < *low {
                pred = curr;
                curr = pred.next[lvl].load(Ordering::Acquire, guard);
            }
        }
        let hop = |n: NodePtr<'g, K, V>| n.bundle.dereference(ts, guard);
        bundle::walk_chain_at::<Self>(pred, tail, low, high, hop, visit)
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
            curr = curr.next[0].load(Ordering::Acquire, guard);
        }
    }

    /// The cursor retains the per-level predecessor frontier of the last
    /// located position and resumes subsequent finds from it (finger
    /// search), so a key-sorted batch pays one full descent plus per-level
    /// walks instead of a root descent per op; a planned key resumes from
    /// its planned position instead.
    fn txn_cursor(&self, mut txn: ShardTxn<Self>) -> ShardCursor<'_, K, V> {
        // The cursor-lifetime pin keeps every retained frontier and planned
        // pointer allocated between seeks (pins are reentrant). A plan
        // left by an earlier cursor was loaded under an earlier pin.
        let guard = self.pin(txn.core.tid());
        txn.scratch.positions.clear();
        ShardCursor {
            list: self,
            txn,
            _guard: guard,
            frontier: [[std::ptr::null_mut(); MAX_LEVEL]; 2],
            has_frontier: false,
            next_planned: 0,
            stats: CursorStats::default(),
        }
    }

    /// Re-walks the data layer over `low..=high` via the newest pointers,
    /// locking the level-0 gap predecessor and every in-range node.
    /// Phantom-safe: every insert of an in-range key must link level 0
    /// through one of them, and every remove must lock its victim.
    fn validate_walk(
        &self,
        core: &mut TwoPhaseState<Node<K, V>>,
        _scratch: &mut Plan<K, V>,
        expected: &[(K, usize)],
        low: &K,
        high: &K,
        guard: &Guard<'_>,
    ) -> Result<(), TxnValidateError> {
        let locate = || {
            let (mut preds, mut succs) = ([Shared::null(); MAX_LEVEL], [Shared::null(); MAX_LEVEL]);
            self.find(low, &mut preds, &mut succs, guard);
            (preds[0], succs[0])
        };
        let pred_valid = |pred: NodePtr<'_, K, V>, first: NodePtr<'_, K, V>| {
            !pred.marked.load(Ordering::Acquire)
                && pred.fully_linked.load(Ordering::Acquire)
                && pred.next[0].load(Ordering::Acquire, guard) == first
        };
        let step = |prev: NodePtr<'_, K, V>, curr: NodePtr<'_, K, V>| {
            // Removed or half-linked nodes are torn observations.
            let torn = curr.marked.load(Ordering::Acquire)
                || !curr.fully_linked.load(Ordering::Acquire)
                || prev.next[0].load(Ordering::Acquire, guard) != curr;
            (!torn).then(|| curr.next[0].load(Ordering::Acquire, guard))
        };
        bundle::validate_chain::<Self>(
            core,
            expected,
            high,
            self.tail(guard),
            locate,
            pred_valid,
            step,
        )
    }

    unsafe fn revert(&self, undo: SkipUndo<K, V>, guard: &Guard<'_>) {
        let node = |p| Shared::from_raw(p, guard);
        match undo {
            SkipUndo::Link {
                node: created,
                preds,
                succs,
                top,
            } => {
                // Mark the stillborn node so a primitive operation
                // blocked on its lock re-validates and retries.
                node(created).marked.store(true, Ordering::SeqCst);
                for lvl in (0..=top).rev() {
                    node(preds[lvl]).next[lvl].store(node(succs[lvl]), Ordering::SeqCst);
                }
            }
            SkipUndo::Unlink { victim, preds, top } => {
                for (lvl, &pred) in preds.iter().enumerate().take(top + 1) {
                    node(pred).next[lvl].store(node(victim), Ordering::SeqCst);
                }
                node(victim).marked.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// A prepare cursor over one [`ShardTxn`] (see
/// [`TwoPhase::txn_cursor`] and [`bundle::PrepareCursor`]).
///
/// The retained frontier is the last located position's per-level
/// predecessor/successor arrays (with a freshly staged node substituted
/// on the levels of its tower). Level-0 entries after a staged write
/// are nodes the transaction holds locked; upper levels are unlocked
/// *hints*, validated (unmarked, fully linked, still before the target)
/// up to the finger-search start level before each resume, with stale
/// positions above it caught by the under-lock validation every prepare
/// performs (the retry falls back to a root descent). A planned position
/// ([`PrepareCursor::plan`]) is unlocked throughout and gets the same
/// checks.
pub struct ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    list: &'a BundledSkipList<K, V>,
    txn: ShardTxn<BundledSkipList<K, V>>,
    /// Keeps every retained frontier pointer allocated between seeks.
    _guard: Guard<'a>,
    /// The retained finger: `preds` and `succs` of the last located
    /// position, as addresses (meaningful once `has_frontier`).
    frontier: Position<K, V>,
    has_frontier: bool,
    /// The first planned position (in `txn.scratch`) whose key a seek may
    /// still target: seeks come in ascending order.
    next_planned: usize,
    stats: CursorStats,
}

impl<'a, K, V> ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// One find, resuming from the first usable of `key`'s planned
    /// position and the retained frontier when `hint` is `Some(min_levels)`
    /// (the caller passes it on the first attempt only — a retry within
    /// one seek restarts from the root, but for a remove's one walk of a
    /// tower taller than its first), else (`None`) from the root.
    /// `min_levels` is the highest level the caller will eagerly link (an
    /// insert's pre-drawn tower height): those levels are always genuinely
    /// walked, never stale-copied. From a planned position every level of
    /// the tower found there is walked too, so a remove learns its
    /// victim's height from the walk.
    fn locate<'g>(
        &mut self,
        key: &K,
        hint: Option<usize>,
        preds: &mut Tower<'g, K, V>,
        succs: &mut Tower<'g, K, V>,
        guard: &'g Guard<'_>,
    ) -> Option<usize> {
        let list = self.list;
        if let Some(min_levels) = hint {
            if let Some(i) = self.planned(key) {
                let planned = self.hint(Some(i), guard);
                let [_, s] = &planned;
                let mut levels = min_levels;
                if s[0] != list.tail(guard) && s[0].key == *key {
                    levels = levels.max(s.iter().take_while(|&&n| n == s[0]).count() - 1);
                }
                if let Some(lfound) = list.find_hinted(key, &planned, levels, preds, succs, guard) {
                    self.stats.hinted += 1;
                    return lfound;
                }
            }
            if self.has_frontier {
                let frontier = self.hint(None, guard);
                let resumed = list.find_hinted(key, &frontier, min_levels, preds, succs, guard);
                if let Some(lfound) = resumed {
                    self.stats.hinted += 1;
                    return lfound;
                }
            }
        }
        self.stats.descents += 1;
        list.find(key, preds, succs, guard)
    }

    /// The index of `key`'s planned position, if the current plan has one.
    /// Skips the planned keys below `key` for good, but not `key` itself: a
    /// `Set` seeks its key twice.
    fn planned(&mut self, key: &K) -> Option<usize> {
        let positions = &self.txn.scratch.positions;
        while positions.get(self.next_planned)?.0 < *key {
            self.next_planned += 1;
        }
        (positions[self.next_planned].0 == *key).then_some(self.next_planned)
    }

    /// The retained frontier (`None`; meaningful once `has_frontier`) or
    /// planned position `i` (`Some(i)`) back under `guard`.
    fn hint<'g>(&self, planned: Option<usize>, guard: &'g Guard<'_>) -> [Tower<'g, K, V>; 2] {
        let [p, s] = planned.map_or(self.frontier, |i| self.txn.scratch.positions[i].1);
        // SAFETY: `from_raw` of a frontier or planned position: loaded by an
        // earlier seek or plan, under the cursor's own pin, which `guard`
        // nests in.
        let admit = |p| unsafe { Shared::from_raw(p, guard) };
        [p.map(admit), s.map(admit)]
    }

    /// Whether ascending `keys` (at least one) lie so close past the
    /// frontier that its finger walks are cheaper than a plan: inside the
    /// frontier's gap at a level with about sixteen nodes per key below
    /// it.
    fn near_frontier(&self, keys: &[K], guard: &Guard<'_>) -> bool {
        let (first, last) = (&keys[0], &keys[keys.len() - 1]);
        let level = clamp_level(keys.len().ilog2() as usize + 4);
        let [preds, succs] = self.hint(None, guard);
        let (pred, succ) = (preds[0], succs[level]);
        let (head, tail) = (self.list.head(guard), self.list.tail(guard));
        (pred == head || pred.key < *first) && (succ == tail || *last < succ.key)
    }

    /// Retain the located position as the next frontier, with a just-linked
    /// `node` (tower height `top`) substituted on the levels of its tower:
    /// it now sits between `preds` and `succs` there.
    fn retain(
        &mut self,
        preds: &Tower<'_, K, V>,
        succs: &Tower<'_, K, V>,
        node: Option<(NodePtr<'_, K, V>, usize)>,
    ) {
        let [p, s] = &mut self.frontier;
        self.has_frontier = true;
        for lvl in 0..MAX_LEVEL {
            p[lvl] = match node {
                Some((node, top)) if lvl <= top => node.as_raw(),
                _ => preds[lvl].as_raw(),
            };
            s[lvl] = succs[lvl].as_raw();
        }
    }
}

impl<'a, K, V> PrepareCursor<K, V> for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Txn = ShardTxn<BundledSkipList<K, V>>;

    /// Stage an insert at the sought position: eager structural link (so
    /// later keys of the same transaction observe it) with the affected
    /// data-layer bundle entries left *pending* until the transaction's
    /// single commit timestamp. `Ok(false)` = key already present; the
    /// present node stays locked so the no-op outcome still holds at the
    /// commit timestamp.
    fn seek_prepare_put(&mut self, key: K, value: V) -> Result<bool, Conflict> {
        let list = self.list;
        let guard = list.pin(self.txn.core.tid());
        let top = random_level(&list.seeds, self.txn.core.tid());
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let mut hint = Some(top);
        loop {
            let lfound = self.locate(&key, hint.take(), &mut preds, &mut succs, &guard);
            let txn = &mut self.txn;
            if let Some(l) = lfound {
                let found = succs[l];
                if found.marked.load(Ordering::Acquire) {
                    continue;
                }
                while !found.fully_linked.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // Pin the no-op: hold the present node's lock until
                // commit (a remove must acquire it, so the key stays
                // present). If it got marked before we locked it, the
                // remove linearized first — retry and miss it.
                let sp = txn.core.savepoint();
                txn.core.lock(found)?;
                if found.marked.load(Ordering::Acquire) {
                    txn.core.retry_since(sp)?;
                    continue;
                }
                let at = Some(found.as_raw() as usize);
                txn.staged.record(key, at, at);
                // Retain the position just *before* the found key (its
                // successors are the found node itself on the levels of
                // its tower, which keeps the frontier's succs honest).
                self.retain(&preds, &succs, None);
                return Ok(false);
            }
            let sp = txn.core.savepoint();
            if !list.txn_lock_and_validate(txn, (&preds, &succs), top, None, &guard)? {
                txn.core.release_since(sp);
                continue;
            }
            let node = Shared::boxed(Node::new(key, Some(value), top, &succs), &guard);
            // Locked until commit/abort, so nobody builds on a node we may
            // roll back (uncontended: nobody can reach it yet).
            txn.core.lock(node)?;
            for (lvl, pred) in preds.iter().enumerate().take(top + 1) {
                pred.next[lvl].store(node, Ordering::SeqCst);
            }
            txn.core.prepare_bundle(node, &node.bundle, succs[0]);
            txn.core.prepare_bundle(preds[0], &preds[0].bundle, node);
            // Eager linearization effect; snapshot visibility is still
            // gated on the pending bundle entries' commit timestamp.
            node.fully_linked.store(true, Ordering::SeqCst);
            txn.core.add_created(node);
            txn.staged.record(key, None, Some(node.as_raw() as usize));
            txn.undo.push(SkipUndo::Link {
                node: node.as_raw(),
                preds: preds.map(Shared::as_raw),
                succs: succs.map(Shared::as_raw),
                top,
            });
            self.retain(&preds, &succs, Some((node, top)));
            return Ok(true);
        }
    }

    /// Stage a remove at the sought position. `Ok(false)` = key absent;
    /// the data-layer gap (level-0 predecessor whose successor skips past
    /// `key`) stays locked, so the no-op outcome still holds at the
    /// commit timestamp (every insert of `key` must link level 0 through
    /// that node).
    fn seek_prepare_remove(&mut self, key: &K) -> Result<bool, Conflict> {
        let list = self.list;
        let guard = list.pin(self.txn.core.tid());
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let mut hint = Some(0);
        let mut tall_retry = true;
        loop {
            let lfound = self.locate(key, hint.take(), &mut preds, &mut succs, &guard);
            let may_rewalk_tower = std::mem::take(&mut tall_retry);
            let txn = &mut self.txn;
            let (victim, level) = match lfound {
                Some(l) => (succs[l], l),
                None => {
                    // Pin the no-op: hold the level-0 gap until commit.
                    let pred = preds[0];
                    let sp = txn.core.savepoint();
                    txn.core.lock(pred)?;
                    let valid = !pred.marked.load(Ordering::Acquire)
                        && pred.fully_linked.load(Ordering::Acquire)
                        && pred.next[0].load(Ordering::Acquire, &guard) == succs[0];
                    if !valid {
                        txn.core.retry_since(sp)?;
                        continue;
                    }
                    txn.staged.record(*key, None, None);
                    self.retain(&preds, &succs, None);
                    return Ok(false);
                }
            };
            let settled = victim.fully_linked.load(Ordering::Acquire)
                && !victim.marked.load(Ordering::Acquire);
            if !(settled && victim.top_level == level) {
                // A tower taller than the walk (its upper levels were copied
                // from the hint) is walked whole from the same hints, once.
                // Otherwise a concurrent update owns the key's fate right
                // now; retry until the physical state settles (the owner
                // holds all of its locks and finishes without waiting on us).
                if settled && may_rewalk_tower && victim.top_level > level {
                    hint = Some(victim.top_level);
                }
                continue;
            }
            let top = victim.top_level;
            let sp = txn.core.savepoint();
            txn.core.lock(victim)?;
            if victim.marked.load(Ordering::Acquire)
                || !list.txn_lock_and_validate(txn, (&preds, &succs), top, Some(victim), &guard)?
            {
                txn.core.release_since(sp);
                continue;
            }
            let next = |lvl: usize| victim.next[lvl].load(Ordering::Acquire, &guard);
            txn.core.prepare_bundle(preds[0], &preds[0].bundle, next(0));
            // Eager logical delete + physical unlink (top-down).
            victim.marked.store(true, Ordering::SeqCst);
            for lvl in (0..=top).rev() {
                preds[lvl].next[lvl].store(next(lvl), Ordering::SeqCst);
            }
            txn.core.add_victim(victim);
            txn.staged
                .record(*key, Some(victim.as_raw() as usize), None);
            txn.undo.push(SkipUndo::Unlink {
                victim: victim.as_raw(),
                preds: preds.map(Shared::as_raw),
                top,
            });
            self.retain(&preds, &succs, None);
            return Ok(true);
        }
    }

    /// Locate every key of `keys` at once (`descend_lockstep`)
    /// under the cursor's pin, each by a finger search from the frontier,
    /// replacing the previous plan — unless the keys are dense right past
    /// the frontier, which then finds them for less than a plan costs. A
    /// cursor with no frontier yet first locates `keys[0]` from the root,
    /// as its seek would have, and retains that as the frontier. No plan
    /// work counts in [`CursorStats`], which counts seek attempts.
    fn plan(&mut self, keys: &[K]) {
        // One level has no index to descend: a plan could only repeat the
        // frontier's walk.
        if MAX_LEVEL == 1 {
            return;
        }
        let list = self.list;
        let guard = list.pin(self.txn.core.tid());
        self.next_planned = 0;
        self.txn.scratch.positions.clear();
        let Some(first) = keys.first() else {
            return;
        };
        if !self.has_frontier {
            let (mut preds, mut succs) = ([Shared::null(); MAX_LEVEL], [Shared::null(); MAX_LEVEL]);
            list.find(first, &mut preds, &mut succs, &guard);
            self.retain(&preds, &succs, None);
        }
        if self.near_frontier(keys, &guard) {
            return;
        }
        let from = self.hint(None, &guard);
        let positions = &mut self.txn.scratch.positions;
        let unplanned = [[std::ptr::null_mut(); MAX_LEVEL]; 2];
        positions.extend(keys.iter().map(|&k| (k, unplanned)));
        for window in positions.chunks_mut(LOCKSTEP) {
            list.descend_lockstep(window, &from, &guard);
        }
    }

    /// Read `key`'s current value (newest pointers — the transaction's
    /// own eager writes are visible) through the frontier, retaining the
    /// located predecessors as an *unlocked* hint. Takes no locks and
    /// stages nothing; linearizes at the per-level frontier validity
    /// checks (an adopted entry is unmarked, hence still reachable, at
    /// adoption time).
    fn seek_read(&mut self, key: &K) -> Option<V> {
        let guard = self.list.pin(self.txn.core.tid());
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let lfound = self.locate(key, Some(0), &mut preds, &mut succs, &guard);
        self.retain(&preds, &succs, None);
        let n = succs[lfound?];
        if n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire) {
            n.val.clone()
        } else {
            None
        }
    }

    /// Hinted-resume vs root-descent counters accumulated so far.
    fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Give the transaction token back (dropping the frontier and the
    /// cursor's EBR pin); consume it with [`TwoPhase::txn_finalize`] or
    /// [`TwoPhase::txn_abort`].
    fn finish(self) -> ShardTxn<BundledSkipList<K, V>> {
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

impl<K, V> BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The node holding `key` if it is present: found, fully linked and
    /// not removed.
    fn present<'g>(&self, key: &K, guard: &'g Guard<'_>) -> Option<NodePtr<'g, K, V>> {
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let n = succs[self.find(key, &mut preds, &mut succs, guard)?];
        (n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire)).then_some(n)
    }

    /// [`ConcurrentSet::insert`], running `linked` once the new node is
    /// fully linked but before its bundles are final (the window in which
    /// a token must not build on it; tests hold it open through `linked`).
    fn insert_then(&self, tid: usize, key: K, value: V, linked: impl FnOnce()) -> bool {
        let guard = self.pin(tid);
        let top = random_level(&self.seeds, tid);
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        loop {
            if let Some(l) = self.find(&key, &mut preds, &mut succs, &guard) {
                let found = succs[l];
                if !found.marked.load(Ordering::Acquire) {
                    // Wait until the concurrent inserter finishes linking.
                    while !found.fully_linked.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    return false;
                }
                // Found but being removed: retry.
                continue;
            }
            let mut guards = InlineStack::new();
            if !self.lock_and_validate(tid, (&preds, &succs), top, None, &mut guards, &guard) {
                continue;
            }
            let node = Shared::boxed(Node::new(key, Some(value), top, &succs), &guard);
            // Locked before it is reachable, as every prepare needs (the
            // `TwoPhase` lock contract), and until its bundles are final.
            let node_lock = node.lock.lock(tid);
            // Physically link bottom-up (traversals tolerate partially
            // linked towers; `fullyLinked` is the linearization point).
            for (lvl, pred) in preds.iter().enumerate().take(top + 1) {
                pred.next[lvl].store(node, Ordering::SeqCst);
            }
            // Bundles affected: the new node's data-layer link and the
            // data-layer predecessor's link.
            let bundles = [(&node.bundle, succs[0]), (&preds[0].bundle, node)];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                node.fully_linked.store(true, Ordering::SeqCst);
                linked();
            });
            drop((node_lock, guards));
            return true;
        }
    }
}

impl<K, V> ConcurrentSet<K, V> for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        self.insert_then(tid, key, value, || ())
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
            // Candidate check (Herlihy et al.): fully linked at its full
            // height and not already logically deleted.
            if !(victim.fully_linked.load(Ordering::Acquire)
                && victim.top_level == level
                && !victim.marked.load(Ordering::Acquire))
            {
                return false;
            }
            let top = victim.top_level;
            let victim_lock = victim.lock.lock(tid);
            if victim.marked.load(Ordering::Acquire) {
                return false;
            }
            let mut guards = InlineStack::new();
            let pair = (&preds, &succs);
            if !self.lock_and_validate(tid, pair, top, Some(victim), &mut guards, &guard) {
                drop(guards);
                drop(victim_lock);
                continue;
            }
            let next = |lvl: usize| victim.next[lvl].load(Ordering::Acquire, &guard);
            // Only the data-layer predecessor's bundle changes; the victim's
            // own bundle keeps describing the pre-removal physical state.
            let bundles = [(&preds[0].bundle, next(0))];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the logical delete (§5).
                victim.marked.store(true, Ordering::SeqCst);
            });
            // Physical unlink, top-down, within the same critical section.
            for lvl in (0..=top).rev() {
                preds[lvl].next[lvl].store(next(lvl), Ordering::SeqCst);
            }
            drop(guards);
            drop(victim_lock);
            // SAFETY: `retire`: unlinked on every level, and the one bundle
            // entry still pointing at it is older than the removal.
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
        let tail = self.tail(&guard);
        let mut n = 0;
        let mut curr = self.head(&guard).next[0].load(Ordering::Acquire, &guard);
        while curr != tail {
            if curr.fully_linked.load(Ordering::Acquire) && !curr.marked.load(Ordering::Acquire) {
                n += 1;
            }
            curr = curr.next[0].load(Ordering::Acquire, &guard);
        }
        n
    }
}

impl<K, V> Drop for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        self.ctx.collector().pin_exclusive(|guard| {
            let mut curr = self.head(guard);
            while !curr.is_null() {
                let next = curr.next[0].load(Ordering::Relaxed, guard);
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

    type Sl = BundledSkipList<u64, u64>;

    #[test]
    fn empty_skiplist_behaviour() {
        let s = Sl::new(1);
        assert!(!s.contains(0, &1));
        assert!(!s.remove(0, &1));
        assert_eq!(s.get(0, &1), None);
        assert_eq!(s.len(0), 0);
        let mut out = Vec::new();
        assert_eq!(s.range_query(0, &0, &100, &mut out), 0);
    }

    #[test]
    fn reclaiming_churn_never_resurrects_removed_nodes() {
        // Regression test: an insert publishes its data-layer pointers
        // before preparing its bundle; a remove that accepted such a
        // half-linked node as predecessor would write its skip-entry into
        // the empty bundle, and the insert's later (larger-timestamp)
        // finalize would make snapshots traverse the removed successor —
        // freed memory once EBR reclaims it. `lock_and_validate` requiring
        // `fully_linked` predecessors closes the race; this churn keeps
        // insert/remove/range-query interleavings running with
        // reclamation enabled to catch any regression.
        use std::sync::atomic::AtomicBool;
        const THREADS: usize = 4;
        let s = Arc::new(Sl::with_mode(THREADS, ReclaimMode::Reclaim));
        for k in (0..4_096u64).step_by(2) {
            s.insert(0, k, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seed = (tid as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                    let mut out = Vec::new();
                    let mut insert_next = true;
                    while !stop.load(Ordering::Relaxed) {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 4_096;
                        match seed % 8 {
                            0..=3 => {
                                if insert_next {
                                    s.insert(tid, k, k);
                                } else {
                                    s.remove(tid, &k);
                                }
                                insert_next = !insert_next;
                            }
                            4..=6 => {
                                let _ = s.contains(tid, &k);
                            }
                            _ => {
                                let hi = k.saturating_add(63);
                                s.range_query(tid, &k, &hi, &mut out);
                                assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            }
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(800));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        s.range_query(0, &0, &4_096, &mut out);
        assert_eq!(out.len(), s.len(0));
    }

    #[test]
    fn cursor_sorted_batch_resumes_from_the_frontier() {
        // A long ascending staged batch must be dominated by hinted
        // resumes: one initial descent, then finger steps.
        let s = Sl::new(1);
        for k in (1..2_000u64).step_by(2) {
            s.insert(0, k, k);
        }
        let mut cur = s.txn_cursor(s.txn_begin(0));
        for k in (100..1_100u64).step_by(20) {
            assert_eq!(cur.seek_prepare_put(k, k), Ok(true), "key {k}");
        }
        let stats = cur.stats();
        assert_eq!(stats.hinted + stats.descents, 50);
        assert!(
            stats.hinted >= 49,
            "ascending seeks must ride the frontier: {stats:?}"
        );
        let ts = s.clock().advance(0);
        s.txn_finalize(cur.finish(), ts);
        assert_eq!(s.len(0), 1_000 + 50);
    }

    #[test]
    fn a_plan_records_the_positions_a_find_would() {
        // Quiescent, the lockstep descents must end where one `find` per
        // key does, on every level: keys below, between, on and above the
        // present ones, a duplicate, and more keys than one lockstep round.
        let s = Sl::new(1);
        for k in (10..3_000u64).step_by(3) {
            s.insert(0, k, k);
        }
        let mut keys: Vec<u64> = (0..3_100u64).step_by(37).collect();
        keys.push(keys[5]);
        keys.sort_unstable();
        assert!(keys.len() > LOCKSTEP);
        let mut cur = s.txn_cursor(s.txn_begin(0));
        cur.plan(&keys);
        // One level has no index to plan through: the plan stays empty.
        assert_eq!(cur.txn.scratch.positions.is_empty(), MAX_LEVEL == 1);
        let g = s.pin(0);
        let (mut preds, mut succs) = ([Shared::null(); MAX_LEVEL], [Shared::null(); MAX_LEVEL]);
        for (key, [p, q]) in &cur.txn.scratch.positions {
            s.find(key, &mut preds, &mut succs, &g);
            assert_eq!(
                (*p, *q),
                (preds.map(Shared::as_raw), succs.map(Shared::as_raw)),
                "{key}"
            );
        }
        drop(g);
        s.txn_abort(cur.finish());
    }

    #[test]
    fn cursor_read_hint_invalidation_stays_correct() {
        // seek_read retains an *unlocked* per-level frontier; foreign
        // removes of retained nodes must force the next seek back onto a
        // root descent, and must not corrupt later seeks.
        let s = Sl::new(2);
        for k in [10u64, 20, 30, 40, 50] {
            s.insert(0, k, k);
        }
        let mut cur = s.txn_cursor(s.txn_begin(1));
        assert_eq!(cur.seek_read(&20), Some(20));
        let after_read = cur.stats();
        // Foreign primitive removes of nodes around the retained frontier
        // (the cursor holds no locks yet, so no deadlock is possible).
        assert!(s.remove(0, &10));
        assert!(s.remove(0, &20));
        // Forward seeks must still produce exact outcomes; the frontier's
        // level-0 predecessor (10) is marked, so the first one descends.
        assert_eq!(cur.seek_prepare_put(20, 200), Ok(true), "20 was removed");
        assert_eq!(
            cur.stats().descents,
            after_read.descents + 1,
            "a marked frontier hint must force a root descent"
        );
        assert_eq!(cur.seek_prepare_remove(&30), Ok(true));
        // Backward seek: the frontier lies past the key, so a descent.
        let before_back = cur.stats();
        assert_eq!(cur.seek_prepare_remove(&10), Ok(false), "10 was removed");
        assert_eq!(cur.stats().descents, before_back.descents + 1);
        let ts = s.clock().advance(1);
        s.txn_finalize(cur.finish(), ts);
        let mut out = Vec::new();
        s.range_query(0, &0, &100, &mut out);
        assert_eq!(out, vec![(20, 200), (40, 40), (50, 50)]);
    }

    #[test]
    fn a_token_keeps_off_a_primitive_insert_until_it_is_final() {
        // An insert of 10 held between link and finalize: a token putting
        // 11 behind the new node conflicts on its lock instead of
        // restaging the insert's pending entry with an uncommitted node.
        let s = &Sl::new(2);
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
    fn towers_span_multiple_levels() {
        // Statistical sanity for random_level: with 2000 inserts we expect
        // towers above level 0 (probability of all-zero heights ~ 2^-2000).
        let s = Sl::new(1);
        for k in 0..2000u64 {
            s.insert(0, k, k);
        }
        let g = s.pin(0);
        // One level has no index layer to check.
        if let Some(index) = s.head(&g).next.get(1) {
            let has_tall = index.load(Ordering::Acquire, &g) != s.tail(&g);
            assert!(has_tall, "index layers should be populated");
        }
        assert_eq!(s.len(0), 2000);
    }

    #[test]
    fn space_overhead_is_two_entries_per_insert() {
        // §4 "Space overhead": n inserts (no removals) produce 2n bundle
        // entries plus the initial sentinel entry, whatever the towers:
        // only the data layer is bundled.
        let s = Sl::new(1);
        let n = 100u64;
        for k in 0..n {
            s.insert(0, k, k);
        }
        assert_eq!(s.bundle_entries(0), (2 * n + 1) as usize);
    }
}
