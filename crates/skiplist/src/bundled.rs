//! The bundled lazy skip list (§5).

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};

use bundle::api::ConcurrentSet;
use bundle::{
    linearize_update, Bundle, Conflict, CursorStats, GlobalTimestamp, InlineStack, PrepareCursor,
    Recycler, RqContext, ShardTxn, TokenPool, TwoPhase, TwoPhaseState, TxnValidateError,
};
use ebr::{Collector, Guard, ReclaimMode};

use crate::MAX_LEVEL;

/// A tower of the skip list (private fields; public only as
/// [`TwoPhase::Node`]).
pub struct Node<K, V> {
    key: K,
    val: Option<V>,
    top_level: usize,
    lock: Mutex<()>,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    next: [AtomicPtr<Node<K, V>>; MAX_LEVEL],
    /// Bundled reference for the bottom (data) layer link only — the
    /// paper's optimization: index layers are never consulted by in-range
    /// traversals, so they are left unbundled.
    bundle: Bundle<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn new(key: K, val: Option<V>, top_level: usize) -> *mut Node<K, V> {
        Box::into_raw(Box::new(Node {
            key,
            val,
            top_level,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            next: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            bundle: Bundle::new(),
        }))
    }
}

/// Lazy skip list with bundled references on the data layer, providing
/// linearizable range queries (§5 of the paper).
pub struct BundledSkipList<K, V>
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
    seeds: Box<[CachePadded<AtomicU64>]>,
}

unsafe impl<K, V> Send for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}
unsafe impl<K, V> Sync for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
}

impl<K, V> BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create a skip list with an explicit reclamation mode.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(max_threads, mode, &RqContext::new(max_threads))
    }

    /// The structure's global timestamp (diagnostics). This and the next
    /// three are inherent spellings of [`TwoPhase`] items, for callers that
    /// hold the concrete type without importing the trait.
    pub fn clock(&self) -> &GlobalTimestamp {
        self.ctx.clock()
    }

    /// The structure's epoch collector (diagnostics).
    pub fn collector(&self) -> &Collector {
        &self.collector
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

    /// Geometric (p = 1/2) tower height from a per-thread xorshift PRNG.
    fn random_level(&self, tid: usize) -> usize {
        let slot = &self.seeds[tid % self.seeds.len()];
        let mut x = slot.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot.store(x, Ordering::Relaxed);
        ((x.trailing_ones()) as usize).min(MAX_LEVEL - 1)
    }

    /// Standard skip list search: fill `preds`/`succs` at every level and
    /// return the highest level at which `key` was found.
    fn find(
        &self,
        key: &K,
        preds: &mut [*mut Node<K, V>; MAX_LEVEL],
        succs: &mut [*mut Node<K, V>; MAX_LEVEL],
    ) -> Option<usize> {
        let mut lfound = None;
        let mut pred = self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            while curr != self.tail && unsafe { &*curr }.key < *key {
                pred = curr;
                curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            }
            if lfound.is_none() && curr != self.tail && unsafe { &*curr }.key == *key {
                lfound = Some(lvl);
            }
            preds[lvl] = pred;
            succs[lvl] = curr;
        }
        lfound
    }

    /// [`Self::find`] resuming from a retained predecessor/successor
    /// frontier (finger search). Returns the found level plus whether the
    /// frontier was resumed (`false` = full root descent ran).
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
    /// found node whose tower outgrows the walk deflects the remove into
    /// a root-descent retry (geometrically rare).
    ///
    /// A frontier entry that goes stale *after* its validity check
    /// (unlinked mid-walk) can only yield a stale position, never a torn
    /// one (an unlinked node's forward pointers are not cleared), and
    /// every caller re-validates positions under node locks before
    /// acting.
    fn find_hinted(
        &self,
        key: &K,
        hint: Option<&Frontier<K, V>>,
        min_levels: usize,
        preds: &mut [*mut Node<K, V>; MAX_LEVEL],
        succs: &mut [*mut Node<K, V>; MAX_LEVEL],
    ) -> (Option<usize>, bool) {
        let Some(front) = hint else {
            return (self.find(key, preds, succs), false);
        };
        // Ascend probe: the highest level at which the frontier entry is
        // still usable (live, fully linked, strictly before the target)
        // and can still advance toward the target. Breaks on the first
        // level that cannot advance — higher frontier entries sit at
        // even smaller keys, so walking would start further back.
        let mut ascend = usize::MAX; // MAX = no usable level (full descent)
        for lvl in 0..MAX_LEVEL {
            let cand = front.preds[lvl];
            if cand.is_null() || cand == self.head {
                break;
            }
            let c = unsafe { &*cand };
            if c.key >= *key
                || c.marked.load(Ordering::Acquire)
                || !c.fully_linked.load(Ordering::Acquire)
            {
                break;
            }
            ascend = lvl;
            let nxt = c.next[lvl].load(Ordering::Acquire);
            if nxt == self.tail || unsafe { &*nxt }.key >= *key {
                break;
            }
        }
        if ascend == usize::MAX {
            return (self.find(key, preds, succs), false);
        }
        // An insert must genuinely walk every level it will link; when
        // its tower outgrows the probe, the start entry at that height
        // needs its own validation (rare — towers are geometric).
        let start = ascend.max(min_levels).min(MAX_LEVEL - 1);
        if start > ascend {
            let cand = front.preds[start];
            if cand.is_null() || cand == self.head {
                return (self.find(key, preds, succs), false);
            }
            let c = unsafe { &*cand };
            if c.key >= *key
                || c.marked.load(Ordering::Acquire)
                || !c.fully_linked.load(Ordering::Acquire)
            {
                return (self.find(key, preds, succs), false);
            }
        }
        // Levels above the start: the frontier position verbatim (plain
        // copies; re-validated under locks before any use).
        preds[(start + 1)..].copy_from_slice(&front.preds[(start + 1)..]);
        succs[(start + 1)..].copy_from_slice(&front.succs[(start + 1)..]);
        // Plain descent from the validated start entry.
        let mut lfound = None;
        let mut pred = front.preds[start];
        for lvl in (0..=start).rev() {
            let mut curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            while curr != self.tail && unsafe { &*curr }.key < *key {
                pred = curr;
                curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            }
            if lfound.is_none() && curr != self.tail && unsafe { &*curr }.key == *key {
                lfound = Some(lvl);
            }
            preds[lvl] = pred;
            succs[lvl] = curr;
        }
        (lfound, true)
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
        preds: &[*mut Node<K, V>; MAX_LEVEL],
        succs: &[*mut Node<K, V>; MAX_LEVEL],
        top: usize,
        expect_succ: Option<*mut Node<K, V>>,
        guards: &mut InlineStack<MutexGuard<'a, ()>, MAX_LEVEL>,
    ) -> bool {
        let mut prev: *mut Node<K, V> = ptr::null_mut();
        for lvl in 0..=top {
            let pred = preds[lvl];
            let succ = expect_succ.unwrap_or(succs[lvl]);
            if pred != prev {
                // Safety: the node is reachable (we hold an EBR guard) and
                // stays allocated while the guard is live, so the lock
                // outlives the guards.
                let lock: MutexGuard<'a, ()> = unsafe { &*pred }.lock.lock();
                guards.push(lock);
                prev = pred;
            }
            let p = unsafe { &*pred };
            let s_marked = if succ == self.tail {
                false
            } else {
                unsafe { &*succ }.marked.load(Ordering::Acquire)
            };
            // `fully_linked` on the predecessor is load-bearing for the
            // bundles, not just the tower: an insert publishes its node's
            // data-layer pointers *before* preparing its bundle (only
            // `fullyLinked` is the linearization point). Using such a
            // half-linked node as a predecessor would write our bundle
            // entry into its still-empty bundle; the insert would then
            // finalize its own entry with a larger timestamp, reordering
            // history so snapshots resurrect our removed successor (a
            // use-after-free once the successor's memory is reclaimed).
            let valid = !p.marked.load(Ordering::Acquire)
                && p.fully_linked.load(Ordering::Acquire)
                && !s_marked
                && p.next[lvl].load(Ordering::Acquire) == succ;
            if !valid {
                return false;
            }
        }
        true
    }

    /// Transaction-aware variant of `lock_and_validate`: skips locks the
    /// transaction already holds, uses bounded `try_lock` for the rest.
    /// `Ok(true)` = locked and valid; `Ok(false)` = validation failed (the
    /// newly acquired locks were released, caller retries its traversal);
    /// `Err(Conflict)` = a lock could not be acquired (caller aborts).
    fn txn_lock_and_validate(
        &self,
        txn: &mut ShardTxn<BundledSkipList<K, V>>,
        preds: &[*mut Node<K, V>; MAX_LEVEL],
        succs: &[*mut Node<K, V>; MAX_LEVEL],
        top: usize,
        expect_succ: Option<*mut Node<K, V>>,
    ) -> Result<bool, Conflict> {
        let mut newly = 0usize;
        let mut prev: *mut Node<K, V> = ptr::null_mut();
        let mut valid = true;
        for lvl in 0..=top {
            let pred = preds[lvl];
            let succ = expect_succ.unwrap_or(succs[lvl]);
            if pred != prev {
                match unsafe { self.txn_lock(txn, pred) } {
                    Ok(true) => newly += 1,
                    Ok(false) => {}
                    Err(c) => {
                        txn.core.unlock_latest(newly);
                        return Err(c);
                    }
                }
                prev = pred;
            }
            let p = unsafe { &*pred };
            let s_marked = if succ == self.tail {
                false
            } else {
                unsafe { &*succ }.marked.load(Ordering::Acquire)
            };
            valid = !p.marked.load(Ordering::Acquire)
                && p.fully_linked.load(Ordering::Acquire)
                && !s_marked
                && p.next[lvl].load(Ordering::Acquire) == succ;
            if !valid {
                break;
            }
        }
        if valid {
            Ok(true)
        } else {
            txn.core.unlock_latest(newly);
            Ok(false)
        }
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    type Key = K;
    type Value = V;
    type Node = Node<K, V>;
    type Undo = SkipUndo<K, V>;
    type Scratch = ();
    type Cursor<'a>
        = ShardCursor<'a, K, V>
    where
        Self: 'a;

    fn with_context(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
        let tail = Node::new(K::default(), None, MAX_LEVEL - 1);
        let head = Node::new(K::default(), None, MAX_LEVEL - 1);
        unsafe {
            for lvl in 0..MAX_LEVEL {
                (*head).next[lvl].store(tail, Ordering::Release);
            }
            (*head).fully_linked.store(true, Ordering::Release);
            (*tail).fully_linked.store(true, Ordering::Release);
            (*head).bundle.init(tail, 0);
        }
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
            collector: Collector::new(max_threads, mode),
            tokens: TokenPool::new(max_threads),
            seeds,
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
        // Phase 1 (GetFirstNodeInRange): descend through the index layers
        // using the newest pointers to reach the data-layer node preceding
        // the range.
        let mut pred = self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            while curr != self.tail && unsafe { &*curr }.key < *low {
                pred = curr;
                curr = unsafe { &*pred }.next[lvl].load(Ordering::Acquire);
            }
        }

        // Phase 2: enter and traverse the range strictly through the
        // data-layer bundles.
        let mut node = unsafe { &*pred }.bundle.dereference(ts)?;
        while node != self.tail && unsafe { &*node }.key < *low {
            node = unsafe { &*node }.bundle.dereference(ts)?;
        }
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
            curr = node.next[0].load(Ordering::Acquire);
        }
    }

    /// The cursor retains the per-level predecessor frontier of the last
    /// located position and resumes subsequent finds from it (finger
    /// search), so a key-sorted batch pays one full descent plus short
    /// per-level walks instead of a root descent per op.
    fn txn_cursor(&self, txn: ShardTxn<Self>) -> ShardCursor<'_, K, V> {
        // The cursor-lifetime pin keeps every retained frontier pointer
        // allocated between seeks (pins are reentrant).
        let guard = self.pin(txn.core.tid());
        ShardCursor {
            list: self,
            txn,
            _guard: guard,
            frontier: Frontier {
                preds: [ptr::null_mut(); MAX_LEVEL],
                succs: [ptr::null_mut(); MAX_LEVEL],
            },
            has_frontier: false,
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
        _scratch: &mut (),
        expected: &[(K, usize)],
        low: &K,
        high: &K,
    ) -> Result<(), TxnValidateError> {
        let locate = || {
            let mut preds = [ptr::null_mut(); MAX_LEVEL];
            let mut succs = [ptr::null_mut(); MAX_LEVEL];
            self.find(low, &mut preds, &mut succs);
            (preds[0], succs[0])
        };
        let pred_valid = |pred: *mut Node<K, V>, first: *mut Node<K, V>| {
            let p = unsafe { &*pred };
            !p.marked.load(Ordering::Acquire)
                && p.fully_linked.load(Ordering::Acquire)
                && p.next[0].load(Ordering::Acquire) == first
        };
        let step = |prev: *mut Node<K, V>, curr: *mut Node<K, V>| {
            let c = unsafe { &*curr };
            // Removed or half-linked nodes are torn observations.
            let torn = c.marked.load(Ordering::Acquire)
                || !c.fully_linked.load(Ordering::Acquire)
                || unsafe { &*prev }.next[0].load(Ordering::Acquire) != curr;
            (!torn).then(|| c.next[0].load(Ordering::Acquire))
        };
        // SAFETY: nodes produced by find/step are reachable under the
        // caller's EBR pin; a locked node is never retired.
        unsafe {
            bundle::validate_chain::<Self>(
                core, expected, high, self.tail, locate, pred_valid, step,
            )
        }
    }

    unsafe fn revert(&self, undo: SkipUndo<K, V>) {
        match undo {
            SkipUndo::Link {
                node,
                preds,
                succs,
                top,
            } => {
                // Mark the stillborn node so a primitive operation
                // blocked on its lock re-validates and retries.
                (*node).marked.store(true, Ordering::SeqCst);
                for lvl in (0..=top).rev() {
                    (*preds[lvl]).next[lvl].store(succs[lvl], Ordering::SeqCst);
                }
            }
            SkipUndo::Unlink { victim, preds, top } => {
                for (lvl, &pred) in preds.iter().enumerate().take(top + 1) {
                    (*pred).next[lvl].store(victim, Ordering::SeqCst);
                }
                (*victim).marked.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// A retained finger: the `preds`/`succs` arrays of a cursor's last
/// located position.
struct Frontier<K, V> {
    preds: [*mut Node<K, V>; MAX_LEVEL],
    succs: [*mut Node<K, V>; MAX_LEVEL],
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
/// performs (the retry falls back to a root descent).
pub struct ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    list: &'a BundledSkipList<K, V>,
    txn: ShardTxn<BundledSkipList<K, V>>,
    /// Keeps every retained frontier pointer allocated between seeks.
    _guard: Guard<'a>,
    frontier: Frontier<K, V>,
    has_frontier: bool,
    stats: CursorStats,
}

impl<'a, K, V> ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// One find, resuming from the retained frontier when `use_hint`
    /// (the caller clears it after the first attempt — a retry within
    /// one seek restarts from the root). `min_levels` is the highest
    /// level the caller will eagerly link (an insert's pre-drawn tower
    /// height): those levels are always genuinely walked, never
    /// stale-copied.
    fn locate(
        &mut self,
        key: &K,
        use_hint: bool,
        min_levels: usize,
        preds: &mut [*mut Node<K, V>; MAX_LEVEL],
        succs: &mut [*mut Node<K, V>; MAX_LEVEL],
    ) -> Option<usize> {
        let hint = if use_hint && self.has_frontier {
            Some(&self.frontier)
        } else {
            None
        };
        let (lfound, resumed) = self.list.find_hinted(key, hint, min_levels, preds, succs);
        if resumed {
            self.stats.hinted += 1;
        } else {
            self.stats.descents += 1;
        }
        lfound
    }

    /// Retain the located position as the next frontier.
    fn retain_preds(
        &mut self,
        preds: &[*mut Node<K, V>; MAX_LEVEL],
        succs: &[*mut Node<K, V>; MAX_LEVEL],
    ) {
        self.frontier.preds = *preds;
        self.frontier.succs = *succs;
        self.has_frontier = true;
    }

    /// Retain the position with a just-linked `node` (tower height
    /// `top`) substituted on the levels of its tower: the node now sits
    /// between `preds` and `succs` there.
    fn retain_node(
        &mut self,
        preds: &[*mut Node<K, V>; MAX_LEVEL],
        succs: &[*mut Node<K, V>; MAX_LEVEL],
        node: *mut Node<K, V>,
        top: usize,
    ) {
        for lvl in 0..MAX_LEVEL {
            self.frontier.preds[lvl] = if lvl <= top { node } else { preds[lvl] };
            self.frontier.succs[lvl] = succs[lvl];
        }
        self.has_frontier = true;
    }
}

impl<'a, K, V> PrepareCursor<K, V> for ShardCursor<'a, K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
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
        let top = list.random_level(self.txn.core.tid());
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        let mut use_hint = true;
        loop {
            let lfound = self.locate(&key, use_hint, top, &mut preds, &mut succs);
            use_hint = false;
            let txn = &mut self.txn;
            if let Some(l) = lfound {
                let found = succs[l];
                let f = unsafe { &*found };
                if f.marked.load(Ordering::Acquire) {
                    continue;
                }
                while !f.fully_linked.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // Pin the no-op: hold the present node's lock until
                // commit (a remove must acquire it, so the key stays
                // present). If it got marked before we locked it, the
                // remove linearized first — retry and miss it.
                let newly = unsafe { list.txn_lock(txn, found) }?;
                if f.marked.load(Ordering::Acquire) {
                    if newly {
                        txn.core.unlock_latest(1);
                        continue;
                    }
                    return Err(Conflict);
                }
                txn.staged
                    .record(key, Some(found as usize), Some(found as usize));
                // Retain the position just *before* the found key (its
                // successors are the found node itself on the levels of
                // its tower, which keeps the frontier's succs honest).
                self.retain_preds(&preds, &succs);
                return Ok(false);
            }
            if !list.txn_lock_and_validate(txn, &preds, &succs, top, None)? {
                continue;
            }
            let node = Node::new(key, Some(value), top);
            let node_ref = unsafe { &*node };
            // Hold the new node's lock until commit/abort so primitive
            // operations that would adopt it as a predecessor block on the
            // lock instead of building on state we may roll back.
            let node_guard: MutexGuard<'static, ()> = node_ref.lock.lock();
            txn.core.push_lock(node, node_guard);
            for (lvl, &succ) in succs.iter().enumerate().take(top + 1) {
                node_ref.next[lvl].store(succ, Ordering::Relaxed);
            }
            for (lvl, &pred) in preds.iter().enumerate().take(top + 1) {
                unsafe { &*pred }.next[lvl].store(node, Ordering::SeqCst);
            }
            txn.core.prepare_bundle(&node_ref.bundle, succs[0]);
            txn.core.prepare_bundle(&unsafe { &*preds[0] }.bundle, node);
            // Eager linearization effect; snapshot visibility is still
            // gated on the pending bundle entries' commit timestamp.
            node_ref.fully_linked.store(true, Ordering::SeqCst);
            txn.core.add_created(node);
            txn.staged.record(key, None, Some(node as usize));
            txn.undo.push(SkipUndo::Link {
                node,
                preds,
                succs,
                top,
            });
            self.retain_node(&preds, &succs, node, top);
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
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        let mut use_hint = true;
        loop {
            let lfound = self.locate(key, use_hint, 0, &mut preds, &mut succs);
            use_hint = false;
            let txn = &mut self.txn;
            let (victim, level) = match lfound {
                Some(l) => (succs[l], l),
                None => {
                    // Pin the no-op: hold the level-0 gap until commit.
                    let pred = preds[0];
                    let newly = unsafe { list.txn_lock(txn, pred) }?;
                    let p = unsafe { &*pred };
                    let valid = !p.marked.load(Ordering::Acquire)
                        && p.fully_linked.load(Ordering::Acquire)
                        && p.next[0].load(Ordering::Acquire) == succs[0];
                    if !valid {
                        if newly {
                            txn.core.unlock_latest(1);
                            continue;
                        }
                        return Err(Conflict);
                    }
                    txn.staged.record(*key, None, None);
                    self.retain_preds(&preds, &succs);
                    return Ok(false);
                }
            };
            let v = unsafe { &*victim };
            if !(v.fully_linked.load(Ordering::Acquire)
                && v.top_level == level
                && !v.marked.load(Ordering::Acquire))
            {
                // A concurrent update owns the key's fate right now; retry
                // until the physical state settles (the owner holds all of
                // its locks and finishes without waiting on us).
                continue;
            }
            let top = v.top_level;
            let newly_victim = unsafe { list.txn_lock(txn, victim) }?;
            if v.marked.load(Ordering::Acquire) {
                if newly_victim {
                    txn.core.unlock_latest(1);
                }
                continue;
            }
            match list.txn_lock_and_validate(txn, &preds, &succs, top, Some(victim)) {
                Ok(true) => {}
                Ok(false) => {
                    if newly_victim {
                        txn.core.unlock_latest(1);
                    }
                    continue;
                }
                Err(c) => return Err(c),
            }
            txn.core.prepare_bundle(
                &unsafe { &*preds[0] }.bundle,
                v.next[0].load(Ordering::Acquire),
            );
            // Eager logical delete + physical unlink (top-down).
            v.marked.store(true, Ordering::SeqCst);
            for lvl in (0..=top).rev() {
                unsafe { &*preds[lvl] }.next[lvl]
                    .store(v.next[lvl].load(Ordering::Acquire), Ordering::SeqCst);
            }
            txn.core.add_victim(victim);
            txn.staged.record(*key, Some(victim as usize), None);
            txn.undo.push(SkipUndo::Unlink { victim, preds, top });
            self.retain_preds(&preds, &succs);
            return Ok(true);
        }
    }

    /// Read `key`'s current value (newest pointers — the transaction's
    /// own eager writes are visible) through the frontier, retaining the
    /// located predecessors as an *unlocked* hint. Takes no locks and
    /// stages nothing; linearizes at the per-level frontier validity
    /// checks (an adopted entry is unmarked, hence still reachable, at
    /// adoption time).
    fn seek_read(&mut self, key: &K) -> Option<V> {
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        let lfound = self.locate(key, true, 0, &mut preds, &mut succs);
        self.retain_preds(&preds, &succs);
        match lfound {
            Some(l) => {
                let n = unsafe { &*succs[l] };
                if n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire) {
                    n.val.clone()
                } else {
                    None
                }
            }
            None => None,
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
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCursor")
            .field("stats", &self.stats)
            .finish()
    }
}

impl<K, V> ConcurrentSet<K, V> for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let _guard = self.pin(tid);
        let top = self.random_level(tid);
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        loop {
            if let Some(l) = self.find(&key, &mut preds, &mut succs) {
                let found = succs[l];
                let f = unsafe { &*found };
                if !f.marked.load(Ordering::Acquire) {
                    // Wait until the concurrent inserter finishes linking.
                    while !f.fully_linked.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    return false;
                }
                // Found but being removed: retry.
                continue;
            }
            let mut guards = InlineStack::new();
            if !self.lock_and_validate(&preds, &succs, top, None, &mut guards) {
                continue;
            }
            let node = Node::new(key, Some(value), top);
            let node_ref = unsafe { &*node };
            for (lvl, &succ) in succs.iter().enumerate().take(top + 1) {
                node_ref.next[lvl].store(succ, Ordering::Relaxed);
            }
            // Physically link bottom-up (traversals tolerate partially
            // linked towers; `fullyLinked` is the linearization point).
            for (lvl, &pred) in preds.iter().enumerate().take(top + 1) {
                unsafe { &*pred }.next[lvl].store(node, Ordering::SeqCst);
            }
            // Bundles affected: the new node's data-layer link and the
            // data-layer predecessor's link.
            let bundles = [
                (&node_ref.bundle, succs[0]),
                (&unsafe { &*preds[0] }.bundle, node),
            ];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                node_ref.fully_linked.store(true, Ordering::SeqCst);
            });
            drop(guards);
            return true;
        }
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let guard = self.pin(tid);
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        loop {
            let lfound = self.find(key, &mut preds, &mut succs);
            let (victim, level) = match lfound {
                Some(l) => (succs[l], l),
                None => return false,
            };
            let v = unsafe { &*victim };
            // Candidate check (Herlihy et al.): fully linked at its full
            // height and not already logically deleted.
            if !(v.fully_linked.load(Ordering::Acquire)
                && v.top_level == level
                && !v.marked.load(Ordering::Acquire))
            {
                return false;
            }
            let top = v.top_level;
            let victim_lock = v.lock.lock();
            if v.marked.load(Ordering::Acquire) {
                return false;
            }
            let mut guards = InlineStack::new();
            if !self.lock_and_validate(&preds, &succs, top, Some(victim), &mut guards) {
                drop(guards);
                drop(victim_lock);
                continue;
            }
            // Only the data-layer predecessor's bundle changes; the victim's
            // own bundle keeps describing the pre-removal physical state.
            let bundles = [(
                &unsafe { &*preds[0] }.bundle,
                v.next[0].load(Ordering::Acquire),
            )];
            linearize_update(self.ctx.clock(), tid, &bundles, || {
                // Linearization point: the logical delete (§5).
                v.marked.store(true, Ordering::SeqCst);
            });
            // Physical unlink, top-down, within the same critical section.
            for lvl in (0..=top).rev() {
                unsafe { &*preds[lvl] }.next[lvl]
                    .store(v.next[lvl].load(Ordering::Acquire), Ordering::SeqCst);
            }
            drop(guards);
            drop(victim_lock);
            unsafe { guard.retire(victim) };
            return true;
        }
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        let _guard = self.pin(tid);
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        match self.find(key, &mut preds, &mut succs) {
            Some(l) => {
                let n = unsafe { &*succs[l] };
                n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire)
            }
            None => false,
        }
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let _guard = self.pin(tid);
        let mut preds = [ptr::null_mut(); MAX_LEVEL];
        let mut succs = [ptr::null_mut(); MAX_LEVEL];
        match self.find(key, &mut preds, &mut succs) {
            Some(l) => {
                let n = unsafe { &*succs[l] };
                if n.fully_linked.load(Ordering::Acquire) && !n.marked.load(Ordering::Acquire) {
                    n.val.clone()
                } else {
                    None
                }
            }
            None => None,
        }
    }

    fn len(&self, tid: usize) -> usize {
        let _guard = self.pin(tid);
        let mut n = 0;
        let mut curr = unsafe { &*self.head }.next[0].load(Ordering::Acquire);
        while curr != self.tail {
            let node = unsafe { &*curr };
            if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
                n += 1;
            }
            curr = node.next[0].load(Ordering::Acquire);
        }
        n
    }
}

impl<K, V> Drop for BundledSkipList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn drop(&mut self) {
        let mut curr = self.head;
        while !curr.is_null() {
            let next = unsafe { &*curr }.next[0].load(Ordering::Relaxed);
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
    fn cursor_read_hint_invalidation_stays_correct() {
        // seek_read retains an *unlocked* per-level frontier; foreign
        // removes of retained nodes must not corrupt later seeks.
        let s = Sl::new(2);
        for k in [10u64, 20, 30, 40, 50] {
            s.insert(0, k, k);
        }
        let mut cur = s.txn_cursor(s.txn_begin(1));
        assert_eq!(cur.seek_read(&20), Some(20));
        // Foreign primitive removes of nodes around the retained frontier
        // (the cursor holds no locks yet, so no deadlock is possible).
        assert!(s.remove(0, &10));
        assert!(s.remove(0, &20));
        // Forward seeks must still produce exact outcomes.
        assert_eq!(cur.seek_prepare_put(20, 200), Ok(true), "20 was removed");
        assert_eq!(cur.seek_prepare_remove(&30), Ok(true));
        assert_eq!(cur.seek_prepare_remove(&10), Ok(false), "10 was removed");
        let ts = s.clock().advance(1);
        s.txn_finalize(cur.finish(), ts);
        let mut out = Vec::new();
        s.range_query(0, &0, &100, &mut out);
        assert_eq!(out, vec![(20, 200), (40, 40), (50, 50)]);
    }

    #[test]
    fn towers_span_multiple_levels() {
        // Statistical sanity for random_level: with 2000 inserts we expect
        // towers above level 0 (probability of all-zero heights ~ 2^-2000).
        let s = Sl::new(1);
        for k in 0..2000u64 {
            s.insert(0, k, k);
        }
        let mut has_tall = false;
        unsafe {
            let mut curr = (*s.head).next[1].load(Ordering::Acquire);
            if curr != s.tail {
                has_tall = true;
            }
            let _ = &mut curr;
        }
        assert!(has_tall, "index layers should be populated");
        assert_eq!(s.len(0), 2000);
    }
}
