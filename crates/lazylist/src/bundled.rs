//! The bundled lazy linked list (§4).

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use bundle::api::{ConcurrentSet, RangeQuerySet};
use bundle::{
    linearize_update, Bundle, Conflict, CursorStats, GlobalTimestamp, PrepareCursor, Recycler,
    RqContext, RqTracker, StagedOutcomes, TwoPhaseState, TxnValidateError,
};
use ebr::{Collector, Guard, ReclaimMode};

/// A node of the bundled lazy list (Listing 2 of the paper).
///
/// `next` is the paper's `newestNextPtr`: the link value used by all
/// primitive operations and by the entry phase of range queries. `bundle`
/// records the history of that link for in-range snapshot traversals.
struct Node<K, V> {
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
pub struct BundledLazyList<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    /// Possibly shared with other structures (see [`RqContext`]); a list
    /// built through [`Self::new`] owns a private clock, matching the paper.
    clock: Arc<GlobalTimestamp>,
    tracker: Arc<RqTracker>,
    collector: Collector,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for BundledLazyList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BundledLazyList<K, V> {}

impl<K, V> BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create a list supporting `max_threads` registered threads, freeing
    /// removed nodes through EBR.
    pub fn new(max_threads: usize) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim)
    }

    /// Create a list with an explicit reclamation mode. `ReclaimMode::Leaky`
    /// matches the paper's primary experimental configuration (no memory is
    /// ever freed while the structure is live).
    pub fn with_mode(max_threads: usize, mode: ReclaimMode) -> Self {
        Self::with_context(max_threads, mode, &RqContext::new(max_threads))
    }

    /// Create a list ordering its updates through a possibly *shared*
    /// linearization context.
    ///
    /// Structures built from clones of the same [`RqContext`] totally order
    /// their updates on one clock, so a caller that fixes a snapshot
    /// timestamp once can traverse all of them atomically with
    /// [`Self::range_query_at`] — the basis of the sharded store's
    /// cross-shard linearizable range queries.
    pub fn with_context(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
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
            clock: Arc::clone(ctx.clock()),
            tracker: Arc::clone(ctx.tracker()),
            collector: Collector::new(max_threads, mode),
        }
    }

    /// Create a list whose global timestamp only advances every `t`-th
    /// update per thread (the Appendix A relaxation; `t = 0` means never).
    pub fn with_relaxation(max_threads: usize, t: u64) -> Self {
        Self::with_context(
            max_threads,
            ReclaimMode::Reclaim,
            &RqContext::with_threshold(max_threads, t),
        )
    }

    /// The structure's epoch collector (for diagnostics and tests).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The structure's global timestamp (for diagnostics and tests).
    pub fn clock(&self) -> &GlobalTimestamp {
        &self.clock
    }

    /// A handle to the linearization context this list uses (shared with
    /// every other structure built from the same context).
    pub fn context(&self) -> RqContext {
        RqContext::from_parts(Arc::clone(&self.clock), Arc::clone(&self.tracker))
    }

    fn pin(&self, tid: usize) -> Guard<'_> {
        self.collector.pin(tid)
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

    /// Total number of bundle entries across all reachable nodes
    /// (diagnostic; used by the space-overhead tests and the Table 1
    /// experiment).
    pub fn bundle_entries(&self, tid: usize) -> usize {
        let _guard = self.pin(tid);
        let mut n = 0;
        let mut curr = self.head;
        while !curr.is_null() {
            let node = unsafe { &*curr };
            n += node.bundle.len();
            if curr == self.tail {
                break;
            }
            curr = node.next.load(Ordering::Acquire);
        }
        n
    }

    /// One cleanup pass over all reachable bundles: retires every entry that
    /// is no longer needed by the oldest active range query (Appendix B,
    /// "Freeing Bundle Entries"). Intended to be driven by a
    /// [`bundle::Recycler`] background thread; see [`Self::spawn_recycler`].
    ///
    /// `tid` must be a thread slot reserved for the cleanup thread.
    pub fn cleanup_bundles(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let oldest = self.tracker.oldest_active(self.clock.read());
        let mut reclaimed = 0;
        let mut curr = self.head;
        while !curr.is_null() && curr != self.tail {
            let node = unsafe { &*curr };
            reclaimed += node.bundle.reclaim_up_to(oldest, &guard);
            curr = node.next.load(Ordering::Acquire);
        }
        self.collector.try_advance();
        reclaimed
    }

    /// Spawn a background recycler running [`Self::cleanup_bundles`] every
    /// `delay` using thread slot `tid`. The structure must outlive the
    /// recycler; this is enforced by requiring `self` in an `Arc`.
    pub fn spawn_recycler(self: &std::sync::Arc<Self>, tid: usize, delay: Duration) -> Recycler
    where
        K: 'static,
        V: 'static,
    {
        let list = std::sync::Arc::clone(self);
        Recycler::spawn(delay, move || {
            list.cleanup_bundles(tid);
        })
    }

    /// One optimistic attempt to collect the snapshot at `ts`: traverse the
    /// newest pointers up to the range, then hop strictly through bundles.
    ///
    /// `None` means the optimistic entry phase landed on a node created
    /// after the snapshot (Algorithm 3, line 7) and the caller must retry
    /// (dropping what `visit` has been shown). The caller holds the EBR
    /// guard. `visit` is called on every node of the range, in key order.
    fn try_collect_at(
        &self,
        ts: u64,
        low: &K,
        high: &K,
        mut visit: impl FnMut(*mut Node<K, V>),
    ) -> Option<()> {
        // Phase 1 (GetFirstNodeInRange, first half): optimistic traversal
        // over the newest pointers up to the node preceding the range.
        let mut pred = self.head;
        let mut curr = unsafe { &*pred }.next.load(Ordering::Acquire);
        while curr != self.tail && unsafe { &*curr }.key < *low {
            pred = curr;
            curr = unsafe { &*curr }.next.load(Ordering::Acquire);
        }

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

    /// Guaranteed snapshot collection at `ts`: walk from the head sentinel
    /// strictly through bundles. Never restarts — every node reachable
    /// through bundle hops at `ts` belongs to the snapshot, and the head's
    /// bundle always has a satisfying entry (it is initialized at timestamp
    /// 0 and cleanup keeps the entry the oldest announced snapshot needs).
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

    /// Range query at a *caller-fixed* snapshot timestamp.
    ///
    /// Used by multi-structure callers (the sharded store): read the shared
    /// clock once, announce it in the shared tracker, then call this on
    /// every structure — together the results form one atomic snapshot.
    ///
    /// Contract: `ts` must be announced in this structure's [`RqTracker`]
    /// (e.g. via [`bundle::RqContext::start_rq`]) for the whole call, so
    /// bundle cleanup cannot reclaim entries the traversal needs; `ts` must
    /// also not exceed the shared clock's current value.
    pub fn range_query_at(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
    ) -> usize {
        // A few optimistic attempts enter the range directly; the fixed
        // timestamp cannot be refreshed when they fail, so the fallback is
        // the bundle-only walk, which always succeeds.
        self.walk_snapshot_at(tid, ts, low, high, |step| match step {
            None => out.clear(),
            Some(node) => out.push(key_value(node)),
        });
        out.len()
    }

    /// The fixed-timestamp snapshot walk behind [`Self::range_query_at`]
    /// and the transactional reads: up to [`MAX_OPTIMISTIC_ATTEMPTS`]
    /// optimistic entries, then the guaranteed bundle-only walk. `step` is
    /// called with `None` at the start of every attempt (forget what the
    /// failed one showed) and with each node of the range, in key order.
    fn walk_snapshot_at(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        mut step: impl FnMut(Option<*mut Node<K, V>>),
    ) {
        let _guard = self.pin(tid);
        for _ in 0..MAX_OPTIMISTIC_ATTEMPTS {
            step(None);
            if self
                .try_collect_at(ts, low, high, |node| step(Some(node)))
                .is_some()
            {
                return;
            }
        }
        step(None);
        self.collect_snapshot_at(ts, low, high, |node| step(Some(node)));
    }

    /// Transactional range read: collect `low..=high` as of snapshot `ts`
    /// exactly like [`Self::range_query_at`], additionally recording each
    /// collected node's address into `nodes` — the per-transaction **read
    /// set**. At commit, [`Self::txn_validate`] re-locates the range in
    /// the live structure under the transaction's locks and compares node
    /// identities, so any intervening commit on a read key (or a phantom
    /// inserted into the range) is detected. Nodes are immutable once
    /// created, so node identity doubles as value identity.
    ///
    /// Same contract as `range_query_at`: `ts` must be announced in the
    /// tracker for the whole read-to-commit window (the transaction's read
    /// lease) and the caller must hold an EBR pin on this structure from
    /// before the lease until validation, so the recorded addresses stay
    /// comparable (no reuse).
    pub fn txn_range_read(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
        nodes: &mut Vec<(K, usize)>,
    ) -> usize {
        self.walk_snapshot_at(tid, ts, low, high, |step| match step {
            None => {
                out.clear();
                nodes.clear();
            }
            Some(node) => {
                let (key, value) = key_value(node);
                out.push((key, value));
                nodes.push((key, node as usize));
            }
        });
        out.len()
    }

    /// Transactional point read: what [`Self::txn_range_read`] over the
    /// degenerate range `[key, key]` records and returns.
    pub fn txn_read(&self, tid: usize, ts: u64, key: &K, nodes: &mut Vec<(K, usize)>) -> Option<V> {
        let mut found = None;
        self.walk_snapshot_at(tid, ts, key, key, |step| match step {
            None => {
                nodes.clear();
                found = None;
            }
            Some(node) => {
                nodes.push((*key, node as usize));
                found = Some(key_value(node).1);
            }
        });
        found
    }
}

/// Optimistic entry attempts a fixed-timestamp range query makes before
/// falling back to the guaranteed bundle-only traversal.
const MAX_OPTIMISTIC_ATTEMPTS: usize = 3;

/// The `(key, value)` a snapshot walk reports for data node `p`.
fn key_value<K: Copy, V: Clone>(p: *mut Node<K, V>) -> (K, V) {
    // SAFETY: `p` was reached by a walk whose caller holds the EBR pin.
    let node = unsafe { &*p };
    (node.key, node.val.clone().expect("data node has a value"))
}

/// Accumulated two-phase state of one transaction's writes on this list:
/// the shared lock/pending bookkeeping ([`bundle::TwoPhaseState`]) plus
/// the list-specific undo log that reverts eager structural changes on
/// abort.
///
/// Created by [`BundledLazyList::txn_begin`]; populated by the prepare
/// cursor's staging seeks; consumed by exactly one of
/// `txn_finalize` (with the transaction's single commit timestamp) or
/// `txn_abort`. Dropping a non-empty token without consuming it leaks the
/// locks and wedges the bundles — the store layer guarantees consumption.
pub struct ShardTxn<K, V> {
    core: TwoPhaseState<Node<K, V>>,
    /// Eager structural changes, reverted in reverse order on abort.
    undo: Vec<LazyUndo<K, V>>,
    /// Per-key pre/post images of the staged writes, consumed by
    /// [`BundledLazyList::txn_validate`] to reconcile the transaction's
    /// own eager changes with its recorded reads.
    staged: StagedOutcomes<K>,
    /// Validate calls that had to walk and lock the structure (the rest
    /// were decided by [`StagedOutcomes::covered_read`]).
    validate_walks: usize,
}

enum LazyUndo<K, V> {
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

impl<K, V> ShardTxn<K, V> {
    /// Number of staged write operations.
    #[must_use]
    pub fn staged_ops(&self) -> usize {
        self.undo.len()
    }

    /// `true` when nothing has been staged or pinned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.undo.is_empty() && self.core.is_empty()
    }

    /// Number of `txn_validate` calls on this token that walked and
    /// locked the structure; reads of keys the transaction wrote are
    /// decided from the staged images and do not count.
    #[must_use]
    pub fn validate_walks(&self) -> usize {
        self.validate_walks
    }
}

impl<K, V> BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Begin accumulating two-phase writes for thread `tid`.
    pub fn txn_begin(&self, tid: usize) -> ShardTxn<K, V> {
        ShardTxn {
            core: TwoPhaseState::new(tid),
            undo: Vec::new(),
            staged: StagedOutcomes::new(),
            validate_walks: 0,
        }
    }

    /// [`txn_begin`](Self::txn_begin) for a **write-only** pipeline: the
    /// transaction has no read set, so no validate phase will run and the
    /// per-key pre/post images are not recorded (one map insert saved per
    /// staged op — group commits stage hundreds of ops per token, so the
    /// bookkeeping nothing reads is worth skipping). Calling
    /// [`txn_validate`](Self::txn_validate) on such a token is a contract
    /// violation (debug-asserted in `StagedOutcomes`).
    pub fn txn_begin_write_only(&self, tid: usize) -> ShardTxn<K, V> {
        ShardTxn {
            staged: StagedOutcomes::disabled(),
            ..self.txn_begin(tid)
        }
    }

    /// Acquire `node`'s lock for the transaction unless it is already
    /// held; `Ok(true)` means newly acquired (see
    /// [`TwoPhaseState::lock`]).
    fn txn_lock(&self, txn: &mut ShardTxn<K, V>, node: *mut Node<K, V>) -> Result<bool, Conflict> {
        // Safety: `node` is reachable (caller pins EBR) and a locked node
        // is never retired — every remover must lock its victim first.
        unsafe { txn.core.lock(node, &(*node).lock) }
    }

    /// Open a [`ShardCursor`] over `txn`: the positional batch-staging
    /// surface (see [`bundle::PrepareCursor`]). The cursor retains the
    /// last located position — a node the transaction touched (and
    /// usually holds locked) — and resumes the next seek from it when the
    /// target key lies beyond it, so a key-sorted batch pays one head
    /// walk plus short forward hops instead of a full traversal per op.
    pub fn txn_cursor(&self, txn: ShardTxn<K, V>) -> ShardCursor<'_, K, V> {
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

    /// Validate one recorded read range of a read-write transaction and
    /// **pin it until commit**. Must run after every staged write of the
    /// transaction on this structure, under the store's shard intent lock.
    ///
    /// The pass re-walks `low..=high` over the newest pointers, locking
    /// the range's gap predecessor and every in-range node (bounded
    /// `try_lock`, so contention surfaces as
    /// [`TxnValidateError::Conflict`] and the store retries), then
    /// compares the found `(key, node)` list against what the read
    /// recorded — adjusted for the transaction's own staged writes via its
    /// [`StagedOutcomes`]. A mismatch means a foreign update committed
    /// inside the range since the leased read timestamp:
    /// [`TxnValidateError::Invalidated`].
    ///
    /// Holding the acquired locks until finalize/abort is what makes the
    /// reads serializable at the commit timestamp: an insert into any
    /// in-range gap needs one of the locked nodes as predecessor, and a
    /// remove needs its victim's lock — both block until the transaction
    /// finishes, exactly like the no-op outcome pinning of the write path.
    ///
    /// A single-key read of a key the transaction also wrote returns
    /// before any of that ([`StagedOutcomes::covered_read`]): the prepare
    /// already holds the lock pinning the key (found node, victim plus
    /// predecessor, or the gap predecessor), so only the recorded node is
    /// compared against the staged `pre` image.
    pub fn txn_validate(
        &self,
        txn: &mut ShardTxn<K, V>,
        low: &K,
        high: &K,
        recorded: &[(K, usize)],
    ) -> Result<(), TxnValidateError> {
        if let Some(verdict) = txn.staged.covered_read(low, high, recorded) {
            return verdict;
        }
        txn.validate_walks += 1;
        let expected = txn.staged.expected_now(low, high, recorded)?;
        let _guard = self.pin(txn.core.tid());
        bundle::validate_chain(
            &mut txn.core,
            expected,
            high,
            self.tail,
            || self.traverse(low),
            // Safety: nodes produced by traverse/step are reachable under
            // the EBR pin above; a locked node is never retired.
            |core, node| unsafe { core.lock(node, &(*node).lock) },
            |pred, first| self.validate(pred, first),
            |node| unsafe { &*node }.key,
            |prev, curr| {
                let c = unsafe { &*curr };
                if c.marked.load(Ordering::Acquire)
                    || unsafe { &*prev }.next.load(Ordering::Acquire) != curr
                {
                    None
                } else {
                    Some((c.key, c.next.load(Ordering::Acquire)))
                }
            },
        )
    }

    /// Commit: publish every staged bundle entry with the transaction's
    /// single timestamp, release the locks, retire removed nodes.
    pub fn txn_finalize(&self, txn: ShardTxn<K, V>, ts: u64) {
        let tid = txn.core.tid();
        let victims = txn.core.finalize(ts);
        let guard = self.pin(tid);
        for v in victims {
            // Safety: `v` was unlinked by this transaction while holding
            // the relevant locks; EBR defers the free past concurrent
            // readers.
            unsafe { guard.retire(v) };
        }
    }

    /// Abort: revert every eager structural change (reverse order), then
    /// neutralize the pending bundle entries, release the locks, and
    /// retire the nodes the transaction created.
    pub fn txn_abort(&self, txn: ShardTxn<K, V>) {
        let ShardTxn { core, mut undo, .. } = txn;
        let tid = core.tid();
        while let Some(op) = undo.pop() {
            match op {
                LazyUndo::Link {
                    pred,
                    node,
                    prev_next,
                } => {
                    // Mark the stillborn node so a primitive operation
                    // blocked on its lock re-validates and retries.
                    unsafe { &*node }.marked.store(true, Ordering::SeqCst);
                    unsafe { &*pred }.next.store(prev_next, Ordering::SeqCst);
                }
                LazyUndo::Unlink { pred, curr } => {
                    unsafe { &*curr }.marked.store(false, Ordering::SeqCst);
                    unsafe { &*pred }.next.store(curr, Ordering::SeqCst);
                }
            }
        }
        // Only after the physical state is fully reverted: release the
        // snapshot readers spinning on our pending entries (entries with
        // prior history become neutralized duplicates; first entries of
        // created, now unreachable, nodes become tombstones).
        let created = core.abort();
        let guard = self.pin(tid);
        for n in created {
            // Safety: the node was unlinked above (or never committed to
            // a reachable state); EBR defers the free.
            unsafe { guard.retire(n) };
        }
    }
}

/// A prepare cursor over one [`ShardTxn`] (see
/// [`BundledLazyList::txn_cursor`] and [`bundle::PrepareCursor`]).
///
/// The retained frontier is a single node — the last position a seek
/// located (the staged node, the no-op pin, or the gap predecessor).
/// After a staged write the frontier node is one the transaction holds
/// locked, so it can neither move nor die; after a [`Self::seek_read`]
/// it is an unlocked *hint*, re-checked (unmarked) before each resume
/// and backstopped by the under-lock validation every prepare performs.
/// A seek for a key at or behind the frontier falls back to a head walk.
pub struct ShardCursor<'a, K, V> {
    list: &'a BundledLazyList<K, V>,
    txn: ShardTxn<K, V>,
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
    type Txn = ShardTxn<K, V>;

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
                let newly = list.txn_lock(txn, curr)?;
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
            let newly = list.txn_lock(txn, pred)?;
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
                let newly = list.txn_lock(txn, pred)?;
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
            let newly_pred = list.txn_lock(txn, pred)?;
            let newly_curr = match list.txn_lock(txn, curr) {
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
    /// cursor's EBR pin); consume it with [`BundledLazyList::txn_finalize`]
    /// or [`BundledLazyList::txn_abort`].
    fn finish(self) -> ShardTxn<K, V> {
        self.txn
    }
}

impl<'a, K, V> std::fmt::Debug for ShardCursor<'a, K, V> {
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
            linearize_update(&self.clock, tid, &bundles, || {
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
            linearize_update(&self.clock, tid, &bundles, || {
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

impl<K, V> RangeQuerySet<K, V> for BundledLazyList<K, V>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
{
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        let _guard = self.pin(tid);
        loop {
            // Linearization point: fix the snapshot timestamp and announce
            // it for the bundle recycler. On a failed optimistic attempt
            // restart with a fresh timestamp (Algorithm 3, line 7).
            let ts = self.tracker.start(tid, &self.clock);
            out.clear();
            let collected = self.try_collect_at(ts, low, high, |node| out.push(key_value(node)));
            self.tracker.finish(tid);
            if collected.is_some() {
                return out.len();
            }
        }
    }
}

impl<K, V> Drop for BundledLazyList<K, V> {
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
    use std::collections::BTreeMap;
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
    fn insert_remove_contains_roundtrip() {
        let l = List::new(1);
        assert!(l.insert(0, 10, 100));
        assert!(l.insert(0, 5, 50));
        assert!(l.insert(0, 20, 200));
        assert!(!l.insert(0, 10, 999), "duplicate insert rejected");
        assert_eq!(l.len(0), 3);
        assert!(l.contains(0, &5));
        assert_eq!(l.get(0, &20), Some(200));
        assert!(l.remove(0, &10));
        assert!(!l.remove(0, &10));
        assert!(!l.contains(0, &10));
        assert_eq!(l.len(0), 2);
    }

    #[test]
    fn range_query_returns_sorted_range() {
        let l = List::new(1);
        for k in [40u64, 10, 30, 50, 20] {
            l.insert(0, k, k * 10);
        }
        let mut out = Vec::new();
        l.range_query(0, &15, &45, &mut out);
        assert_eq!(out, vec![(20, 200), (30, 300), (40, 400)]);
        l.range_query(0, &0, &100, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        l.range_query(0, &60, &100, &mut out);
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
        assert_eq!(l.clock().read(), 4);
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
    fn matches_btreemap_model_sequentially() {
        let l = List::new(1);
        let mut model = BTreeMap::new();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..2000 {
            let k = next() % 64;
            match next() % 3 {
                0 => {
                    assert_eq!(l.insert(0, k, k), model.insert(k, k).is_none());
                }
                1 => {
                    assert_eq!(l.remove(0, &k), model.remove(&k).is_some());
                }
                _ => {
                    assert_eq!(l.contains(0, &k), model.contains_key(&k));
                }
            }
        }
        assert_eq!(l.len(0), model.len());
        let mut out = Vec::new();
        l.range_query(0, &8, &40, &mut out);
        let expected: Vec<(u64, u64)> = model.range(8..=40).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_mixed_operations_preserve_integrity() {
        const THREADS: usize = 4;
        const OPS: usize = 3_000;
        let l = Arc::new(List::new(THREADS));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut seed = (tid as u64 + 1).wrapping_mul(0x517cc1b727220a95);
                let mut next = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut out = Vec::new();
                for _ in 0..OPS {
                    let k = next() % 256;
                    match next() % 4 {
                        0 => {
                            l.insert(tid, k, k);
                        }
                        1 => {
                            l.remove(tid, &k);
                        }
                        2 => {
                            let _ = l.contains(tid, &k);
                        }
                        _ => {
                            let lo = k.saturating_sub(32);
                            l.range_query(tid, &lo, &k, &mut out);
                            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            assert!(out.iter().all(|(x, _)| *x >= lo && *x <= k));
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Final structural sanity: sorted, no duplicates.
        let mut out = Vec::new();
        l.range_query(0, &0, &(u64::MAX - 2), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), l.len(0));
    }

    #[test]
    fn range_query_prefix_insertion_has_no_gaps() {
        // Keys are inserted by a single writer in strictly increasing order;
        // a linearizable range query must therefore always observe a
        // gap-free prefix (seeing key k implies every key < k is visible).
        const MAX: u64 = 4_000;
        let l = Arc::new(List::new(3));
        let writers: Vec<_> = (0..1)
            .map(|w| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for k in 0..MAX {
                        assert!(l.insert(w, k, k));
                    }
                })
            })
            .collect();
        let reader = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..200 {
                    l.range_query(2, &0, &MAX, &mut out);
                    // Gap-free prefix: result is exactly 0..out.len().
                    for (i, (k, _)) in out.iter().enumerate() {
                        assert_eq!(*k, i as u64, "range query observed a gap");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(l.len(0), MAX as usize);
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
    fn cleanup_prunes_stale_bundle_entries() {
        let l = List::new(2);
        for k in 0..50u64 {
            l.insert(0, k, k);
        }
        // Churn on the same keys grows the bundles.
        for _ in 0..5 {
            for k in 0..50u64 {
                l.remove(0, &k);
                l.insert(0, k, k);
            }
        }
        let before = l.bundle_entries(0);
        let reclaimed = l.cleanup_bundles(1);
        let after = l.bundle_entries(0);
        assert!(reclaimed > 0, "cleanup should reclaim stale entries");
        assert_eq!(after, before - reclaimed);
        // With no active range queries, every reachable bundle can be
        // reduced to a single satisfying entry.
        assert_eq!(after, l.len(0) + 1);
        // And the structure still answers queries correctly.
        assert_eq!(l.len(0), 50);
        let mut out = Vec::new();
        l.range_query(0, &0, &49, &mut out);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn relaxed_clock_still_produces_consistent_ranges() {
        let l = BundledLazyList::<u64, u64>::with_relaxation(2, 10);
        for k in 0..100u64 {
            l.insert(0, k, k);
        }
        let mut out = Vec::new();
        l.range_query(1, &10, &20, &mut out);
        assert_eq!(out.len(), 11);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn shared_context_orders_updates_across_lists() {
        // Two lists on one context: updates interleave on one clock, and a
        // fixed-timestamp query over both sees one atomic cut.
        let ctx = bundle::RqContext::new(2);
        let a = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        let b = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        assert!(a.context().same_as(&b.context()));
        a.insert(0, 1, 1); // ts 1
        b.insert(0, 2, 2); // ts 2
        a.insert(0, 3, 3); // ts 3
        assert_eq!(ctx.read(), 3);

        // Snapshot fixed between the two `a` inserts: sees {1} and {2}.
        let ts = 2;
        let tid = 1;
        let announced = ctx.start_rq(tid);
        assert_eq!(announced, 3);
        let mut out = Vec::new();
        a.range_query_at(tid, ts, &0, &10, &mut out);
        assert_eq!(out, vec![(1, 1)], "a at ts=2 must not include ts=3 insert");
        b.range_query_at(tid, ts, &0, &10, &mut out);
        assert_eq!(out, vec![(2, 2)]);
        ctx.finish_rq(tid);
    }

    #[test]
    fn range_query_at_fallback_matches_optimistic() {
        let l = List::new(1);
        for k in 0..100u64 {
            l.insert(0, k, k * 2);
        }
        let ts = l.clock().read();
        let mut opt = Vec::new();
        let mut snap = Vec::new();
        assert_eq!(l.range_query_at(0, ts, &10, &20, &mut opt), 11);
        // The guaranteed bundle-only walk must produce the same snapshot.
        let _guard = l.pin(0);
        l.collect_snapshot_at(ts, &10, &20, |node| snap.push(key_value(node)));
        assert_eq!(opt, snap);
        // An ancient snapshot sees the empty list.
        assert_eq!(l.range_query_at(0, 0, &0, &1000, &mut opt), 0);
    }

    #[test]
    fn txn_commit_is_atomic_under_a_fixed_snapshot() {
        let ctx = bundle::RqContext::new(2);
        let l = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        l.insert(0, 5, 5);
        l.insert(0, 50, 50);
        let before = ctx.read();

        // Stage a three-key transaction through the cursor, including two
        // adjacent keys that share a predecessor (the second merges into
        // the first's pending entry) and a remove of a pre-existing key.
        let mut cur = l.txn_cursor(l.txn_begin(0));
        assert_eq!(cur.seek_prepare_put(10, 100), Ok(true));
        assert_eq!(cur.seek_prepare_put(11, 110), Ok(true));
        assert_eq!(cur.seek_prepare_remove(&50), Ok(true));
        assert_eq!(cur.seek_prepare_put(5, 999), Ok(false), "no-op dup");
        assert_eq!(cur.seek_prepare_remove(&77), Ok(false), "no-op miss");
        // The ascending seeks resumed from the frontier; the two backward
        // seeks (5 and 77 after reaching 50) fell back to head walks.
        let stats = cur.stats();
        assert!(stats.hinted >= 2, "sorted seeks must resume: {stats:?}");
        let txn = cur.finish();
        assert_eq!(txn.staged_ops(), 3);
        let ts = ctx.advance(0);
        l.txn_finalize(txn, ts);

        let mut out = Vec::new();
        // Pre-commit snapshot: none of the transaction's writes.
        let announced = ctx.start_rq(1);
        assert!(announced >= ts);
        l.range_query_at(1, before, &0, &100, &mut out);
        assert_eq!(out, vec![(5, 5), (50, 50)]);
        // Commit snapshot: all of them.
        l.range_query_at(1, ts, &0, &100, &mut out);
        assert_eq!(out, vec![(5, 5), (10, 100), (11, 110)]);
        ctx.finish_rq(1);
        assert_eq!(l.len(0), 3);
    }

    #[test]
    fn txn_abort_restores_structure_and_snapshots() {
        let ctx = bundle::RqContext::new(2);
        let l = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        for k in [10u64, 20, 30] {
            l.insert(0, k, k);
        }
        let clock_before = ctx.read();

        let mut cur = l.txn_cursor(l.txn_begin(0));
        assert_eq!(cur.seek_prepare_put(15, 150), Ok(true));
        assert_eq!(cur.seek_prepare_remove(&20), Ok(true));
        assert_eq!(cur.seek_prepare_put(16, 160), Ok(true));
        // The cursor reads its own eager writes through the frontier.
        assert_eq!(cur.seek_read(&16), Some(160));
        assert_eq!(cur.seek_read(&20), None);
        let txn = cur.finish();
        // Mid-transaction the eager changes are physically visible...
        assert!(l.contains(1, &15));
        assert!(!l.contains(1, &20));
        l.txn_abort(txn);

        // ...but after the abort everything is exactly as before.
        assert_eq!(ctx.read(), clock_before, "abort never advances the clock");
        assert!(!l.contains(0, &15));
        assert!(!l.contains(0, &16));
        assert!(l.contains(0, &20));
        assert_eq!(l.len(0), 3);
        let mut out = Vec::new();
        l.range_query(1, &0, &100, &mut out);
        assert_eq!(out, vec![(10, 10), (20, 20), (30, 30)]);
        // Fixed-timestamp reads across the aborted window agree too.
        l.range_query_at(1, clock_before, &0, &100, &mut out);
        assert_eq!(out, vec![(10, 10), (20, 20), (30, 30)]);
        // And the structure still accepts updates on the touched keys.
        assert!(l.insert(0, 15, 151));
        assert!(l.remove(0, &20));
    }

    #[test]
    fn txn_remove_of_own_staged_insert_nets_out() {
        let l = List::new(1);
        l.insert(0, 1, 1);
        let mut cur = l.txn_cursor(l.txn_begin(0));
        assert_eq!(cur.seek_prepare_put(5, 50), Ok(true));
        // Equal-key seek: the frontier is *at* 5, so this is a fallback
        // descent that must still find (and unlink) the staged node.
        assert_eq!(cur.seek_prepare_remove(&5), Ok(true));
        let ts = l.clock().advance(0);
        l.txn_finalize(cur.finish(), ts);
        assert!(!l.contains(0, &5));
        assert_eq!(l.len(0), 1);
        let mut out = Vec::new();
        l.range_query(0, &0, &10, &mut out);
        assert_eq!(out, vec![(1, 1)]);
    }

    #[test]
    fn txn_range_read_records_nodes_and_validates_when_unchanged() {
        let ctx = bundle::RqContext::new(2);
        let l = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        for k in [10u64, 20, 30] {
            l.insert(0, k, k * 10);
        }
        let lease = ctx.lease_read(1);
        let mut out = Vec::new();
        let mut nodes = Vec::new();
        l.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut nodes);
        assert_eq!(out, vec![(10, 100), (20, 200), (30, 300)]);
        assert_eq!(
            nodes.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        // Point read through the same surface.
        let mut pn = Vec::new();
        assert_eq!(l.txn_read(1, lease.ts(), &20, &mut pn), Some(200));
        assert_eq!(pn.len(), 1);

        // Nothing changed: the read set validates and stays pinned.
        let mut txn = l.txn_begin(1);
        assert_eq!(l.txn_validate(&mut txn, &0, &100, &nodes), Ok(()));
        // The pinned range rejects a concurrent primitive insert only by
        // blocking; release via abort (no writes staged, pure unlock).
        l.txn_abort(txn);
        drop(lease);
    }

    #[test]
    fn txn_validate_detects_stale_reads_and_phantoms() {
        let ctx = bundle::RqContext::new(2);
        let l = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        for k in [10u64, 20, 30] {
            l.insert(0, k, k);
        }
        let lease = ctx.lease_read(1);
        let mut out = Vec::new();
        let mut nodes = Vec::new();
        l.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut nodes);
        let mut empty_nodes = Vec::new();
        l.txn_range_read(1, lease.ts(), &40, &60, &mut out, &mut empty_nodes);
        assert!(empty_nodes.is_empty());
        drop(lease);

        // A foreign remove of a read key invalidates the range...
        l.remove(0, &20);
        let mut txn = l.txn_begin(1);
        assert_eq!(
            l.txn_validate(&mut txn, &0, &100, &nodes),
            Err(TxnValidateError::Invalidated)
        );
        l.txn_abort(txn);
        // ...and a phantom inserted into a read-empty range does too.
        l.insert(0, 50, 50);
        let mut txn = l.txn_begin(1);
        assert_eq!(
            l.txn_validate(&mut txn, &40, &60, &empty_nodes),
            Err(TxnValidateError::Invalidated)
        );
        l.txn_abort(txn);

        // A fresh read validates again.
        let lease = ctx.lease_read(1);
        let mut fresh = Vec::new();
        l.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut fresh);
        let mut txn = l.txn_begin(1);
        assert_eq!(l.txn_validate(&mut txn, &0, &100, &fresh), Ok(()));
        l.txn_abort(txn);
    }

    #[test]
    fn txn_validate_reconciles_own_staged_writes() {
        let ctx = bundle::RqContext::new(2);
        let l = BundledLazyList::<u64, u64>::with_context(2, ReclaimMode::Reclaim, &ctx);
        for k in [10u64, 20, 30] {
            l.insert(0, k, k);
        }
        let lease = ctx.lease_read(1);
        let mut out = Vec::new();
        let mut nodes = Vec::new();
        l.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut nodes);

        // The transaction itself removes a read key, upserts another and
        // inserts a new one — its own eager changes must not trip the
        // validation of its own reads.
        let mut cur = l.txn_cursor(l.txn_begin(1));
        assert_eq!(cur.seek_prepare_remove(&20), Ok(true));
        assert_eq!(cur.seek_prepare_remove(&30), Ok(true));
        assert_eq!(cur.seek_prepare_put(30, 999), Ok(true));
        assert_eq!(cur.seek_prepare_put(15, 150), Ok(true));
        let mut txn = cur.finish();
        assert_eq!(l.txn_validate(&mut txn, &0, &100, &nodes), Ok(()));
        let ts = ctx.advance(1);
        l.txn_finalize(txn, ts);
        drop(lease);
        let mut scan = Vec::new();
        l.range_query(0, &0, &100, &mut scan);
        assert_eq!(scan, vec![(10, 10), (15, 150), (30, 999)]);
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
                        let ts = l.clock().advance(1);
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
    fn one_op_cursors_accumulate_into_one_token() {
        // A fresh cursor per op (one root descent each — the legacy
        // point-prepare discipline) must stage into the same token with
        // batch-identical outcomes.
        let l = List::new(1);
        l.insert(0, 10, 10);
        let mut txn = l.txn_begin(0);
        for (op, expect) in [
            ((Some(50u64), 5u64), true),
            ((Some(99), 10), false),
            ((None, 10), true),
            ((None, 77), false),
        ] {
            let mut cur = l.txn_cursor(txn);
            match op {
                (Some(v), k) => assert_eq!(cur.seek_prepare_put(k, v), Ok(expect)),
                (None, k) => assert_eq!(cur.seek_prepare_remove(&k), Ok(expect)),
            }
            txn = cur.finish();
        }
        assert_eq!(txn.staged_ops(), 2);
        let ts = l.clock().advance(0);
        l.txn_finalize(txn, ts);
        let mut out = Vec::new();
        l.range_query(0, &0, &100, &mut out);
        assert_eq!(out, vec![(5, 50)]);
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
        let ts = l.clock().advance(1);
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
