//! The two-phase kernel: what makes a bundled structure a transactional
//! store shard, written once over the [`TwoPhase`] hook trait — token,
//! begin / lock / snapshot-read / validate / finalize / abort, the
//! primitive range-query loop, bundle cleanup, the constructors.
//! [`TwoPhase`]'s rustdoc is the "how to add a backend" page.

use std::sync::Arc;
use std::time::Duration;

use ebr::{Guard, Shared};
use parking_lot::Mutex;

use crate::api::{ConcurrentSet, RangeQuerySet};
use crate::{
    Bundle, BundledNode, CachePadded, PrepareCursor, Recycler, RqContext, StagedOutcomes,
    TwoPhaseState, TxnValidateError,
};

/// Optimistic entry attempts a fixed-timestamp range query makes before
/// falling back to the guaranteed bundle-only traversal.
pub const MAX_OPTIMISTIC_ATTEMPTS: usize = 3;

/// Accumulated two-phase state of one transaction's writes on one
/// structure. Handed out by [`TwoPhase::txn_begin`]; populated by the
/// prepare cursor's staging seeks (the public fields are its working
/// surface); consumed by exactly one of [`TwoPhase::txn_finalize`] (with
/// the transaction's single commit timestamp) or [`TwoPhase::txn_abort`].
/// Dropping a non-empty token leaks the locks and wedges the bundles — the
/// store layer guarantees consumption. `core` alone keeps the token's books
/// (locks, which also find its pendings, created and unlinked nodes); every
/// token also records `undo` and `staged`, whether it will validate or not.
///
/// Tokens are **warm**: finalize and abort clear the token and park it in
/// the structure's [`TokenPool`], and the thread's next `txn_begin` takes
/// it back with every buffer's capacity intact, so a steady stream of
/// small transactions stages, validates and commits without allocating
/// for its bookkeeping.
pub struct ShardTxn<S: TwoPhase> {
    /// Held node locks (and so pending entries), created and unlinked nodes.
    pub core: TwoPhaseState<S::Node>,
    /// Eager structural changes (one per staged write that changed the
    /// structure), reverted in reverse order on abort.
    pub undo: Vec<S::Undo>,
    /// Per-key pre/post images of the staged writes, with which
    /// [`TwoPhase::txn_validate`] reconciles the transaction's own eager
    /// changes with its recorded reads.
    pub staged: StagedOutcomes<S::Key>,
    /// The structure's own reusable buffers: the validate walk's, and
    /// whatever heap frontier its cursor retains between seeks.
    pub scratch: S::Scratch,
    validate_walks: usize,
}

/// Staged-op count above which a consumed token is dropped instead of
/// parked: a one-off bulk load must not pin its high-water buffers to the
/// thread slot forever (group commits stage a few hundred ops per token).
const WARM_TOKEN_MAX_OPS: usize = 4096;

/// One parked [`ShardTxn`] per dense thread id — what keeps tokens warm
/// (see [`ShardTxn`]). A slot is a mutex only so the structure stays
/// `Sync`: a `tid` belongs to one thread at a time, so the lock is never
/// contended, and a slot found busy or empty just means a cold token.
/// Slots are padded apart: neighbouring threads take and park at once.
pub struct TokenPool<S: TwoPhase>(Box<[TokenSlot<S>]>);

type TokenSlot<S> = CachePadded<Mutex<Option<ShardTxn<S>>>>;

// SAFETY: a slot only holds what `park` put there, a token that finalize or
// abort emptied: no held lock, no node address that is read again — buffer
// capacity, which any thread may take over. This is what lets every
// structure that embeds a pool derive `Send` and `Sync`.
unsafe impl<S: TwoPhase> Send for TokenPool<S> {}
// SAFETY: as above; the slots are mutexes.
unsafe impl<S: TwoPhase> Sync for TokenPool<S> {}

impl<S: TwoPhase> TokenPool<S> {
    /// Empty slots for `max_threads` thread ids.
    #[must_use]
    pub fn new(max_threads: usize) -> Self {
        TokenPool(
            (0..max_threads)
                .map(|_| CachePadded::new(Mutex::new(None)))
                .collect(),
        )
    }

    fn take(&self, tid: usize) -> Option<ShardTxn<S>> {
        self.0.get(tid)?.try_lock()?.take()
    }

    /// Keep the consumed (already emptied) token for its thread's next
    /// transaction, unless it just carried a bulk load of `staged_ops`.
    fn park(&self, txn: ShardTxn<S>, staged_ops: usize) {
        if staged_ops > WARM_TOKEN_MAX_OPS {
            return;
        }
        if let Some(mut slot) = self.0.get(txn.core.tid()).and_then(|s| s.try_lock()) {
            *slot = Some(txn);
        }
    }
}

impl<S: TwoPhase> ShardTxn<S> {
    /// `tid`'s parked token if there is one, a fresh one otherwise; either
    /// way empty.
    fn begin(pool: &TokenPool<S>, tid: usize) -> Self {
        let mut txn = pool.take(tid).unwrap_or_else(|| ShardTxn {
            core: TwoPhaseState::new(tid),
            undo: Vec::new(),
            staged: StagedOutcomes::default(),
            scratch: S::Scratch::default(),
            validate_walks: 0,
        });
        debug_assert!(txn.core.is_empty() && txn.undo.is_empty() && txn.core.tid() == tid);
        txn.staged.clear();
        txn.validate_walks = 0;
        txn
    }

    /// Number of staged write operations.
    #[must_use]
    pub fn staged_ops(&self) -> usize {
        self.undo.len()
    }

    /// Number of `txn_validate` calls on this token that walked and locked
    /// the structure (covered reads are decided from the staged images).
    #[must_use]
    pub fn validate_walks(&self) -> usize {
        self.validate_walks
    }
}

/// The `(key, value)` a snapshot walk reports for data node `node`.
pub fn key_value<S: TwoPhase>(node: &S::Node) -> (S::Key, S::Value) {
    let (key, val) = S::entry(node);
    (key, val.clone().expect("data node has a value"))
}

/// The snapshot half of a chain's range query (Algorithm 3 from its entry
/// on; the chain is the skip list's data layer, which at one level is the
/// lazy list): from `entry`, take every step through `hop` (the node's
/// bundle, dereferenced at the snapshot), skip the nodes below `low` and
/// visit those up to `high`; `tail` ends the chain. `None` = a hop found no
/// entry, so an `entry` reached over the newest pointers is newer than the
/// snapshot (Algorithm 3, line 7); from the head sentinel it never fails.
pub fn walk_chain_at<'g, S: TwoPhase>(
    entry: Shared<'g, S::Node>,
    tail: Shared<'g, S::Node>,
    low: &S::Key,
    high: &S::Key,
    hop: impl Fn(Shared<'g, S::Node>) -> Option<Shared<'g, S::Node>>,
    mut visit: impl FnMut(Shared<'g, S::Node>),
) -> Option<()> {
    let mut node = hop(entry)?;
    while node != tail && S::entry(&node).0 < *low {
        node = hop(node)?;
    }
    while node != tail && S::entry(&node).0 <= *high {
        visit(node);
        node = hop(node)?;
    }
    Some(())
}

/// What a bundled structure implements to become a store shard — the
/// required items, its **hooks**, next to its own searches and the paper's
/// primitives ([`ConcurrentSet`]; Algorithm 4, [`crate::linearize_update`])
/// — and what it gets in return: the two-phase protocol as provided
/// methods, [`RangeQuerySet`] and (in `store`) `ShardBackend`, written once.
///
/// # Contracts every hook relies on
///
/// * **Locks.** Every structural change to a node, and every `prepare` on
///   one of its bundles, happens under that node's [`BundledNode::lock`]
///   (Algorithm 1; a primitive takes it with the blocking
///   [`crate::NodeLock::lock`]) and is final or aborted before the lock is
///   released — also for a node the operation has just created, which it
///   locks before making it reachable. A remover locks its victim first,
///   so *a locked node is never retired*. Transactions lock only through
///   [`TwoPhaseState::lock`] (bounded `try_lock`, `Conflict` on contention)
///   and hold until finalize/abort; an attempt that turns out torn hands
///   back what it took since its [`TwoPhaseState::savepoint`]. So a
///   pending head on a bundle of a node the token holds is the token's
///   own: [`TwoPhaseState::prepare_bundle`] restages it in place, and
///   finalize and abort resolve the pending heads of the held nodes'
///   [`BundledNode::bundles`]. Any `Conflict` or `Invalidated` a hook
///   returns leaves the token's locks where they are — the caller must
///   abort the token anyway, and the abort releases them all.
/// * **EBR, carried by [`ebr::Link`] / [`ebr::Shared`].** Node pointers
///   are `Link`s, and every hook that follows one takes the caller's
///   [`Guard`] on the context's collector ([`Self::pin`]): what it loads
///   is a `Shared` bound to that guard, dereferenced without `unsafe`. A
///   snapshot hop goes through [`Bundle::dereference`], sound because
///   [`RqContext::announce_rq`] pins before it reads the clock. Raw
///   addresses survive only across calls (read sets, tokens, cursor
///   frontiers, undo records) and come back through
///   [`Shared::from_raw`]. The addresses [`Self::txn_range_read`] records
///   are compared again at validate time; the caller pins from before the
///   read lease until then, so none can be reused in between. Nodes are
///   immutable once created, so node identity is value identity.
/// * **Eager change, pending entry.** A staged write changes the structure
///   at once (later seeks of the same transaction see it) but leaves every
///   affected bundle entry *pending* in [`ShardTxn::core`]; snapshot
///   readers spin on pending entries, so the whole transaction becomes
///   visible atomically at finalize.
pub trait TwoPhase:
    ConcurrentSet<<Self as TwoPhase>::Key, <Self as TwoPhase>::Value> + Sized
{
    /// Key type (`Default` is only used for sentinel nodes).
    type Key: Copy + Ord + Default + Send + Sync;
    /// Value type.
    type Value: Clone + Send + Sync;
    /// The structure's node; its addresses are what read sets record.
    /// `'static`: a shared collector may free it after the structure.
    type Node: BundledNode + 'static;
    /// One eager structural change, as [`Self::revert`] needs it.
    type Undo;
    /// Buffers the structure keeps in the token so that a warm token
    /// stages and validates without allocating: [`Self::validate_walk`]'s,
    /// and a cursor frontier or plan ([`PrepareCursor::plan`]) that lives
    /// on the heap (`()` if none). Between
    /// transactions it holds capacity and plain data only: [`TokenPool`]
    /// hands parked tokens from thread to thread on that basis.
    type Scratch: Default;
    /// The prepare cursor; [`PrepareCursor`] has the frontier rules it obeys.
    type Cursor<'a>: PrepareCursor<Self::Key, Self::Value, Txn = ShardTxn<Self>>
    where
        Self: 'a;

    /// An empty structure ordering its updates through the (possibly
    /// shared) `ctx` and freeing through its collector, for the context's
    /// `max_threads`; sentinel bundles are initialized at timestamp 0.
    /// Builds under [`ebr::Collector::pin_exclusive`]: any `tid` of a
    /// shared context may belong to a running thread.
    fn with_context(ctx: &RqContext) -> Self;

    /// The linearization context (clock and reclamation domain) the
    /// structure was built over.
    fn context(&self) -> &RqContext;

    /// The structure's token slots, built with [`TokenPool::new`] over the
    /// context's `max_threads`.
    fn tokens(&self) -> &TokenPool<Self>;

    /// `node`'s key and value (`None` for sentinels).
    fn entry(node: &Self::Node) -> (Self::Key, &Option<Self::Value>);

    /// One optimistic attempt to visit the snapshot of `low..=high` at
    /// `ts` in key order: reach the range over the newest pointers, then
    /// hop strictly through bundles. `None` = the entry landed on a node
    /// newer than the snapshot (Algorithm 3, line 7); the caller forgets
    /// what `visit` saw and retries. Caller: `guard` pinned before `ts` was
    /// read, `ts` announced.
    ///
    /// Entering over the newest pointers is only sound where they lead to
    /// the same place the snapshot's would — in the chains, where a node's
    /// position is its two neighbours. A structure in which the key
    /// interval of a slot can change under nodes that stay where they are
    /// (the tree's relocating remove) must enter through bundles from its
    /// root instead, and then never returns `None`.
    fn try_collect_at<'g>(
        &self,
        ts: u64,
        low: &Self::Key,
        high: &Self::Key,
        guard: &'g Guard<'_>,
        visit: impl FnMut(Shared<'g, Self::Node>),
    ) -> Option<()>;

    /// Guaranteed visit of the same snapshot, from the sentinel strictly
    /// through bundles. Never restarts: the sentinel's bundle starts at
    /// timestamp 0 and cleanup keeps what an announced snapshot needs.
    fn collect_snapshot_at<'g>(
        &self,
        ts: u64,
        low: &Self::Key,
        high: &Self::Key,
        guard: &'g Guard<'_>,
        visit: impl FnMut(Shared<'g, Self::Node>),
    );

    /// Call `f` on every bundle reachable over the newest pointers
    /// (sentinels included), under the caller's `guard`.
    fn for_each_bundle(&self, guard: &Guard<'_>, f: impl FnMut(&Bundle<Self::Node>));

    /// Open a prepare cursor over `txn`. It holds one EBR pin for its whole
    /// lifetime (what keeps its retained frontier allocated) and gives the
    /// token back through [`PrepareCursor::finish`]. Each seek that changes
    /// the structure pushes exactly one [`Self::Undo`] and records the key's
    /// images in [`ShardTxn::staged`]; a no-op outcome keeps the lock that
    /// pins it (the present node, or the gap the key would occupy).
    fn txn_cursor(&self, txn: ShardTxn<Self>) -> Self::Cursor<'_>;

    /// The under-lock half of [`Self::txn_validate`]: walk `low..=high`
    /// over the newest pointers, lock (through `core`) the nodes that pin
    /// the range, re-check the walk under those locks, and compare the
    /// `(key, node)` list found with `expected`. A torn observation retries
    /// (up to [`crate::MAX_VALIDATE_ATTEMPTS`]) *before* any verdict,
    /// handing back the attempt's locks first; contention is `Conflict`;
    /// a stable mismatch is `Invalidated`. Any `Err` leaves the locks the
    /// call took in `core`, for the abort that must follow. On `Ok` the
    /// locks stay in `core` until finalize/abort and must make the range
    /// **phantom-safe**: every insert of an in-range key has to take one
    /// of them (a chain links through the gap predecessor or an in-range
    /// node; a BST hangs the key off its in-order predecessor or
    /// successor, hence two boundary pins), every in-range remove its
    /// victim's.
    fn validate_walk(
        &self,
        core: &mut TwoPhaseState<Self::Node>,
        scratch: &mut Self::Scratch,
        expected: &[(Self::Key, usize)],
        low: &Self::Key,
        high: &Self::Key,
        guard: &Guard<'_>,
    ) -> Result<(), TxnValidateError>;

    /// Undo one eager structural change.
    ///
    /// # Safety
    ///
    /// Called only by [`Self::txn_abort`], newest change first, while the
    /// token still holds every lock the change was made under (nobody else
    /// can touch the nodes involved) and **before** `core.abort()`:
    /// neutralizing the pending entries is what releases the snapshot
    /// readers spinning on them, and they must find the restored state. A
    /// created node gets marked, so a primitive operation blocked on its
    /// lock re-validates and retries. The locks are also what lets `undo`'s
    /// raw pointers back in under `guard` ([`Shared::from_raw`]).
    unsafe fn revert(&self, undo: Self::Undo, guard: &Guard<'_>);

    // ---- The kernel: everything below is written once, here. ----

    /// An empty structure for `max_threads` registered threads with a
    /// private clock (the paper's configuration), freeing through EBR.
    fn new(max_threads: usize) -> Self {
        Self::with_context(&RqContext::new(max_threads))
    }

    /// A structure whose clock only advances every `t`-th update per
    /// thread (the Appendix A relaxation; `t = 0` means never).
    fn with_relaxation(max_threads: usize, t: u64) -> Self {
        Self::with_context(&RqContext::with_threshold(max_threads, t))
    }

    /// Pin the context's epoch collector for `tid` (reentrant).
    fn pin(&self, tid: usize) -> Guard<'_> {
        self.context().pin(tid)
    }

    /// Total bundle entries over all reachable nodes (space diagnostic).
    fn bundle_entries(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let mut n = 0;
        self.for_each_bundle(&guard, |b| n += b.len());
        n
    }

    /// One cleanup pass (Appendix B): retire every bundle entry the oldest
    /// active snapshot no longer needs, on the cleanup thread's own `tid`.
    fn cleanup_bundles(&self, tid: usize) -> usize {
        let guard = self.pin(tid);
        let oldest = self.context().oldest_active();
        let mut reclaimed = 0;
        self.for_each_bundle(&guard, |b| reclaimed += b.reclaim_up_to(oldest, &guard));
        self.context().collector().try_advance();
        reclaimed
    }

    /// Spawn a background [`Recycler`] running [`Self::cleanup_bundles`]
    /// every `delay` on thread slot `tid`; it keeps the structure alive.
    fn spawn_recycler(self: &Arc<Self>, tid: usize, delay: Duration) -> Recycler
    where
        Self: 'static,
    {
        let this = Arc::clone(self);
        Recycler::spawn(delay, move || {
            this.cleanup_bundles(tid);
        })
    }

    /// The fixed-timestamp walk behind [`Self::range_query_at`] and
    /// [`Self::txn_range_read`]: up to [`MAX_OPTIMISTIC_ATTEMPTS`]
    /// optimistic entries, then the guaranteed bundle-only walk (the
    /// timestamp cannot be refreshed).
    /// `step` gets `None` when an attempt starts (forget the last one's
    /// nodes), then each node of the range in key order.
    fn walk_snapshot_at(
        &self,
        tid: usize,
        ts: u64,
        low: &Self::Key,
        high: &Self::Key,
        mut step: impl FnMut(Option<Shared<'_, Self::Node>>),
    ) {
        let guard = self.pin(tid);
        for _ in 0..MAX_OPTIMISTIC_ATTEMPTS {
            step(None);
            let entered = self.try_collect_at(ts, low, high, &guard, |node| step(Some(node)));
            if entered.is_some() {
                return;
            }
        }
        step(None);
        self.collect_snapshot_at(ts, low, high, &guard, |node| step(Some(node)));
    }

    /// Range query at a *caller-fixed* snapshot timestamp: a multi-
    /// structure caller reads the shared clock once, announces it
    /// ([`RqContext::announce_rq`]) and calls this on every structure —
    /// together one atomic snapshot. `ts` must not exceed the clock and stay
    /// announced for the whole call, or cleanup may reclaim needed entries.
    fn range_query_at(
        &self,
        tid: usize,
        ts: u64,
        low: &Self::Key,
        high: &Self::Key,
        out: &mut Vec<(Self::Key, Self::Value)>,
    ) -> usize {
        self.walk_snapshot_at(tid, ts, low, high, |step| match step {
            None => out.clear(),
            Some(node) => out.push(key_value::<Self>(&node)),
        });
        out.len()
    }

    /// [`Self::range_query_at`] that also records each collected node's
    /// address into `nodes` — the read set [`Self::txn_validate`] re-checks
    /// and pins at commit (hence the EBR-pin contract in the trait docs).
    fn txn_range_read(
        &self,
        tid: usize,
        ts: u64,
        low: &Self::Key,
        high: &Self::Key,
        out: &mut Vec<(Self::Key, Self::Value)>,
        nodes: &mut Vec<(Self::Key, usize)>,
    ) -> usize {
        self.walk_snapshot_at(tid, ts, low, high, |step| match step {
            None => {
                out.clear();
                nodes.clear();
            }
            Some(node) => {
                let (key, value) = key_value::<Self>(&node);
                out.push((key, value));
                nodes.push((key, node.as_raw() as usize));
            }
        });
        out.len()
    }

    /// Begin accumulating two-phase writes for thread `tid`.
    fn txn_begin(&self, tid: usize) -> ShardTxn<Self> {
        ShardTxn::begin(self.tokens(), tid)
    }

    /// Validate one recorded read range of a read-write transaction and
    /// **pin it until commit**. Must run after every staged write of the
    /// transaction on this structure. Other transactions may be preparing,
    /// validating or rolling back on the structure at the same time (the
    /// store arbitrates commits through node locks alone): nothing here
    /// relies on being alone. A pass means the walk found
    /// exactly the recorded nodes and now holds the locks that pin the
    /// range, so a neighbour's staged, uncommitted change inside it would
    /// have surfaced as `Conflict` (its stager holds a lock this walk
    /// needs) or as an identity mismatch — a spurious but safe
    /// `Invalidated` — never as a pass; `BundledStore::apply_rw_txn` in the
    /// `store` crate carries the full argument.
    /// A single-key read of a key the transaction also wrote is decided
    /// from the staged images alone ([`StagedOutcomes::covered_read`]: the
    /// prepare already holds the lock pinning the key); any other read is
    /// projected through the transaction's own staged writes
    /// ([`StagedOutcomes::expected_now`]) for [`Self::validate_walk`].
    /// `Conflict` = lock race, the store rolls back and retries;
    /// `Invalidated` = a foreign update committed inside the range since
    /// the leased read timestamp.
    fn txn_validate(
        &self,
        txn: &mut ShardTxn<Self>,
        low: &Self::Key,
        high: &Self::Key,
        recorded: &[(Self::Key, usize)],
    ) -> Result<(), TxnValidateError> {
        if let Some(verdict) = txn.staged.covered_read(low, high, recorded) {
            return verdict;
        }
        txn.validate_walks += 1;
        let expected = txn.staged.expected_now(low, high, recorded)?;
        let guard = self.pin(txn.core.tid());
        self.validate_walk(&mut txn.core, &mut txn.scratch, expected, low, high, &guard)
    }

    /// Commit: publish every staged bundle entry with the transaction's
    /// single timestamp, release the locks, retire removed nodes, park the
    /// emptied token for the thread's next transaction.
    fn txn_finalize(&self, mut txn: ShardTxn<Self>, ts: u64) {
        let guard = self.pin(txn.core.tid());
        // SAFETY: unlinked by this transaction under the proper locks;
        // EBR defers the free past concurrent readers.
        txn.core.finalize(ts, |v| unsafe { guard.retire(v) });
        drop(guard);
        let staged_ops = txn.undo.len();
        txn.undo.clear();
        self.tokens().park(txn, staged_ops);
    }

    /// Abort: revert every eager structural change (newest first), then
    /// neutralize the pending entries, unlock, retire the created nodes,
    /// park the emptied token.
    fn txn_abort(&self, mut txn: ShardTxn<Self>) {
        let guard = self.pin(txn.core.tid());
        let staged_ops = txn.undo.len();
        while let Some(op) = txn.undo.pop() {
            // SAFETY: `core` still holds every lock `op` was made under.
            unsafe { self.revert(op, &guard) };
        }
        // Entries with prior history become neutralized duplicates; first
        // entries of created, now unreachable, nodes become tombstones.
        // SAFETY: unlinked by `revert` (or never committed to a reachable
        // state); EBR defers the free.
        txn.core.abort(|n| unsafe { guard.retire(n) });
        drop(guard);
        self.tokens().park(txn, staged_ops);
    }
}

impl<S: TwoPhase> RangeQuerySet<S::Key, S::Value> for S {
    /// The paper's range query (Algorithm 3), restarted with a fresh
    /// timestamp when the entry lands on a node newer than the snapshot.
    fn range_query(
        &self,
        tid: usize,
        low: &S::Key,
        high: &S::Key,
        out: &mut Vec<(S::Key, S::Value)>,
    ) -> usize {
        loop {
            // Linearization point: pin, fix the snapshot timestamp and
            // announce it for the bundle recycler (until `rq` drops — also
            // when a `V::clone` below panics).
            let rq = self.context().announce_rq(tid);
            out.clear();
            let entered = self.try_collect_at(rq.ts(), low, high, rq.guard(), |node| {
                out.push(key_value::<S>(&node));
            });
            if entered.is_some() {
                return out.len();
            }
        }
    }
}
