//! The sharded store itself.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult,
};
use std::time::{Duration, Instant};

use bundle::api::{ConcurrentSet, RangeQuerySet};
use bundle::{
    CachePadded, Conflict, InlineStack, PrepareCursor, Recycler, RqContext, TxnValidateError,
};
use ebr::ReclaimMode;
use obs::{AnomalyCause, MetricsRegistry, MetricsSnapshot, TraceKind, TraceRecorder};

use crate::backends::ShardBackend;
use crate::handle::StoreHandle;
use crate::observe::StoreObs;
use crate::scratch::{CommitScratch, SessionScratch, TxnBufs, INLINE_SHARDS};
use crate::snapshot::{ReadSet, TxnAborted};

/// Conflict-retry attempt count at which the flight recorder snapshots
/// an anomaly (once per transaction — the trigger fires on equality).
/// By attempt 6 the pipeline has spun through its exponential backoff
/// several times; that is a burst worth keeping the interleaving for.
const CONFLICT_BURST_ANOMALY: u32 = 6;

// [`StoreObs::stage_ns`] indexes of the five pipeline stages.
const STAGE_INTENTS: usize = 0;
const STAGE_PREPARE: usize = 1;
const STAGE_VALIDATE: usize = 2;
const STAGE_ADVANCE: usize = 3;
const STAGE_FINALIZE: usize = 4;

/// One write of a multi-key transaction (see [`BundledStore::apply_txn`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp<K, V> {
    /// Insert `key -> value`; a no-op if the key is already present
    /// (set-insert semantics, like [`ConcurrentSet::insert`]).
    Put(K, V),
    /// Upsert `key -> value`: replace the current value if the key is
    /// present, insert otherwise. Staged as a remove-then-insert on the
    /// owning shard, both finalized with the transaction's single
    /// timestamp, so no snapshot ever sees the key absent (or half of the
    /// update).
    Set(K, V),
    /// Remove `key`; a no-op if absent.
    Remove(K),
}

impl<K, V> TxnOp<K, V> {
    /// The key this operation targets.
    pub fn key(&self) -> &K {
        match self {
            TxnOp::Put(k, _) => k,
            TxnOp::Set(k, _) => k,
            TxnOp::Remove(k) => k,
        }
    }
}

/// Commit/conflict counters of a store's transaction path (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions committed (group commits included — each counted once).
    pub commits: u64,
    /// Prepare/validate rounds that lost a lock race, rolled back, and
    /// retried internally.
    pub conflicts: u64,
    /// Read-write transactions aborted because a validated read went
    /// stale before commit (surfaced to the application as
    /// [`TxnAborted`]; the caller re-runs against a fresh snapshot).
    pub validation_failures: u64,
    /// Cumulative size of the read sets submitted to the validate phase:
    /// one unit per recorded range fragment plus one per recorded entry.
    pub read_set_size: u64,
    /// Group commits ([`BundledStore::apply_grouped`]) — super-batches
    /// that published many independently-submitted operations under one
    /// clock advance.
    pub group_commits: u64,
    /// Operations published by group commits (so
    /// `grouped_ops / group_commits` is the mean super-batch size and
    /// `group_commits / grouped_ops` the clock advances per grouped op —
    /// the amortization the ingestion front-end exists to deliver).
    pub grouped_ops: u64,
    /// Read-write commits that lost three lock races in a row and took
    /// their write shards' intents exclusively to get through (each commit
    /// counted once).
    pub intent_escalations: u64,
}

/// Outcome of one committed group ([`BundledStore::apply_grouped`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReceipt {
    /// Per-op results in the caller's (key-ascending) op order: `true` =
    /// the put inserted / the remove removed / the set replaced.
    pub applied: Vec<bool>,
    /// The single commit timestamp every op of the group published at
    /// (for an empty group, the clock value at the call).
    pub ts: u64,
}

/// One acquired per-shard intent of a committing pipeline, in the mode
/// the table on [`BundledStore`]'s `intents` field assigns it. Held purely
/// for its RAII release.
#[allow(dead_code)]
enum IntentGuard<'a> {
    Shared(RwLockReadGuard<'a, ()>),
    Exclusive(RwLockWriteGuard<'a, ()>),
}

/// `try_*` attempts (one `spin_loop` hint each) an intent waiter makes
/// on-core before it starts yielding. Measured on the 2-vCPU reference
/// box: one failed `try_write` + hint is ~16 ns, and the section a
/// contended holder keeps the intents for (prepare + validate + advance +
/// finalize of a 4-key read-modify-write on Citrus) is 6–14 us, so 4096
/// attempts (~65 us) outwait a handful of back-to-back sections — while
/// one futex sleep costs the 60–170 us the box needs to wake a thread,
/// several sections' worth of idle lock.
const INTENT_SPINS: u32 = 4096;

/// `yield_now` rounds (~0.25 us each when nothing else is runnable, a
/// scheduler quantum when the holder was preempted and needs the core)
/// after the spin phase and before the waiter parks in the blocking
/// `read()`/`write()`. A holder still there after both phases is a long
/// one — an fsync under `SyncPolicy::Always`, a descheduled thread — and
/// sleeping is the right way to wait for it.
const INTENT_YIELDS: u32 = 64;

/// The `Conflict` retry of one commit from which a pipeline *with a read
/// set* stops sharing its write shards' intents and takes them
/// exclusively (see the mode table on [`BundledStore`]'s `intents`
/// field). Two lost races are ordinary — the exponential backoff usually
/// separates the contenders — and cost a few microseconds each; a third
/// in a row means the commit keeps meeting the same neighbour, and
/// waiting once for an exclusive intent bounds what further retries could
/// cost. A constant, not a setting: liveness needs *some* finite value,
/// and lock races are rare enough (under 0.1 per commit on the contended
/// benchmark) that its exact size does not show.
const INTENT_ESCALATION_RETRY: u32 = 3;

/// Acquire one intent: bounded spin, bounded yield, then block. `try_it`
/// is the lock's `try_read`/`try_write`, `block` its `read`/`write`; a
/// poisoned lock is taken over (the `()` it guards cannot be corrupt).
fn acquire_intent<G>(try_it: impl Fn() -> TryLockResult<G>, block: impl FnOnce() -> G) -> G {
    for round in 0..INTENT_SPINS + INTENT_YIELDS {
        match try_it() {
            Ok(guard) => return guard,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) if round < INTENT_SPINS => std::hint::spin_loop(),
            Err(TryLockError::WouldBlock) => std::thread::yield_now(),
        }
    }
    block()
}

/// The transaction path's monotonic counters ([`TxnStats`]), kept on a
/// cache line of their own: every commit bumps two or three of them, and
/// next to the intent locks they would invalidate the lock words of
/// commits on unrelated shards.
#[derive(Default)]
struct TxnCounters {
    commits: AtomicU64,
    conflicts: AtomicU64,
    validation_failures: AtomicU64,
    read_set: AtomicU64,
    group_commits: AtomicU64,
    grouped_ops: AtomicU64,
    intent_escalations: AtomicU64,
}

/// Dense-tid session allocator state (see [`StoreHandle`]).
struct TidPool {
    /// Next never-used slot.
    next: usize,
    /// Slots returned by dropped handles.
    free: Vec<usize>,
}

/// Evenly spaced shard boundaries for a `u64` keyspace `[0, key_range)`:
/// `shards - 1` split points producing `shards` contiguous range shards.
/// Keys at or above `key_range` all land in the last shard.
#[must_use]
pub fn uniform_splits(shards: usize, key_range: u64) -> Vec<u64> {
    assert!(shards > 0, "a store needs at least one shard");
    (1..shards as u64)
        .map(|i| i * (key_range / shards as u64).max(1))
        .collect()
}

/// A concurrent KV store sharding a totally ordered keyspace across N
/// bundled structures while preserving the paper's headline guarantee
/// *across* shards: every range query is one atomic snapshot of the whole
/// store.
///
/// * Shard `0` holds keys `< splits[0]`, shard `i` holds
///   `splits[i-1] <= k < splits[i]`, the last shard holds the rest.
/// * All shards are built over one shared [`RqContext`], so updates on any
///   shard are totally ordered by the one clock and a snapshot timestamp
///   is meaningful store-wide.
/// * Single-key operations route to one shard and are exactly as fast as
///   the underlying structure; different shards never contend on locks or
///   structure memory (the clock is the only shared word, identical to a
///   single structure of the same total size).
///
/// Thread identifiers: the store supports `max_threads` dense thread ids,
/// passed through to every shard (each shard's EBR collector registers the
/// same id space). Use [`BundledStore::register`] for managed allocation.
pub struct BundledStore<K, V, S> {
    shards: Box<[S]>,
    /// Strictly increasing shard boundaries (`len == shards.len() - 1`).
    splits: Box<[K]>,
    ctx: RqContext,
    max_threads: usize,
    /// Dense-tid session allocator (see [`StoreHandle`]); registrations
    /// block on the condvar when all slots are in use.
    tids: Mutex<TidPool>,
    tid_freed: Condvar,
    /// Per-shard **intent** locks, taken by every commit pipeline on every
    /// shard it touches, in ascending shard order (deadlock-free by
    /// ordering, whatever the mode mix); single-key operations never touch
    /// them. The mode depends on whether the pipeline can abort to its
    /// caller:
    ///
    /// | pipeline | shards it writes | shards it only reads |
    /// |---|---|---|
    /// | read set (`apply_rw_txn`: read-write, read-only) | **shared** | shared |
    /// | … from its third `Conflict` retry ([`INTENT_ESCALATION_RETRY`]) | **exclusive** | shared |
    /// | no read set (`apply_txn`, `apply_grouped`) | **exclusive** | — |
    ///
    /// *Shared* is an intention lock: any number of read-write
    /// transactions prepare, validate and commit on one shard at once, and
    /// the node locks they take anyway arbitrate between them — exactly as
    /// node locks already arbitrate between a transaction and the
    /// primitive `insert` / `remove`, which take no intent at all. A
    /// transaction that meets a neighbour on a node gets a `Conflict`,
    /// rolls back and retries (it is the optimistic kind and can always do
    /// that); the soundness argument is on
    /// [`BundledStore::apply_rw_txn`]. *Exclusive* is what a bulk pipeline
    /// needs, because it cannot abort: a group never meets a transaction
    /// (or another group) mid-prepare on a shard, so its hundreds of staged
    /// ops are not rolled back because a neighbour holds one node (only a
    /// primitive operation can still make it retry). Escalation is the
    /// liveness backstop: a read-write commit that keeps losing races ends
    /// up alone on its write shards.
    ///
    /// A waiter first spins on `try_write`/`try_read`, then yields, and
    /// only then parks in the blocking acquire ([`acquire_intent`]): the
    /// section an exclusive holder keeps an intent for is microseconds,
    /// far shorter than a kernel wake-up, while a holder that fsyncs or
    /// was descheduled is still slept on. Each lock sits on its own cache
    /// line. These locks are also the hand-off point of the `ingest`
    /// front-end: a committer thread presents a whole drained queue as one
    /// [`BundledStore::apply_grouped`] super-batch, paying each shard's
    /// intent acquisition once per *group* instead of once per operation.
    intents: Box<[CachePadded<RwLock<()>>]>,
    /// Round-robin cursor of the chunked bundle recycler.
    recycle_cursor: AtomicUsize,
    counters: CachePadded<TxnCounters>,
    /// Warm per-session buffers (see [`crate::scratch`]).
    scratch: SessionScratch<K, V>,
    /// Observability handles ([`BundledStore::with_obs`]); `None` keeps
    /// every instrumentation site to one never-taken branch.
    obs: Option<StoreObs>,
    /// Durability hook ([`BundledStore::attach_commit_log`]); `None` —
    /// the default — keeps the commit pipeline to one never-taken
    /// branch, exactly like disabled observability.
    commit_log: Option<Arc<dyn crate::CommitLog<K, V>>>,
    _values: std::marker::PhantomData<V>,
}

impl<K, V, S> BundledStore<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// A store with `splits.len() + 1` range shards supporting
    /// `max_threads` registered threads, reclaiming memory through EBR.
    ///
    /// `splits` must be strictly increasing.
    pub fn new(max_threads: usize, splits: Vec<K>) -> Self {
        Self::with_mode(max_threads, ReclaimMode::Reclaim, splits)
    }

    /// A store with an explicit reclamation mode for every shard.
    pub fn with_mode(max_threads: usize, mode: ReclaimMode, splits: Vec<K>) -> Self {
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly increasing"
        );
        let ctx = RqContext::new(max_threads);
        let shards = (0..=splits.len())
            .map(|_| S::build(max_threads, mode, &ctx))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let intents = (0..shards.len())
            .map(|_| CachePadded::new(RwLock::new(())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BundledStore {
            shards,
            splits: splits.into_boxed_slice(),
            ctx,
            max_threads,
            tids: Mutex::new(TidPool {
                next: 0,
                free: Vec::new(),
            }),
            tid_freed: Condvar::new(),
            intents,
            recycle_cursor: AtomicUsize::new(0),
            counters: CachePadded::new(TxnCounters::default()),
            scratch: SessionScratch::new(max_threads),
            obs: None,
            commit_log: None,
            _values: std::marker::PhantomData,
        }
    }

    /// Attach a write-ahead commit log. Every subsequent committing write
    /// group is handed to `log` between validation and finalization (see
    /// [`crate::CommitLog`]), so the durable prefix of the log is always
    /// a prefix of the visible history.
    ///
    /// Takes `&mut self`: attach before wrapping the store in an `Arc`
    /// and sharing it — a log cannot appear mid-flight.
    pub fn attach_commit_log(&mut self, log: Arc<dyn crate::CommitLog<K, V>>) {
        self.commit_log = Some(log);
    }

    /// The attached commit log, if any.
    #[must_use]
    pub fn commit_log(&self) -> Option<&Arc<dyn crate::CommitLog<K, V>>> {
        self.commit_log.as_ref()
    }

    /// Force the attached commit log (if any) to stable storage. A no-op
    /// without a log; see [`crate::CommitLog::sync`].
    pub fn sync_commit_log(&self) {
        if let Some(log) = &self.commit_log {
            log.sync();
        }
    }

    /// [`BundledStore::with_mode`] plus observability: every layer of the
    /// store records into instruments registered in `registry` (commit
    /// pipeline stage latencies, conflict/abort counters by cause,
    /// per-shard op counters, cursor hint rates, and the sampled gauges
    /// of [`BundledStore::obs_sample`]), and — when the registry is
    /// live — a flight recorder ([`BundledStore::obs_trace`]) captures
    /// per-thread event rings around every pipeline stage, conflict, and
    /// abort. Pass [`MetricsRegistry::disabled`] for inert instruments,
    /// or use the plain constructors to skip instrumentation entirely
    /// (one never-taken branch per site — the production default).
    pub fn with_obs(
        max_threads: usize,
        mode: ReclaimMode,
        splits: Vec<K>,
        registry: &MetricsRegistry,
    ) -> Self {
        Self::with_obs_trace_capacity(
            max_threads,
            mode,
            splits,
            registry,
            obs::trace::DEFAULT_RING_CAPACITY,
        )
    }

    /// [`BundledStore::with_obs`] with an explicit per-thread flight-
    /// recorder ring capacity (rounded up to a power of two).
    /// `trace_capacity == 0` keeps the metrics but disables tracing —
    /// what `benchmark/`'s `obs.metrics_overhead_ratio` panel uses to
    /// price the metrics tier alone. An inert registry never traces.
    pub fn with_obs_trace_capacity(
        max_threads: usize,
        mode: ReclaimMode,
        splits: Vec<K>,
        registry: &MetricsRegistry,
        trace_capacity: usize,
    ) -> Self {
        let mut store = Self::with_mode(max_threads, mode, splits);
        let trace = (registry.is_enabled() && trace_capacity > 0)
            .then(|| Arc::new(TraceRecorder::new(max_threads, trace_capacity)));
        store.obs = Some(StoreObs::new(registry, store.shards.len(), trace));
        store
    }

    /// Number of range shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of dense thread ids the store (and every shard) supports.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// The linearization context shared by every shard. Structures built
    /// from clones of this context join the store's snapshot domain.
    #[must_use]
    pub fn context(&self) -> RqContext {
        self.ctx.clone()
    }

    /// Index of the shard owning `key`.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        self.splits.partition_point(|s| s <= key)
    }

    /// Direct access to shard `i` (diagnostics and tests).
    #[must_use]
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i]
    }

    /// Register a session: allocates the lowest free dense thread id and
    /// wraps the store so operations need no explicit `tid`.
    ///
    /// When all `max_threads` slots are in use this **blocks** until
    /// another session drops (bursty fleets queue instead of crashing);
    /// use [`BundledStore::try_register`] for a non-blocking variant.
    pub fn register(self: &Arc<Self>) -> StoreHandle<K, V, S> {
        let tid = self.acquire_tid();
        StoreHandle::new(Arc::clone(self), tid)
    }

    /// Non-blocking [`BundledStore::register`]: `None` when every slot is
    /// currently in use.
    pub fn try_register(self: &Arc<Self>) -> Option<StoreHandle<K, V, S>> {
        let tid = self.try_acquire_tid()?;
        Some(StoreHandle::new(Arc::clone(self), tid))
    }

    /// Look up several keys **atomically**: the whole batch is answered
    /// from one leased [`crate::StoreSnapshot`] read, so every key comes
    /// from a single atomic cut of the store — the multi-read observes
    /// each committed transaction entirely or not at all, exactly like a
    /// range query. The result vector is keyed by position.
    ///
    /// (This retires the old per-key convenience semantics, where each
    /// lookup was only individually linearizable and a concurrent
    /// transaction could be observed half-applied across the batch.)
    ///
    /// Like every snapshot read, this briefly occupies `tid`'s tracker
    /// slot: do not call it while a [`crate::StoreSnapshot`] or range
    /// query is live on the same `tid`.
    #[must_use]
    pub fn multi_get(&self, tid: usize, keys: &[K]) -> Vec<Option<V>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let snap = self.snapshot(tid);
        keys.iter().map(|k| snap.get(k)).collect()
    }

    /// Insert several pairs **atomically**: the whole batch is applied as
    /// one cross-shard write transaction ([`BundledStore::apply_txn`]), so
    /// every range query and snapshot read observes either all of the
    /// batch or none of it. Returns how many pairs were newly inserted.
    ///
    /// Duplicate keys keep the first occurrence (set-insert semantics: the
    /// later duplicates would have failed anyway).
    ///
    /// This retires the pre-transactional semantics where each insert was
    /// only *individually* linearizable and a concurrent range query could
    /// observe half of a batch.
    pub fn multi_put(&self, tid: usize, pairs: &[(K, V)]) -> usize {
        let mut sorted: Vec<(K, V)> = pairs.to_vec();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        let ops: Vec<TxnOp<K, V>> = sorted.into_iter().map(|(k, v)| TxnOp::Put(k, v)).collect();
        self.apply_txn(tid, &ops).into_iter().filter(|b| *b).count()
    }

    /// Atomically apply a multi-key, multi-shard write batch.
    ///
    /// `ops` may be in any order but must target distinct keys (the
    /// [`txn` crate's `WriteTxn`] staging buffer deduplicates for you;
    /// duplicate keys here panic — their combined meaning is ambiguous).
    /// The per-op results (`true` = the put inserted / the remove removed
    /// / the set replaced) come back in the caller's op order.
    ///
    /// [`txn` crate's `WriteTxn`]: StoreHandle::apply_txn
    ///
    /// This is the degenerate (empty-read-set) case of the full
    /// [`BundledStore::apply_rw_txn`] pipeline: with nothing to validate,
    /// the validate phase is vacuous and the transaction can never abort —
    /// exactly the pre-read-set semantics, which is how `multi_put` keeps
    /// its contract unchanged. See `apply_rw_txn` for the protocol.
    pub fn apply_txn(&self, tid: usize, ops: &[TxnOp<K, V>]) -> Vec<bool> {
        self.apply_rw_txn(tid, ops, &ReadSet::new())
            .expect("a transaction with an empty read set cannot fail validation")
    }

    /// Atomically commit a read-write transaction: a multi-key,
    /// multi-shard write batch plus a set of recorded snapshot reads that
    /// must still be current at the commit timestamp (serializability).
    ///
    /// `ops` follows the [`BundledStore::apply_txn`] contract (any order,
    /// distinct keys, results in caller order). `reads` is the read set
    /// recorded through a [`crate::StoreSnapshot`] whose lease must still
    /// be live — all reads were answered at one leased timestamp, and the
    /// snapshot's EBR pins keep the recorded node identities comparable.
    ///
    /// Protocol — an explicit **prepare → validate → advance-clock →
    /// finalize** pipeline (generalizing Algorithm 1 from one structure
    /// to N shards, now with OCC-style read validation):
    ///
    /// 1. **intents**: acquire the intent lock of every involved shard in
    ///    ascending shard order (deadlock-free by ordering). A pipeline
    ///    with a read set — this one — takes all of them **shared**: it can
    ///    abort to its caller, so it runs next to other transactions on
    ///    the same shard and lets node locks arbitrate (see below). A
    ///    pipeline without one ([`BundledStore::apply_txn`],
    ///    [`BundledStore::apply_grouped`]) cannot abort and takes its write
    ///    shards **exclusively**. From its third `Conflict` retry a
    ///    read-write commit **escalates**: it takes the shards it writes
    ///    exclusively too ([`TxnStats::intent_escalations`]), so it cannot
    ///    lose races forever. A waiter spins on the `try_` acquire for a
    ///    bounded number of rounds, then yields a bounded number of times,
    ///    and only then parks in the blocking acquire — an exclusive
    ///    section is microseconds long, a kernel sleep and wake-up costs
    ///    several, whereas a holder that is fsyncing or was descheduled is
    ///    still slept on;
    /// 2. **prepare**: stage every write through the backend's two-phase
    ///    surface — structural changes apply eagerly under node locks,
    ///    bundle entries stay *pending*, per-key pre/post images are
    ///    recorded for the validate phase;
    /// 3. **validate**: check every recorded read against the live
    ///    structure ([`ShardBackend::txn_validate`]) and pin it until
    ///    finalize. A single-key read of a key the transaction also
    ///    *writes* — every read of a read-modify-write — is already
    ///    pinned: the prepare holds the node lock that fixes the key's
    ///    state until commit (the found node, the victim and its
    ///    predecessor, or the parent of the gap — the same locks that pin
    ///    a no-op write's outcome), so nobody can change the key between
    ///    the prepare and the commit timestamp, and the only window left
    ///    is the one *before* the prepare. That is closed by comparing
    ///    the node the read recorded with the node the prepare found (its
    ///    staged `pre` image; nodes are immutable, so identity is value
    ///    identity) — no walk, no lock. Every other read (ranges, keys
    ///    not written) is re-walked in the live structure, locked, and
    ///    compared by node identity against the recorded read reconciled
    ///    with the transaction's own staged writes. A stale read aborts
    ///    the whole transaction to the caller ([`TxnAborted`]); a lock
    ///    race rolls back and retries internally with backoff, like any
    ///    prepare conflict;
    /// 4. **advance-clock**: read the shared clock **once**
    ///    ([`RqContext::advance`]) — the transaction's serialization
    ///    point. The validated reads hold *at this timestamp* because
    ///    every lock acquired in steps 2–3 is still held. (A read-only
    ///    transaction stages no pending entries and skips the advance:
    ///    its serialization point is the validation window itself.)
    /// 5. **finalize**: publish every pending entry on every shard with
    ///    that single timestamp and release all locks.
    ///
    /// A snapshot fixed before step 4 sees none of the batch; one fixed
    /// after sees all of it. On abort (conflict or stale read) every
    /// staged entry is neutralized — invisible at every timestamp.
    ///
    /// # Why sharing a shard is sound
    ///
    /// Under shared intents a neighbour's writes are staged — applied
    /// eagerly, not yet committed, possibly about to be rolled back — in
    /// the same structure this transaction prepares in and validates
    /// against. Four things keep that safe; the first is not new.
    ///
    /// * **Prepare.** Every staging seek locks the node that pins its
    ///   key's state (bounded `try_lock`, [`Conflict`] on contention) and
    ///   re-checks the position under that lock, because primitive
    ///   `insert` / `remove` have always run next to a preparing
    ///   transaction without any intent. A neighbour's staged change to a
    ///   key holds that same pinning lock until it finalizes or aborts, so
    ///   a seek either conflicts with it or finds the key in a committed
    ///   state — which is also why the covered-read shortcut of step 3
    ///   still compares against a committed `pre` image.
    /// * **A passing validation saw no uncommitted change.** Validation
    ///   passes only when the under-lock walk finds exactly the recorded
    ///   nodes (reconciled with this transaction's own writes), and on
    ///   passing it holds the range's gap predecessor — in the tree, both
    ///   in-order boundary neighbours — and every in-range node locked. A
    ///   neighbour's staged insert into the range is a node in that walk
    ///   whose lock the neighbour holds: `Conflict`. A neighbour's staged
    ///   remove holds, besides its victim, the victim's in-order neighbour
    ///   (the chain predecessor; in the tree the gap pin a staged remove
    ///   takes since PR 13), which is an in-range node or one of the
    ///   boundary pins: `Conflict`. And where a lock happens to be free
    ///   again the comparison is by identity: a victim that is missing, a
    ///   relocated copy or a fresh node that was never recorded is a
    ///   mismatch and aborts as [`TxnAborted`] — spurious if the
    ///   neighbour then rolls back, but safe. No interleaving turns a
    ///   foreign staged change into a *pass*.
    /// * **A neighbour's abort is not a new kind of update.** Rolling back
    ///   puts unlinked nodes back and un-marks them — something no
    ///   primitive operation does, and which used to happen only in the
    ///   aborting transaction's own shard-exclusive section. In the chains
    ///   every link validates adjacency under its locks, so a restored node
    ///   is simply seen. In the tree a restored node narrows the key
    ///   interval of an empty slot that itself does not change, which no
    ///   mark shows; the Citrus backend dates every search with a revert
    ///   epoch and re-checks it under the locks (its `reverts` field has
    ///   the argument).
    /// * **The log orders what needs ordering.** Commits on one shard may
    ///   now reach [`crate::CommitLog::log_group`] out of timestamp order.
    ///   Two commits that share a key, or a gap one of them pinned (a
    ///   validated range, a no-op outcome), share a node lock that the
    ///   first holds from its prepare to its finalize — across its log
    ///   call — so the log records *conflicting* commits in timestamp
    ///   order; any other pair touches disjoint keys and commutes under
    ///   replay.
    pub fn apply_rw_txn(
        &self,
        tid: usize,
        ops: &[TxnOp<K, V>],
        reads: &ReadSet<K>,
    ) -> Result<Vec<bool>, TxnAborted> {
        self.apply_rw_txn_ts(tid, ops, reads).map(|(r, _)| r)
    }

    /// [`BundledStore::apply_rw_txn`] additionally returning the commit
    /// timestamp — the single shared-clock value every write of the
    /// transaction published at (for a read-only transaction, the clock
    /// value its validation window closed over).
    pub fn apply_rw_txn_ts(
        &self,
        tid: usize,
        ops: &[TxnOp<K, V>],
        reads: &ReadSet<K>,
    ) -> Result<(Vec<bool>, u64), TxnAborted> {
        self.apply_rw_txn_with(tid, ops, reads, |results, ts| (results.to_vec(), ts))
    }

    /// [`BundledStore::apply_rw_txn_ts`] lending the outcomes instead of
    /// allocating them: `receipt` gets the per-op results (caller order)
    /// and the commit timestamp of a committed transaction and builds
    /// whatever the caller keeps. The `txn` crate threads the timestamp
    /// into its receipts this way, so applications can correlate commits
    /// with snapshot timestamps (and with the groups of the `ingest`
    /// front-end, whose tickets carry the same clock values).
    pub fn apply_rw_txn_with<R>(
        &self,
        tid: usize,
        ops: &[TxnOp<K, V>],
        reads: &ReadSet<K>,
        receipt: impl FnOnce(&[bool], u64) -> R,
    ) -> Result<R, TxnAborted> {
        let sorted = ops.windows(2).all(|w| w[0].key() < w[1].key());
        self.commit_with(tid, ops, reads, sorted, receipt)
    }

    /// Plan (on the session's warm [`CommitScratch`]), run the pipeline,
    /// lend the outcomes to `receipt`. `sorted` = `ops` is already
    /// strictly ascending by key.
    fn commit_with<R>(
        &self,
        tid: usize,
        ops: &[TxnOp<K, V>],
        reads: &ReadSet<K>,
        sorted: bool,
        receipt: impl FnOnce(&[bool], u64) -> R,
    ) -> Result<R, TxnAborted> {
        if ops.is_empty() && reads.is_empty() {
            return Ok(receipt(&[], self.ctx.read()));
        }
        let mut plan = self.scratch.take_commit(tid);
        // Work in key order regardless of the caller's op order: the
        // intent acquisition is only deadlock-free (and only visits each
        // shard once) when shards are taken in ascending order, so an
        // unsorted batch must never reach it. `order` maps sorted
        // position -> caller position.
        plan.order.clear();
        plan.order.extend(0..ops.len());
        if !sorted {
            plan.order.sort_by(|&a, &b| ops[a].key().cmp(ops[b].key()));
            assert!(
                plan.order
                    .windows(2)
                    .all(|w| ops[w[0]].key() < ops[w[1]].key()),
                "apply_txn ops must target distinct keys (stage through \
                 WriteTxn to deduplicate)"
            );
        }
        let outcome = self
            .commit_pipeline(tid, ops, reads, &mut plan)
            .map(|ts| receipt(&plan.results, ts));
        self.scratch.put_commit(tid, plan);
        outcome
    }

    /// Atomically commit one **group**: a super-batch of operations that
    /// independent sessions submitted to the `ingest` front-end, coalesced
    /// by a committer thread and published here under **one clock
    /// advance**.
    ///
    /// This runs exactly the [`BundledStore::apply_rw_txn`] pipeline
    /// (intents → prepare → advance-clock → finalize; there are no reads
    /// to validate, so commit cannot abort — and therefore takes its
    /// intents exclusively), but with the planning phase hoisted out:
    /// `ops` must already be in strictly ascending key order — the
    /// committer's per-key fold produces that for free — and the call is
    /// accounted as a *group* ([`TxnStats::group_commits`] /
    /// [`TxnStats::grouped_ops`]), which is what makes the clock
    /// amortization measurable (`group_commits / grouped_ops` advances
    /// per op).
    ///
    /// Linearizability: the whole group publishes at the returned
    /// timestamp, so every snapshot observes the group entirely or not at
    /// all; within the group, the committer's queue order is preserved by
    /// the fold that produced `ops`, and each submitter's ticket carries
    /// its own op's outcome. Conflicting writes from *outside* the group
    /// (primitive ops, transactions, other groups) serialize against it
    /// through the per-shard intent locks and node locks as usual.
    ///
    /// # Panics
    ///
    /// If `ops` is not strictly ascending by key (duplicates included —
    /// the ingest layer folds same-key submissions into one effective op
    /// *before* calling this).
    pub fn apply_grouped(&self, tid: usize, ops: &[TxnOp<K, V>]) -> GroupReceipt {
        assert!(
            ops.windows(2).all(|w| w[0].key() < w[1].key()),
            "apply_grouped ops must be strictly ascending by key \
             (the ingest fold produces this order)"
        );
        let receipt = self
            .commit_with(tid, ops, &ReadSet::new(), true, |applied, ts| {
                GroupReceipt {
                    applied: applied.to_vec(),
                    ts,
                }
            })
            .expect("a group has no read set and cannot fail validation");
        if ops.is_empty() {
            return receipt;
        }
        self.counters.group_commits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .grouped_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        receipt
    }

    /// The shared commit pipeline behind [`BundledStore::apply_rw_txn`],
    /// [`BundledStore::apply_txn`] and [`BundledStore::apply_grouped`]:
    /// intents → prepare → validate → advance-clock → finalize, with the
    /// key sorting and duplicate rejection already done by the caller
    /// (`plan.order` maps sorted position → caller position). Each
    /// shard's key-sorted run stages through one prepare cursor
    /// ([`ShardBackend::txn_cursor`] — one root descent plus short
    /// forward walks per shard). Returns the commit timestamp; the per-op
    /// outcomes are in `plan.results`.
    ///
    /// Allocation-free on warm buffers: the plan lives in `plan`, and the
    /// two lists that cannot — the intent guards borrow the store, the
    /// tokens' type needs the backend bound — are [`InlineStack`]s on
    /// this frame.
    fn commit_pipeline(
        &self,
        tid: usize,
        ops: &[TxnOp<K, V>],
        reads: &ReadSet<K>,
        plan: &mut CommitScratch,
    ) -> Result<u64, TxnAborted> {
        let CommitScratch {
            order,
            groups,
            write_shards,
            intent_shards,
            results,
        } = plan;
        // Contiguous per-shard runs over the sorted order (shards
        // partition the keyspace in key order), ascending by shard.
        groups.clear();
        for (i, &pos) in order.iter().enumerate() {
            let shard = self.shard_of(ops[pos].key());
            match groups.last_mut() {
                Some((s, r)) if *s == shard => r.end = i + 1,
                _ => groups.push((shard, i..i + 1)),
            }
        }
        // Intent set: every shard the transaction writes or validates,
        // ascending.
        write_shards.clear();
        write_shards.extend(groups.iter().map(|(s, _)| *s));
        intent_shards.clear();
        intent_shards.extend_from_slice(write_shards);
        intent_shards.extend(reads.iter().map(|r| r.shard));
        intent_shards.sort_unstable();
        intent_shards.dedup();
        self.counters
            .read_set
            .fetch_add(reads.size() as u64, Ordering::Relaxed);
        results.clear();
        results.resize(ops.len(), false);

        // A pipeline with a read set can abort to its caller, so it
        // shares its shards; one without cannot, and owns them.
        let optimistic = !reads.is_empty();
        let mut intents: InlineStack<IntentGuard<'_>, INLINE_SHARDS> = InlineStack::new();
        let mut prepared: InlineStack<(usize, S::Txn), INLINE_SHARDS> = InlineStack::new();
        let mut attempt = 0u32;
        loop {
            let t = self.obs_now();
            self.obs_stage_begin(STAGE_INTENTS, tid, attempt);
            // Phase 1: intents over every involved shard, in ascending
            // shard order (deadlock-free regardless of mode mix); each
            // one spins, then yields, then blocks (`acquire_intent`).
            let escalated = optimistic && attempt >= INTENT_ESCALATION_RETRY;
            if escalated && attempt == INTENT_ESCALATION_RETRY && !groups.is_empty() {
                self.counters
                    .intent_escalations
                    .fetch_add(1, Ordering::Relaxed);
            }
            for s in intent_shards.iter() {
                let lock = &*self.intents[*s];
                let exclusive = (!optimistic || escalated) && write_shards.binary_search(s).is_ok();
                intents.push(if exclusive {
                    IntentGuard::Exclusive(acquire_intent(
                        || lock.try_write(),
                        || lock.write().unwrap_or_else(|p| p.into_inner()),
                    ))
                } else {
                    IntentGuard::Shared(acquire_intent(
                        || lock.try_read(),
                        || lock.read().unwrap_or_else(|p| p.into_inner()),
                    ))
                });
            }
            let t = self.obs_stage(STAGE_INTENTS, tid, t);
            // Phase 2: prepare every write.
            self.obs_stage_begin(STAGE_PREPARE, tid, attempt);
            let mut failure = None;
            let mut prepare_conflict = false;
            let mut fail_shard = 0usize;
            'prepare: for (shard, range) in groups.iter() {
                let backend = &self.shards[*shard];
                // Write-only pipelines (plain batches, group commits)
                // skip the staged-image bookkeeping only validation reads.
                let txn = if optimistic {
                    backend.txn_begin(tid)
                } else {
                    backend.txn_begin_write_only(tid)
                };
                let (txn, ok) =
                    self.stage_run(backend, txn, tid, ops, &order[range.clone()], results);
                if !ok {
                    backend.txn_abort(txn);
                    failure = Some(TxnValidateError::Conflict);
                    prepare_conflict = true;
                    fail_shard = *shard;
                    break 'prepare;
                }
                prepared.push((*shard, txn));
            }
            let t = self.obs_stage(STAGE_PREPARE, tid, t);
            // Phase 3: validate every recorded read, after all of this
            // transaction's writes have staged.
            let validate_ran = failure.is_none();
            if failure.is_none() {
                self.obs_stage_begin(STAGE_VALIDATE, tid, attempt);
                for r in reads.iter() {
                    if !prepared.iter_mut().any(|(s, _)| *s == r.shard) {
                        // Read-only shard: a token to carry the
                        // validation locks until finalize.
                        prepared.push((r.shard, self.shards[r.shard].txn_begin(tid)));
                    }
                    let (_, token) = prepared
                        .iter_mut()
                        .find(|(s, _)| *s == r.shard)
                        .expect("a token for the shard was just ensured");
                    if let Err(e) =
                        self.shards[r.shard].txn_validate(token, &r.low, &r.high, r.entries)
                    {
                        failure = Some(e);
                        fail_shard = r.shard;
                        break;
                    }
                }
            }
            let t = if validate_ran {
                self.obs_stage(STAGE_VALIDATE, tid, t)
            } else {
                t
            };
            if let Some(e) = failure {
                // Roll back every shard staged so far (reverse order).
                while let Some((s, txn)) = prepared.pop() {
                    self.shards[s].txn_abort(txn);
                }
                intents.clear();
                match e {
                    TxnValidateError::Conflict => {
                        // Lock race: retry the whole transaction after a
                        // bounded backoff. The recorded reads may still be
                        // valid — only the walk lost a race.
                        self.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = &self.obs {
                            if prepare_conflict {
                                o.conflicts_prepare.incr(tid);
                            } else {
                                o.conflicts_validate.incr(tid);
                            }
                            if let Some(tr) = &o.trace {
                                tr.record(
                                    tid,
                                    TraceKind::Conflict,
                                    fail_shard as u32,
                                    (u64::from(attempt) << 1) | u64::from(!prepare_conflict),
                                );
                                if attempt == CONFLICT_BURST_ANOMALY {
                                    tr.note_anomaly(AnomalyCause::ConflictBurst, tid);
                                }
                            }
                        }
                        for _ in 0..(1u32 << attempt.min(10)) {
                            std::hint::spin_loop();
                        }
                        std::thread::yield_now();
                        attempt = attempt.saturating_add(1);
                        continue;
                    }
                    TxnValidateError::Invalidated => {
                        // Stale read: no internal retry can help — the
                        // caller must re-run against a fresh snapshot.
                        self.counters
                            .validation_failures
                            .fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = &self.obs {
                            o.aborts_invalidated.incr(tid);
                            if let Some(tr) = &o.trace {
                                tr.record(
                                    tid,
                                    TraceKind::AbortInvalidated,
                                    fail_shard as u32,
                                    u64::from(attempt),
                                );
                                tr.note_anomaly(AnomalyCause::InvalidatedAbort, tid);
                            }
                        }
                        return Err(TxnAborted);
                    }
                }
            }
            // Phase 4: the transaction's single serialization timestamp.
            // Read-only transactions have no pending entries to stamp and
            // must not advance the clock (an abort-equivalent no-op for
            // every observer); their serialization point is the validation
            // window, during which every read was re-checked and locked.
            self.obs_stage_begin(STAGE_ADVANCE, tid, attempt);
            let ts = if groups.is_empty() {
                self.ctx.read()
            } else {
                self.ctx.advance(tid)
            };
            let t = self.obs_stage(STAGE_ADVANCE, tid, t);
            // Durability hook: log (and per sync policy, fsync) the group
            // *before* any bundle entry is finalized. Concurrent readers
            // are still spinning on the pendings, so an outcome can only
            // become visible after its group is in the log — the durable
            // prefix of the log is always a prefix of the visible
            // history. With no log attached (the default) this is one
            // never-taken branch. Log order is replay-correct: two
            // commits sharing a key or a pinned gap share a node lock
            // held across this call, so the log has them in timestamp
            // order; all other pairs commute under replay.
            if !groups.is_empty() {
                if let Some(log) = &self.commit_log {
                    log.log_group(tid, ts, ops, order, results, write_shards);
                }
            }
            self.obs_stage_begin(STAGE_FINALIZE, tid, attempt);
            // Phase 5: release every snapshot spinning on the pendings
            // (and every validation lock).
            while let Some((s, txn)) = prepared.pop() {
                self.shards[s].txn_finalize(txn, ts);
            }
            self.counters.commits.fetch_add(1, Ordering::Relaxed);
            let _ = self.obs_stage(STAGE_FINALIZE, tid, t);
            if let Some(o) = &self.obs {
                o.commits.incr(tid);
                for (shard, range) in groups.iter() {
                    o.shard_ops[*shard].add(tid, range.len() as u64);
                }
            }
            return Ok(ts);
        }
    }

    /// Stage one shard's key-sorted op run into `txn` through one prepare
    /// cursor (each seek resumes from the previous op's position).
    /// Returns the token and whether every op staged (`false` = a
    /// [`Conflict`]; the caller aborts the token and retries the
    /// transaction).
    fn stage_run(
        &self,
        backend: &S,
        txn: S::Txn,
        tid: usize,
        ops: &[TxnOp<K, V>],
        order: &[usize],
        results: &mut [bool],
    ) -> (S::Txn, bool) {
        let mut cur = backend.txn_cursor(txn);
        let mut ok = true;
        for &pos in order {
            let staged = match &ops[pos] {
                TxnOp::Put(k, v) => cur.seek_prepare_put(*k, v.clone()),
                TxnOp::Set(k, v) => {
                    // Upsert: stage the removal of any current node
                    // then insert the replacement; both changes share
                    // the transaction's commit timestamp, so every
                    // snapshot sees exactly one value for the key.
                    // Reports whether the key existed. (The second
                    // seek targets the key the first just removed —
                    // the cursor's frontier is right at the gap.)
                    cur.seek_prepare_remove(k).and_then(|existed| {
                        cur.seek_prepare_put(*k, v.clone()).map(|inserted| {
                            debug_assert!(
                                inserted,
                                "upsert re-insert must succeed after staged remove"
                            );
                            existed
                        })
                    })
                }
                TxnOp::Remove(k) => cur.seek_prepare_remove(k),
            };
            match staged {
                Ok(applied) => results[pos] = applied,
                Err(Conflict) => {
                    ok = false;
                    break;
                }
            }
        }
        if let Some(o) = &self.obs {
            let cs = cur.stats();
            o.cursor_hinted.add(tid, cs.hinted);
            o.cursor_descents.add(tid, cs.descents);
        }
        (cur.finish(), ok)
    }

    /// `Instant::now()` only when instrumentation is on (the disabled
    /// store never reads the clock).
    #[inline]
    fn obs_now(&self) -> Option<Instant> {
        if self.obs.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the elapsed time since `start` into pipeline-stage
    /// histogram `stage` (plus a `StageEnd` flight-recorder event with
    /// the same duration) and return the start of the next stage.
    #[inline]
    fn obs_stage(&self, stage: usize, tid: usize, start: Option<Instant>) -> Option<Instant> {
        match (&self.obs, start) {
            (Some(o), Some(t0)) => {
                let now = Instant::now();
                let dur = now.duration_since(t0).as_nanos() as u64;
                o.stage_ns[stage].record(tid, dur);
                if let Some(tr) = &o.trace {
                    tr.record(tid, TraceKind::StageEnd, stage as u32, dur);
                }
                Some(now)
            }
            _ => None,
        }
    }

    /// Emit a `StageBegin` flight-recorder event (no-op without a
    /// recorder; the event's payload is the attempt number).
    #[inline]
    fn obs_stage_begin(&self, stage: usize, tid: usize, attempt: u32) {
        if let Some(o) = &self.obs {
            if let Some(tr) = &o.trace {
                tr.record(tid, TraceKind::StageBegin, stage as u32, u64::from(attempt));
            }
        }
    }

    /// The metrics registry this store records into, when built with
    /// [`BundledStore::with_obs`] — the `ingest` front-end registers its
    /// own instruments here so one snapshot covers the whole pipeline.
    #[must_use]
    pub fn obs_registry(&self) -> Option<&MetricsRegistry> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// The store's flight recorder, when built with
    /// [`BundledStore::with_obs`] against a live registry — the `ingest`
    /// front-end records its queue events here so one merged dump covers
    /// the whole pipeline.
    #[must_use]
    pub fn obs_trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.obs.as_ref().and_then(|o| o.trace.as_ref())
    }

    /// Record one application-level re-run of a read-write transaction
    /// closure after a [`TxnAborted`] (called by the `txn` crate's retry
    /// loop; a no-op without instrumentation).
    pub fn obs_note_rw_retry(&self, tid: usize) {
        if let Some(o) = &self.obs {
            o.rw_retries.incr(tid);
            if let Some(tr) = &o.trace {
                tr.record(tid, TraceKind::RwRetry, obs::trace::NO_SHARD, 0);
            }
        }
    }

    /// Sample every point-in-time gauge: per-shard bundle entries, the
    /// EBR retire backlog summed across shards, active snapshot
    /// announcements, and the shared clock. Counters and histograms
    /// record continuously and need no sampling; call this right before
    /// reading a snapshot so the gauges are current.
    pub fn obs_sample(&self, tid: usize) {
        let Some(o) = &self.obs else { return };
        let (mut pending, mut retired, mut freed) = (0u64, 0u64, 0u64);
        for (i, s) in self.shards.iter().enumerate() {
            o.shard_entries[i].set(s.bundle_entries(tid) as i64);
            let st = s.reclaim_stats();
            pending += st.pending();
            retired += st.retired();
            freed += st.freed();
        }
        o.ebr_pending.set(pending as i64);
        o.ebr_retired.set(retired as i64);
        o.ebr_freed.set(freed as i64);
        o.rq_active.set(self.ctx.active_rqs() as i64);
        o.clock_value.set(self.ctx.read() as i64);
        o.clock_advances.set(self.ctx.advance_calls() as i64);
        if let Some(tr) = &o.trace {
            o.trace_anomalies.set(tr.anomaly_total() as i64);
        }
    }

    /// Sample the gauges ([`BundledStore::obs_sample`]) and snapshot
    /// every instrument in the store's registry; `None` without
    /// instrumentation.
    #[must_use]
    pub fn obs_snapshot(&self, tid: usize) -> Option<MetricsSnapshot> {
        self.obs.as_ref().map(|o| {
            self.obs_sample(tid);
            o.registry.snapshot()
        })
    }

    /// Commit/conflict counters of the transaction path.
    #[must_use]
    pub fn txn_stats(&self) -> TxnStats {
        let c = &*self.counters;
        TxnStats {
            commits: c.commits.load(Ordering::Relaxed),
            conflicts: c.conflicts.load(Ordering::Relaxed),
            validation_failures: c.validation_failures.load(Ordering::Relaxed),
            read_set_size: c.read_set.load(Ordering::Relaxed),
            group_commits: c.group_commits.load(Ordering::Relaxed),
            grouped_ops: c.grouped_ops.load(Ordering::Relaxed),
            intent_escalations: c.intent_escalations.load(Ordering::Relaxed),
        }
    }

    /// One bundle-cleanup pass over every shard (Appendix B, store-wide):
    /// prunes entries no active snapshot — on *any* shard — still needs.
    pub fn cleanup_bundles(&self, tid: usize) -> usize {
        self.shards.iter().map(|s| s.cleanup(tid)).sum()
    }

    /// One *chunked* cleanup pass: sweeps the next `chunk` shards after a
    /// shared round-robin cursor instead of walking all shards
    /// sequentially. Interleaving short chunks keeps every shard's bundle
    /// footprint bounded under churn without one long stop-the-shard-scan
    /// pass, and lets several callers (or recycler ticks) cover disjoint
    /// chunks.
    pub fn cleanup_bundles_chunk(&self, tid: usize, chunk: usize) -> usize {
        let n = self.shards.len();
        let chunk = chunk.clamp(1, n);
        let start = self.recycle_cursor.fetch_add(chunk, Ordering::Relaxed) % n;
        (0..chunk)
            .map(|i| self.shards[(start + i) % n].cleanup(tid))
            .sum()
    }

    /// Total bundle entries across all shards (space diagnostic).
    #[must_use]
    pub fn bundle_entries(&self, tid: usize) -> usize {
        self.shards.iter().map(|s| s.bundle_entries(tid)).sum()
    }

    /// Bundle entries held by each shard (space diagnostic, indexed by
    /// shard). The per-shard breakdown is what makes recycler progress and
    /// skewed-churn hotspots visible.
    #[must_use]
    pub fn per_shard_bundle_entries(&self, tid: usize) -> Vec<usize> {
        self.shards.iter().map(|s| s.bundle_entries(tid)).collect()
    }

    /// Spawn one background recycler on reserved thread slot `tid` with
    /// the given delay between passes. Each pass sweeps a round-robin
    /// *chunk* of roughly half the shards ([`cleanup_bundles_chunk`]), so
    /// consecutive passes interleave across the store instead of repeating
    /// one long sequential scan.
    ///
    /// [`cleanup_bundles_chunk`]: BundledStore::cleanup_bundles_chunk
    pub fn spawn_recycler(self: &Arc<Self>, tid: usize, delay: Duration) -> Recycler
    where
        K: 'static,
        V: 'static,
        S: 'static,
    {
        let chunk = self.shards.len().div_ceil(2);
        let store = Arc::clone(self);
        Recycler::spawn(delay, move || {
            store.cleanup_bundles_chunk(tid, chunk);
        })
    }
}

// Deliberately unbounded: `StoreHandle`'s `Drop` (which has no bounds)
// must be able to return its tid.
impl<K, V, S> BundledStore<K, V, S> {
    /// The warm per-session buffers.
    pub(crate) fn scratch(&self) -> &SessionScratch<K, V> {
        &self.scratch
    }

    /// The shared linearization context, borrowed ([`Self::context`]
    /// clones it).
    pub(crate) fn ctx(&self) -> &RqContext {
        &self.ctx
    }

    /// Session `tid`'s read-set / write-set buffers for one read-write
    /// transaction: the cleared, still allocated ones its previous
    /// transaction returned, or fresh ones (a transaction that is still
    /// open on the same `tid` keeps its own). Hand them back through
    /// [`Self::return_txn_bufs`] on every exit.
    #[must_use]
    pub fn take_txn_bufs(&self, tid: usize) -> TxnBufs<K, V> {
        self.scratch.take_txn(tid)
    }

    /// Clear `bufs` and keep them for session `tid`'s next transaction.
    pub fn return_txn_bufs(&self, tid: usize, bufs: TxnBufs<K, V>) {
        self.scratch.put_txn(tid, bufs);
    }

    /// How many times session `tid` has handed transaction buffers back
    /// (monotonic; a diagnostic for tests that every exit path of a
    /// transaction — commit, abort, rollback, drop, unwind — returns
    /// them).
    #[must_use]
    pub fn txn_bufs_returned(&self, tid: usize) -> u64 {
        self.scratch.txn_returns(tid)
    }

    fn pop_tid(pool: &mut TidPool, cap: usize) -> Option<usize> {
        if let Some(tid) = pool.free.pop() {
            return Some(tid);
        }
        if pool.next < cap {
            let tid = pool.next;
            pool.next += 1;
            return Some(tid);
        }
        None
    }

    /// Blocking allocation: waits on the condvar until a session slot is
    /// released. Fair enough for bursty fleets — waiters wake one at a
    /// time as handles drop.
    pub(crate) fn acquire_tid(&self) -> usize {
        let mut pool = self.tids.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(tid) = Self::pop_tid(&mut pool, self.max_threads) {
                return tid;
            }
            pool = self.tid_freed.wait(pool).unwrap_or_else(|p| p.into_inner());
        }
    }

    pub(crate) fn try_acquire_tid(&self) -> Option<usize> {
        let mut pool = self.tids.lock().unwrap_or_else(|p| p.into_inner());
        Self::pop_tid(&mut pool, self.max_threads)
    }

    pub(crate) fn release_tid(&self, tid: usize) {
        self.tids
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .free
            .push(tid);
        self.tid_freed.notify_one();
    }
}

impl<K, V, S> ConcurrentSet<K, V> for BundledStore<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        let shard = self.shard_of(&key);
        if let Some(o) = &self.obs {
            o.shard_ops[shard].incr(tid);
        }
        self.shards[shard].insert(tid, key, value)
    }

    fn remove(&self, tid: usize, key: &K) -> bool {
        let shard = self.shard_of(key);
        if let Some(o) = &self.obs {
            o.shard_ops[shard].incr(tid);
        }
        self.shards[shard].remove(tid, key)
    }

    fn contains(&self, tid: usize, key: &K) -> bool {
        let shard = self.shard_of(key);
        if let Some(o) = &self.obs {
            o.shard_ops[shard].incr(tid);
        }
        self.shards[shard].contains(tid, key)
    }

    fn get(&self, tid: usize, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        if let Some(o) = &self.obs {
            o.shard_ops[shard].incr(tid);
        }
        self.shards[shard].get(tid, key)
    }

    fn len(&self, tid: usize) -> usize {
        self.shards.iter().map(|s| s.len(tid)).sum()
    }
}

impl<K, V, S> RangeQuerySet<K, V> for BundledStore<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    /// Linearizable **cross-shard** range query.
    ///
    /// Reads the shared clock once (the query's linearization point),
    /// announces that snapshot in the shared tracker — pinning bundle
    /// reclamation on *every* shard — and then collects each overlapping
    /// shard's fragment at that fixed timestamp. Shards partition the
    /// keyspace in key order, so concatenating the fragments yields the
    /// snapshot in ascending key order with no shard skew: an update
    /// linearized before the clock read is visible in every fragment, one
    /// linearized after it in none.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        out.clear();
        if low > high {
            return 0;
        }
        let first = self.shard_of(low);
        let last = self.shard_of(high);
        if let Some(o) = &self.obs {
            // One op per overlapping shard: fragment collection is the
            // per-shard work a range query imposes.
            for ops in &o.shard_ops[first..=last] {
                ops.incr(tid);
            }
        }
        // Pin every shard we will traverse BEFORE fixing the snapshot: a
        // node removed with a timestamp newer than the snapshot retires
        // only after the clock read below, so these pins keep every node
        // (and bundle entry) the fixed-timestamp traversals can touch
        // alive across the whole multi-shard collection.
        if first == last {
            let shard = &self.shards[first];
            let _guard = shard.pin(tid);
            // Linearization point: one clock read for the whole store.
            let rq = self.ctx.announce_rq(tid);
            return shard.range_query_at(tid, rq.ts(), low, high, out);
        }
        let shards = &self.shards[first..=last];
        let _guards: Vec<ebr::Guard<'_>> = shards.iter().map(|s| s.pin(tid)).collect();
        let rq = self.ctx.announce_rq(tid);
        let mut scratch = Vec::new();
        for shard in shards {
            // Shards only hold keys inside their boundary range, so the
            // unclamped bounds are correct for every fragment.
            shard.range_query_at(tid, rq.ts(), low, high, &mut scratch);
            out.append(&mut scratch);
        }
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CitrusStore, LazyListStore, SkipListStore};
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn uniform_splits_partition_evenly() {
        assert_eq!(uniform_splits(1, 100), vec![]);
        assert_eq!(uniform_splits(4, 100), vec![25, 50, 75]);
        assert_eq!(uniform_splits(3, 9), vec![3, 6]);
    }

    #[test]
    fn keys_route_to_expected_shards() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(4, 100));
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_of(&0), 0);
        assert_eq!(s.shard_of(&24), 0);
        assert_eq!(s.shard_of(&25), 1);
        assert_eq!(s.shard_of(&74), 2);
        assert_eq!(s.shard_of(&75), 3);
        assert_eq!(
            s.shard_of(&1_000_000),
            3,
            "overflow keys land in the last shard"
        );
        for k in [0u64, 24, 25, 74, 75, 99, 1_000_000] {
            assert!(s.insert(0, k, k));
        }
        // Each key is only in its own shard.
        assert_eq!(s.shard(0).len(0), 2);
        assert_eq!(s.shard(3).len(0), 3);
        assert_eq!(s.len(0), 7);
    }

    /// A value whose clone panics on demand, standing in for any `V::clone`
    /// that can fail inside a shard traversal.
    struct Fragile(bool);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            assert!(!self.0, "fragile value cloned");
            Fragile(false)
        }
    }

    #[test]
    fn a_panicking_clone_does_not_leave_the_range_query_announced() {
        let s = CitrusStore::<u64, Fragile>::new(2, uniform_splits(2, 100));
        assert!(s.insert(0, 10, Fragile(false)));
        assert!(s.insert(0, 60, Fragile(true)));
        let mut out = Vec::new();
        for (low, high) in [(50u64, 70u64), (0, 99)] {
            // Single-shard fast path, then the multi-shard loop.
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.range_query(1, &low, &high, &mut out)
            }));
            assert!(unwound.is_err());
            assert_eq!(
                s.context().active_rqs(),
                0,
                "announcement outlived the panic"
            );
        }
        assert_eq!(s.range_query(1, &0, &20, &mut out), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splits_are_rejected() {
        let _ = SkipListStore::<u64, u64>::new(1, vec![10, 10]);
    }

    fn basic_ops<S: ShardBackend<u64, u64>>(splits: Vec<u64>) {
        let s = BundledStore::<u64, u64, S>::new(2, splits);
        let mut model = BTreeMap::new();
        let mut seed = 0x5eed_u64;
        for _ in 0..4000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let k = seed % 300;
            match seed % 3 {
                0 => assert_eq!(s.insert(0, k, k), model.insert(k, k).is_none()),
                1 => assert_eq!(s.remove(0, &k), model.remove(&k).is_some()),
                _ => assert_eq!(s.get(0, &k), model.get(&k).copied()),
            }
        }
        assert_eq!(s.len(0), model.len());
        let mut out = Vec::new();
        s.range_query(1, &40, &260, &mut out);
        let expected: Vec<(u64, u64)> = model.range(40..=260).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected, "cross-shard range must equal the model");
    }

    #[test]
    fn model_equivalence_on_all_backends() {
        basic_ops::<skiplist::BundledSkipList<u64, u64>>(uniform_splits(4, 300));
        basic_ops::<lazylist::BundledLazyList<u64, u64>>(uniform_splits(3, 300));
        basic_ops::<citrus::BundledCitrusTree<u64, u64>>(uniform_splits(5, 300));
        // Degenerate single-shard store must also behave.
        basic_ops::<skiplist::BundledSkipList<u64, u64>>(vec![]);
    }

    #[test]
    fn multi_get_and_multi_put() {
        let s = LazyListStore::<u64, u64>::new(1, uniform_splits(3, 90));
        assert_eq!(s.multi_put(0, &[(1, 10), (40, 400), (80, 800), (1, 99)]), 3);
        assert_eq!(
            s.multi_get(0, &[1, 40, 80, 7]),
            vec![Some(10), Some(400), Some(800), None]
        );
        assert_eq!(s.len(0), 3);
    }

    #[test]
    fn handles_allocate_and_recycle_tids() {
        let s = Arc::new(CitrusStore::<u64, u64>::new(2, uniform_splits(2, 100)));
        let h0 = s.register();
        assert_eq!(h0.tid(), 0);
        {
            let h1 = s.register();
            assert_eq!(h1.tid(), 1);
            h1.insert(60, 6);
        }
        // Dropped handle's slot is reused.
        let h1b = s.register();
        assert_eq!(h1b.tid(), 1);
        h0.insert(10, 1);
        assert_eq!(h1b.get(&10), Some(1));
        assert_eq!(h0.range_query_vec(&0, &100), vec![(10, 1), (60, 6)]);
    }

    #[test]
    fn try_register_returns_none_when_exhausted() {
        let s = Arc::new(SkipListStore::<u64, u64>::new(1, vec![]));
        let a = s.try_register().expect("first slot is free");
        assert_eq!(a.tid(), 0);
        assert!(s.try_register().is_none(), "pool exhausted");
        drop(a);
        assert!(s.try_register().is_some(), "slot returned on drop");
    }

    #[test]
    fn register_drop_register_tight_loop_never_blocks_with_full_pool() {
        // Regression guard for `StoreHandle`'s Drop returning its tid to
        // the pool: with every slot in use, a register->drop->register
        // loop must always find the just-released slot instead of parking
        // forever on the condvar. Run it off-thread with a deadline so a
        // regression fails the test rather than hanging the suite.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let s = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(2, 100)));
            // One slot parked for the whole test: the pool is full once
            // the loop's handle is live.
            let _parked = s.register();
            for i in 0..10_000u64 {
                let h = s.register();
                assert_eq!(h.tid(), 1, "the released slot is reused");
                if i % 128 == 0 {
                    h.insert(i % 100, i);
                }
                drop(h);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("register->drop->register loop wedged on the tid condvar");
        worker.join().unwrap();
    }

    #[test]
    fn register_blocks_until_a_slot_frees_in_a_burst() {
        // 8 worker threads share a 2-slot session pool: every registration
        // must eventually succeed by waiting on the condvar (the old
        // behaviour panicked the whole fleet).
        const WORKERS: usize = 8;
        const ROUNDS: usize = 25;
        let s = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(2, 1_000)));
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        let h = s.register();
                        assert!(h.tid() < 2, "dense slot discipline");
                        let k = (w * ROUNDS + r) as u64 % 1_000;
                        h.insert(k, k);
                        let _ = h.get(&k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Both slots are free again afterwards.
        let a = s.try_register().unwrap();
        let b = s.try_register().unwrap();
        assert!(s.try_register().is_none());
        drop((a, b));
    }

    fn txn_roundtrip<S: ShardBackend<u64, u64>>(label: &str) {
        let s = BundledStore::<u64, u64, S>::new(2, uniform_splits(4, 400));
        s.insert(0, 10, 10);
        s.insert(0, 250, 250);
        // A cross-shard transaction mixing puts, a remove, and no-ops.
        let ops = vec![
            TxnOp::Put(5, 50),
            TxnOp::Remove(10),
            TxnOp::Put(150, 151),
            TxnOp::Remove(240),
            TxnOp::Put(250, 999),
            TxnOp::Put(399, 390),
        ];
        let results = s.apply_txn(0, &ops);
        assert_eq!(
            results,
            vec![true, true, true, false, false, true],
            "{label}: per-op outcomes"
        );
        let mut out = Vec::new();
        s.range_query(1, &0, &400, &mut out);
        assert_eq!(
            out,
            vec![(5, 50), (150, 151), (250, 250), (399, 390)],
            "{label}: committed state"
        );
        let stats = s.txn_stats();
        assert_eq!(stats.commits, 1, "{label}");
        // Empty transactions are free.
        assert!(s.apply_txn(0, &[]).is_empty());
        assert_eq!(s.txn_stats().commits, 1, "{label}: empty txn not counted");
    }

    #[test]
    fn apply_txn_roundtrip_on_all_backends() {
        txn_roundtrip::<skiplist::BundledSkipList<u64, u64>>("skiplist");
        txn_roundtrip::<lazylist::BundledLazyList<u64, u64>>("lazylist");
        txn_roundtrip::<citrus::BundledCitrusTree<u64, u64>>("citrus");
    }

    fn txn_set_upserts<S: ShardBackend<u64, u64>>(label: &str) {
        let s = BundledStore::<u64, u64, S>::new(1, uniform_splits(3, 300));
        s.insert(0, 10, 1);
        let ops = vec![
            TxnOp::Set(10, 2),   // replace existing
            TxnOp::Set(150, 5),  // insert fresh
            TxnOp::Put(250, 25), // plain insert alongside
        ];
        let results = s.apply_txn(0, &ops);
        assert_eq!(
            results,
            vec![true, false, true],
            "{label}: Set reports whether the key existed"
        );
        assert_eq!(s.get(0, &10), Some(2), "{label}: value replaced");
        assert_eq!(s.get(0, &150), Some(5));
        let mut out = Vec::new();
        s.range_query(0, &0, &300, &mut out);
        assert_eq!(out, vec![(10, 2), (150, 5), (250, 25)], "{label}");
    }

    #[test]
    fn apply_txn_accepts_unsorted_ops_and_keeps_caller_order() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(4, 400));
        s.insert(0, 50, 5);
        // Unsorted, with two keys in the same shard (10 and 50): internal
        // key-ordering must still take each shard's intent exactly once.
        let ops = vec![
            TxnOp::Put(350, 35),
            TxnOp::Remove(50),
            TxnOp::Put(10, 1),
            TxnOp::Put(150, 15),
        ];
        let results = s.apply_txn(0, &ops);
        assert_eq!(results, vec![true, true, true, true], "caller op order");
        let mut out = Vec::new();
        s.range_query(0, &0, &400, &mut out);
        assert_eq!(out, vec![(10, 1), (150, 15), (350, 35)]);
    }

    #[test]
    #[should_panic(expected = "distinct keys")]
    fn apply_txn_rejects_duplicate_keys() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(2, 100));
        let _ = s.apply_txn(0, &[TxnOp::Put(1, 1), TxnOp::Put(1, 2)]);
    }

    #[test]
    fn apply_txn_set_upserts_on_all_backends() {
        txn_set_upserts::<skiplist::BundledSkipList<u64, u64>>("skiplist");
        txn_set_upserts::<lazylist::BundledLazyList<u64, u64>>("lazylist");
        txn_set_upserts::<citrus::BundledCitrusTree<u64, u64>>("citrus");
    }

    fn rw_txn_pipeline<S: ShardBackend<u64, u64>>(label: &str) {
        let s = BundledStore::<u64, u64, S>::new(2, uniform_splits(4, 400));
        s.insert(0, 10, 1);
        s.insert(0, 250, 2);

        // A read-modify-write across shards: read 10 and the (empty)
        // range around 300, write both based on the reads.
        let mut reads = ReadSet::new();
        let snap = s.snapshot(0);
        assert_eq!(snap.get_recorded(&10, &mut reads), Some(1));
        let mut out = Vec::new();
        snap.range_recorded(&300, &390, &mut out, &mut reads);
        assert!(out.is_empty());
        let ops = vec![TxnOp::Set(10, 100), TxnOp::Put(300, 3)];
        let results = s
            .apply_rw_txn(0, &ops, &reads)
            .expect("no interference, commit must succeed");
        drop(snap);
        assert_eq!(results, vec![true, true], "{label}");
        assert_eq!(s.get(0, &10), Some(100), "{label}");
        assert_eq!(s.get(0, &300), Some(3), "{label}");
        let stats = s.txn_stats();
        assert_eq!(stats.commits, 1, "{label}");
        assert_eq!(stats.validation_failures, 0, "{label}");
        assert!(stats.read_set_size >= 3, "{label}: fragments + entries");

        // Stale read: key 10 changes between the snapshot and the commit.
        let mut reads = ReadSet::new();
        let snap = s.snapshot(0);
        assert_eq!(snap.get_recorded(&10, &mut reads), Some(100));
        s.remove(1, &10);
        let err = s.apply_rw_txn(0, &[TxnOp::Set(10, 999)], &reads);
        drop(snap);
        assert_eq!(err, Err(TxnAborted), "{label}: stale read must abort");
        assert_eq!(s.get(0, &10), None, "{label}: aborted write invisible");
        assert_eq!(s.txn_stats().validation_failures, 1, "{label}");

        // Phantom: the read-empty range gains a key before commit.
        let mut reads = ReadSet::new();
        let snap = s.snapshot(0);
        snap.range_recorded(&320, &340, &mut out, &mut reads);
        s.insert(1, 330, 33);
        let err = s.apply_rw_txn(0, &[TxnOp::Put(399, 9)], &reads);
        drop(snap);
        assert_eq!(err, Err(TxnAborted), "{label}: phantom must abort");
        assert!(!s.contains(0, &399), "{label}");

        // Read-only transaction: validates without advancing the clock.
        let clock = s.context().read();
        let mut reads = ReadSet::new();
        let snap = s.snapshot(0);
        assert_eq!(snap.get_recorded(&300, &mut reads), Some(3));
        assert_eq!(s.apply_rw_txn(0, &[], &reads), Ok(Vec::new()), "{label}");
        drop(snap);
        assert_eq!(
            s.context().read(),
            clock,
            "{label}: read-only txn is clock-free"
        );
    }

    #[test]
    fn rw_txn_pipeline_on_all_backends() {
        rw_txn_pipeline::<skiplist::BundledSkipList<u64, u64>>("skiplist");
        rw_txn_pipeline::<lazylist::BundledLazyList<u64, u64>>("lazylist");
        rw_txn_pipeline::<citrus::BundledCitrusTree<u64, u64>>("citrus");
    }

    /// The transactional analogue of `no_shard_skew`: a writer commits
    /// batches that touch every shard; every concurrent snapshot must
    /// contain each batch entirely or not at all.
    fn no_partial_batches<S: ShardBackend<u64, u64> + 'static>(shards: usize) {
        const BATCHES: u64 = 400;
        let span = 1_000u64;
        let n = shards as u64;
        let splits: Vec<u64> = (1..n).map(|i| i * span).collect();
        let s = Arc::new(BundledStore::<u64, u64, S>::new(3, splits));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for b in 0..BATCHES {
                    // One key per shard, all tagged with the batch id.
                    let ops: Vec<TxnOp<u64, u64>> =
                        (0..n).map(|sh| TxnOp::Put(sh * span + b, b)).collect();
                    let results = s.apply_txn(0, &ops);
                    assert!(results.iter().all(|r| *r));
                }
            })
        };
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    s.range_query(1, &0, &(n * span), &mut out);
                    assert!(
                        out.len().is_multiple_of(shards),
                        "snapshot holds a partial transaction: {} keys over {shards} shards",
                        out.len()
                    );
                    // Each batch is all-present or all-absent.
                    let mut per_batch = std::collections::HashMap::new();
                    for (k, v) in &out {
                        assert_eq!(k % span, *v);
                        *per_batch.entry(*v).or_insert(0usize) += 1;
                    }
                    for (batch, count) in per_batch {
                        assert_eq!(count, shards, "batch {batch} partially visible");
                    }
                }
            })
        };
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(s.len(0), (BATCHES * n) as usize);
        assert_eq!(s.txn_stats().commits, BATCHES);
    }

    #[test]
    fn cross_shard_transactions_are_never_partially_visible() {
        no_partial_batches::<skiplist::BundledSkipList<u64, u64>>(3);
        no_partial_batches::<lazylist::BundledLazyList<u64, u64>>(2);
        no_partial_batches::<citrus::BundledCitrusTree<u64, u64>>(4);
    }

    fn grouped_commit<S: ShardBackend<u64, u64>>(label: &str) {
        let s = BundledStore::<u64, u64, S>::new(2, uniform_splits(4, 400));
        s.insert(0, 10, 10);
        s.insert(0, 250, 250);
        // A key-sorted super-batch spanning three shards: puts, a remove,
        // and no-ops, published under one clock advance.
        let before_calls = s.context().advance_calls();
        let ops = vec![
            TxnOp::Put(5, 50),
            TxnOp::Remove(10),
            TxnOp::Put(150, 151),
            TxnOp::Remove(240),
            TxnOp::Set(250, 999),
            TxnOp::Put(399, 390),
        ];
        let receipt = s.apply_grouped(0, &ops);
        assert_eq!(
            receipt.applied,
            vec![true, true, true, false, true, true],
            "{label}: per-op outcomes"
        );
        assert_eq!(
            s.context().advance_calls(),
            before_calls + 1,
            "{label}: the whole group advanced the clock once"
        );
        assert_eq!(
            receipt.ts,
            s.context().read(),
            "{label}: receipt carries the commit timestamp"
        );
        let mut out = Vec::new();
        s.range_query(1, &0, &400, &mut out);
        assert_eq!(
            out,
            vec![(5, 50), (150, 151), (250, 999), (399, 390)],
            "{label}: committed state"
        );
        let stats = s.txn_stats();
        assert_eq!(stats.group_commits, 1, "{label}");
        assert_eq!(stats.grouped_ops, 6, "{label}");
        assert_eq!(stats.commits, 1, "{label}: a group is one commit");
        // Empty groups are free (and report the current clock).
        let empty = s.apply_grouped(0, &[]);
        assert!(empty.applied.is_empty());
        assert_eq!(empty.ts, s.context().read());
        assert_eq!(s.txn_stats().group_commits, 1, "{label}: empty not counted");
    }

    #[test]
    fn apply_grouped_on_all_backends() {
        grouped_commit::<skiplist::BundledSkipList<u64, u64>>("skiplist");
        grouped_commit::<lazylist::BundledLazyList<u64, u64>>("lazylist");
        grouped_commit::<citrus::BundledCitrusTree<u64, u64>>("citrus");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn apply_grouped_rejects_unsorted_ops() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(2, 100));
        let _ = s.apply_grouped(0, &[TxnOp::Put(7, 7), TxnOp::Put(3, 3)]);
    }

    #[test]
    fn apply_rw_txn_ts_returns_the_commit_timestamp() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(2, 100));
        let (results, ts) = s
            .apply_rw_txn_ts(0, &[TxnOp::Put(10, 1), TxnOp::Put(60, 6)], &ReadSet::new())
            .expect("no reads, cannot abort");
        assert_eq!(results, vec![true, true]);
        assert_eq!(ts, s.context().read(), "writes published at `ts`");
        // An empty transaction reports the current clock without advancing.
        let (empty, ts2) = s.apply_rw_txn_ts(0, &[], &ReadSet::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(ts2, ts);
    }

    /// `multi_get` answers every key from one leased snapshot: a
    /// concurrently-committing transaction that rewrites two keys in
    /// lockstep can never be observed half-applied across the batch.
    #[test]
    fn multi_get_is_one_atomic_cut() {
        let s = Arc::new(SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400)));
        let (a, b) = (10u64, 350u64); // different shards
        s.apply_txn(0, &[TxnOp::Put(a, 0), TxnOp::Put(b, 0)]);
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for round in 1..400u64 {
                    s.apply_txn(0, &[TxnOp::Set(a, round), TxnOp::Set(b, round)]);
                }
            })
        };
        for _ in 0..400 {
            let got = s.multi_get(1, &[a, b]);
            assert_eq!(
                got[0], got[1],
                "multi_get observed a transaction half-applied: {got:?}"
            );
        }
        writer.join().unwrap();
    }

    /// Pipelines with a read set take *shared* intents: many concurrent
    /// read-only validations and a read-write writer on the same shard
    /// all commit, next to a write-only batch whose exclusive intent
    /// interleaves with theirs without deadlock or lost writes.
    #[test]
    fn read_only_validations_share_the_intent_lock() {
        const READERS: usize = 4;
        let s = Arc::new(SkipListStore::<u64, u64>::new(
            READERS + 2,
            uniform_splits(2, 100),
        ));
        s.insert(0, 10, 1);
        s.insert(0, 30, 0);
        s.insert(0, 60, 6);
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let tid = r + 1;
                    for _ in 0..200 {
                        let mut reads = ReadSet::new();
                        let snap = s.snapshot(tid);
                        let v = snap.get_recorded(&10, &mut reads);
                        let ok = s.apply_rw_txn(tid, &[], &reads).is_ok();
                        drop(snap);
                        // The key is never touched, so validation always
                        // holds and the read is always current.
                        assert!(ok, "uncontended read-only validation aborted");
                        assert_eq!(v, Some(1));
                    }
                })
            })
            .collect();
        // A read-write counter on a third key of the shard: shared too.
        let counter = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let tid = READERS + 1;
                for _ in 0..200 {
                    let mut reads = ReadSet::new();
                    let snap = s.snapshot(tid);
                    let v = snap.get_recorded(&30, &mut reads).unwrap();
                    let done = s.apply_rw_txn(tid, &[TxnOp::Set(30, v + 1)], &reads);
                    drop(snap);
                    assert_eq!(done, Ok(vec![true]), "nobody else writes key 30");
                }
            })
        };
        // A concurrent write-only batch on yet another key of the shard.
        for i in 0..200u64 {
            s.apply_txn(0, &[TxnOp::Set(60, i)]);
        }
        for r in readers {
            r.join().unwrap();
        }
        counter.join().unwrap();
        assert_eq!(s.get(0, &60), Some(199));
        assert_eq!(s.get(0, &30), Some(200));
        assert_eq!(s.txn_stats().intent_escalations, 0);
    }

    /// The mode table, against a long holder. Behind an *exclusive*
    /// holder everybody waits — past the whole spin and yield budget
    /// (50 ms against ~65 us + 64 yields), in the blocking acquire — and
    /// commits after the release: a write-only batch, a read-only
    /// validation and a read-write transaction. Behind a *shared* holder
    /// only the write-only batch waits; the two optimistic kinds share.
    #[test]
    fn intent_waiters_block_behind_a_long_holder_and_acquire_after_release() {
        let s = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(2, 100)));
        s.insert(0, 20, 2);
        let mut reads = ReadSet::new();
        let snap = s.snapshot(2);
        assert_eq!(snap.get_recorded(&20, &mut reads), Some(2));
        let held = s.intents[0].write().unwrap();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| s.apply_txn(1, &[TxnOp::Put(10, 1)]));
            let reader = scope.spawn(|| s.apply_rw_txn(2, &[], &reads));
            let rw = scope.spawn(|| s.apply_rw_txn(3, &[TxnOp::Put(30, 3)], &reads));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished() && !reader.is_finished() && !rw.is_finished());
            assert!(!s.contains(0, &10), "a waiter got past a held intent");
            assert!(!s.contains(0, &30), "a waiter got past a held intent");
            drop(held);
            assert_eq!(writer.join().unwrap(), vec![true]);
            assert_eq!(reader.join().unwrap(), Ok(Vec::new()));
            assert_eq!(rw.join().unwrap(), Ok(vec![true]));
        });
        let held = s.intents[0].read().unwrap();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| s.apply_txn(1, &[TxnOp::Put(11, 1)]));
            assert_eq!(s.apply_rw_txn(2, &[], &reads), Ok(Vec::new()));
            assert_eq!(
                s.apply_rw_txn(3, &[TxnOp::Put(31, 3)], &reads),
                Ok(vec![true])
            );
            std::thread::sleep(Duration::from_millis(50));
            assert!(!writer.is_finished() && !s.contains(0, &11));
            drop(held);
            assert_eq!(writer.join().unwrap(), vec![true]);
        });
        drop(snap);
        assert_eq!(s.get(0, &10), Some(1));
        assert_eq!(s.get(0, &11), Some(1));
    }

    #[test]
    fn acquire_intent_takes_over_a_poisoned_lock() {
        let lock = Arc::new(RwLock::new(()));
        let l = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _g = l.write().unwrap();
            panic!("poison the intent");
        })
        .join();
        assert!(lock.is_poisoned());
        drop(acquire_intent(|| lock.try_write(), || unreachable!()));
        drop(acquire_intent(|| lock.try_read(), || unreachable!()));
    }

    #[test]
    fn multi_put_is_atomic_and_keeps_first_wins_semantics() {
        let s = LazyListStore::<u64, u64>::new(2, uniform_splits(3, 90));
        // Unsorted input with a duplicate: first occurrence wins.
        assert_eq!(s.multi_put(0, &[(80, 800), (1, 10), (40, 400), (1, 99)]), 3);
        assert_eq!(s.get(0, &1), Some(10));
        assert_eq!(s.txn_stats().commits, 1, "one transaction for the batch");
        // Re-putting existing keys is a no-op transaction.
        assert_eq!(s.multi_put(0, &[(1, 0), (40, 0), (41, 410)]), 1);
        assert_eq!(s.get(0, &40), Some(400));
        assert_eq!(s.len(0), 4);
    }

    #[test]
    fn chunked_cleanup_covers_all_shards_round_robin() {
        let s = SkipListStore::<u64, u64>::new(2, uniform_splits(4, 400));
        for k in 0..400u64 {
            s.insert(0, k, k);
        }
        for _ in 0..4 {
            for k in 0..400u64 {
                s.remove(0, &k);
                s.insert(0, k, k);
            }
        }
        let before = s.per_shard_bundle_entries(0);
        assert_eq!(before.len(), 4);
        // Four chunk-1 passes advance the cursor across every shard.
        let mut reclaimed = 0;
        for _ in 0..4 {
            reclaimed += s.cleanup_bundles_chunk(1, 1);
        }
        assert!(reclaimed > 0);
        let after = s.per_shard_bundle_entries(0);
        for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
            assert!(a < b, "shard {i} was never swept ({b} -> {a})");
        }
        assert_eq!(s.bundle_entries(0), after.iter().sum::<usize>());
    }

    /// The signature cross-shard atomicity check: one writer inserts keys
    /// in an order that cycles through the shards on *every* insert, so two
    /// consecutive writes always land on different shards. A linearizable
    /// snapshot must contain a prefix of the write order; a snapshot with a
    /// later write but not an earlier one proves shard skew.
    fn no_shard_skew<S: ShardBackend<u64, u64> + 'static>(shards: usize) {
        const PER_SHARD: u64 = 500;
        let span = PER_SHARD; // shard i covers [i*span, (i+1)*span)
        let n = shards as u64;
        let splits: Vec<u64> = (1..n).map(|i| i * span).collect();
        let s = Arc::new(BundledStore::<u64, u64, S>::new(3, splits));
        // Write order: (base 0 of every shard), (base 1 of every shard), ...
        // Key sh*span + base has write index base*n + sh.
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for base in 0..PER_SHARD {
                    for sh in 0..n {
                        assert!(s.insert(0, sh * span + base, base));
                    }
                }
            })
        };
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut idx = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    s.range_query(1, &0, &(n * span), &mut out);
                    // Map each observed key back to its write index; a
                    // linearizable snapshot is a gap-free prefix of writes.
                    idx.clear();
                    idx.extend(out.iter().map(|(k, _)| (k % span) * n + k / span));
                    idx.sort_unstable();
                    for (i, v) in idx.iter().enumerate() {
                        assert_eq!(
                            *v, i as u64,
                            "snapshot misses an earlier write: shard skew in cross-shard range query"
                        );
                    }
                }
            })
        };
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(s.len(0), (PER_SHARD * n) as usize);
    }

    #[test]
    fn cross_shard_snapshots_have_no_skew() {
        no_shard_skew::<skiplist::BundledSkipList<u64, u64>>(2);
        no_shard_skew::<skiplist::BundledSkipList<u64, u64>>(7);
        no_shard_skew::<lazylist::BundledLazyList<u64, u64>>(3);
        no_shard_skew::<citrus::BundledCitrusTree<u64, u64>>(4);
    }

    #[test]
    fn recycler_prunes_across_shards_under_load() {
        let s = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(4, 400)));
        for k in 0..400u64 {
            s.insert(0, k, k);
        }
        for _ in 0..5 {
            for k in 0..400u64 {
                s.remove(0, &k);
                s.insert(0, k, k);
            }
        }
        let before = s.bundle_entries(0);
        let recycler = s.spawn_recycler(2, Duration::from_millis(1));
        // Concurrent queries while the recycler runs.
        let mut out = Vec::new();
        for _ in 0..200 {
            s.range_query(1, &0, &400, &mut out);
            assert_eq!(out.len(), 400);
        }
        while recycler.passes() < 3 {
            std::thread::yield_now();
        }
        recycler.stop();
        let after = s.bundle_entries(0);
        assert!(
            after < before,
            "recycler must prune stale entries ({before} -> {after})"
        );
        s.range_query(1, &0, &400, &mut out);
        assert_eq!(out.len(), 400);
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(4, 100));
        let mut out = vec![(1u64, 1u64)];
        assert_eq!(s.range_query(0, &50, &40, &mut out), 0);
        assert!(out.is_empty(), "inverted range clears the output");
        assert_eq!(s.range_query(0, &0, &99, &mut out), 0);
    }

    fn obs_covers_every_layer<S: ShardBackend<u64, u64>>(label: &str) {
        let reg = obs::MetricsRegistry::new();
        let s = BundledStore::<u64, u64, S>::with_obs(
            2,
            ReclaimMode::Reclaim,
            uniform_splits(4, 400),
            &reg,
        );
        // Primitive ops land in their shard's op counter.
        s.insert(0, 10, 1);
        s.insert(0, 110, 11);
        assert!(s.contains(0, &10));
        // A grouped commit spanning three shards drives the pipeline.
        let _ = s.apply_grouped(
            0,
            &[TxnOp::Put(5, 5), TxnOp::Put(150, 15), TxnOp::Put(399, 39)],
        );
        // A stale read aborts and is counted by cause.
        let mut reads = ReadSet::new();
        let snap = s.snapshot(0);
        assert_eq!(snap.get_recorded(&10, &mut reads), Some(1));
        s.remove(1, &10);
        assert_eq!(
            s.apply_rw_txn(0, &[TxnOp::Set(10, 9)], &reads),
            Err(TxnAborted),
            "{label}"
        );
        drop(snap);
        // A cross-shard range query counts one op per overlapping shard.
        let mut out = Vec::new();
        s.range_query(0, &0, &400, &mut out);

        let snap = s.obs_snapshot(0).expect("instrumented store snapshots");
        for stage in crate::observe::PIPELINE_STAGES {
            let name = format!("store.pipeline.{stage}_ns");
            match snap.get(&name) {
                Some(obs::SnapshotValue::Histogram(h)) => {
                    assert!(h.count >= 1, "{label}: {name} never recorded");
                    assert_eq!(h.bucket_total(), h.count, "{label}: {name}");
                }
                other => panic!("{label}: {name} missing or wrong kind: {other:?}"),
            }
        }
        let counter = |name: &str| match snap.get(name) {
            Some(obs::SnapshotValue::Counter(c)) => *c,
            other => panic!("{label}: {name} missing or wrong kind: {other:?}"),
        };
        assert!(counter("store.txn.commits") >= 1, "{label}");
        assert_eq!(counter("store.txn.aborts.invalidated"), 1, "{label}");
        for shard in 0..s.shard_count() {
            assert!(
                counter(&format!("store.shard{shard}.ops")) >= 1,
                "{label}: shard {shard} ops never counted"
            );
        }
        assert!(
            counter("store.cursor.hinted") + counter("store.cursor.descents") >= 3,
            "{label}: cursor seeks unaccounted"
        );
        let gauge = |name: &str| match snap.get(name) {
            Some(obs::SnapshotValue::Gauge(g)) => *g,
            other => panic!("{label}: {name} missing or wrong kind: {other:?}"),
        };
        assert!(gauge("store.clock.value") >= 1, "{label}");
        assert!(gauge("store.clock.advances") >= 1, "{label}");
        assert_eq!(gauge("store.rq.active_queries"), 0, "{label}: none live");
        assert!(gauge("store.ebr.retired") >= 0, "{label}");
    }

    #[test]
    fn obs_covers_every_layer_on_all_backends() {
        obs_covers_every_layer::<skiplist::BundledSkipList<u64, u64>>("skiplist");
        obs_covers_every_layer::<lazylist::BundledLazyList<u64, u64>>("lazylist");
        obs_covers_every_layer::<citrus::BundledCitrusTree<u64, u64>>("citrus");
    }

    #[test]
    fn uninstrumented_store_snapshots_nothing() {
        let s = SkipListStore::<u64, u64>::new(1, uniform_splits(2, 100));
        s.insert(0, 10, 1);
        assert!(s.obs_registry().is_none());
        assert!(s.obs_snapshot(0).is_none());
        s.obs_sample(0); // no-op, must not panic
        s.obs_note_rw_retry(0);
    }

    #[test]
    fn obs_conflict_causes_are_distinguished() {
        // Validation conflicts (not prepare conflicts) are what a lost
        // lock race during read validation produces; exercise the
        // counters at least structurally: a clean commit counts no
        // conflict of either cause.
        let reg = obs::MetricsRegistry::new();
        let s = SkipListStore::<u64, u64>::with_obs(
            1,
            ReclaimMode::Reclaim,
            uniform_splits(2, 100),
            &reg,
        );
        s.apply_txn(0, &[TxnOp::Put(10, 1), TxnOp::Put(60, 6)]);
        let snap = s.obs_snapshot(0).unwrap();
        assert_eq!(
            snap.get("store.txn.conflicts.prepare"),
            Some(&obs::SnapshotValue::Counter(0))
        );
        assert_eq!(
            snap.get("store.txn.conflicts.validate"),
            Some(&obs::SnapshotValue::Counter(0))
        );
        assert_eq!(
            snap.get("store.txn.commits"),
            Some(&obs::SnapshotValue::Counter(1))
        );
    }
}
