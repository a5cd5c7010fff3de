//! # ingest — a group-commit ingestion front-end for the sharded store
//!
//! Every committed write on a [`store::BundledStore`] pays one shared
//! clock advance ([`bundle::RqContext::advance`]) plus one trip through
//! the commit pipeline. Under update-heavy traffic — exactly where the
//! paper shows bundles are cheapest — those two per-write costs become
//! the bottleneck. This crate amortizes both: clients fire operations at
//! per-shard submission rings and get back a waitable [`Ticket`];
//! dedicated **committer threads** drain the rings, coalesce compatible
//! operations from *different* sessions into one super-batch, and
//! publish the whole group through
//! [`store::BundledStore::apply_grouped`] — the store's existing prepare
//! → advance → finalize pipeline, entered **once per group**, advancing
//! the clock **once per group**.
//!
//! ## Linearizability
//!
//! A group is an atomic cut: every operation in it publishes at one
//! commit timestamp, so any snapshot (range query, leased read,
//! transaction) observes the group entirely or not at all. *Single-op*
//! submissions on the same key land in the same per-shard ring and are
//! serialized in ring order — the committer folds them into one
//! effective staged op (see the `fold` module) and replays the ring
//! order to give each ticket its operation's individual outcome, exactly
//! as if the operations had executed back-to-back at adjacent
//! linearization points that happen to share a timestamp. Whole
//! multi-key batches ([`Ingest::submit_batch`]) ride inside a single
//! group, so they stay atomic like a
//! [`store::BundledStore::apply_txn`] batch; a batch is *routed* by its
//! first key's shard, so its other keys may serialize against same-key
//! submissions in other committers' rings through the store's node
//! locks rather than through any one ring — the tickets' `(ts, seq)`
//! metadata reports the order that actually resulted.
//!
//! ## Pipelining
//!
//! Group commit batches *naturally*: while a committer publishes group
//! *N*, producers keep enqueueing; the next drain scoops everything that
//! accumulated. Producers that want throughput rather than per-op latency
//! submit a window of operations ([`Ingest::submit_all`]) and wait the
//! tickets afterwards — `benchmark/`'s `ingest_pipelined` workload runs
//! 256-op windows. An optional [`IngestConfig::linger`] adds a fixed epoch
//! delay to grow groups further at the cost of latency.
//!
//! ## The submission path is lock-free
//!
//! Each shard's submission queue is a bounded lock-free MPSC ring
//! ([`ring::MpscRing`]): a producer reserves a slot with one `fetch_add`
//! and publishes with one release store — no lock, no condvar, no
//! serialization against other producers beyond the two contended cache
//! lines themselves. Blocking is layered *on top*, eventcount-style:
//! sleep counters tell publishers and drains whether anyone is parked,
//! so the uncontended hot path never touches the wake mutex.
//!
//! ## Hand-off cost
//!
//! One committer serves every producer of its shards, so whatever it
//! does per *op* is serial time the whole front-end pays; the hand-off
//! around [`store::BundledStore::apply_grouped`] is therefore priced per
//! **group** wherever the protocol allows:
//!
//! | step | per group | per op |
//! |---|---|---|
//! | ring drain ([`ring::MpscRing::pop_run`]) | one `head` store and one occupancy-gate RMW per ring | a slot read and its seq release |
//! | fold / outcome scatter | sort of the group's keys; every buffer is reused, none allocated | one flat outcome bit |
//! | ticket resolve | — | an uncontended slot store and one state-word swap: **no syscall, no allocation** (a single-op ticket carries its outcome bit inline; the waiter builds the `Vec<bool>`) |
//! | wake-up | one `unpark` per *parked thread* (deduplicated), issued after the whole group's outcomes are stored | — |
//! | flush / backpressure accounting | one `in_flight` RMW, one sleeper check | — |
//!
//! A producer that pipelines a window and then waits its tickets in
//! order parks on at most one of them per group; the committer stores
//! every outcome of the group first and unparks afterwards, so the
//! woken producer finds the rest of the group already resolved and
//! sweeps it without blocking (see the `ticket` module docs for the
//! state machine).
//!
//! ## Backpressure
//!
//! [`IngestConfig::max_queue_depth`] bounds each shard's ring, counted in
//! **submissions** (a batch of *k* ops occupies one slot): when a
//! committer falls behind, blocking submitters park on the slow-path
//! waiter ([`Ingest::submit`] / [`Ingest::submit_batch`] /
//! [`Ingest::submit_all`]) only when the ring is actually full, while
//! [`Ingest::try_submit`] / [`Ingest::try_submit_batch`] shed load with
//! [`QueueFull`] (handing the rejected ops back). The default depth is
//! 1024 submissions per shard; rings are allocated eagerly, so the bound
//! must be in `1..=`[`MAX_QUEUE_DEPTH`] ([`IngestConfig::validate`]).
//!
//! ## Sessions and shutdown
//!
//! Each committer registers one store session (a dense tid), so the store
//! must be built with `max_threads >= producers + committers`.
//! [`Ingest::flush`] blocks until every accepted submission has resolved
//! and — when the store carries a commit log (`crates/wal`) — fsyncs it,
//! making `flush` the pipeline's durability barrier;
//! [`Ingest::shutdown`] (also run on drop) drains the rings, resolves
//! every outstanding ticket, fsyncs the WAL tail, and joins the
//! committers, so a clean shutdown never loses an acknowledged group.
//! Submitting concurrently with — or after — `shutdown` is a contract
//! violation and panics.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use ingest::{Ingest, IngestConfig};
//! use store::{uniform_splits, SkipListStore, TxnOp};
//!
//! let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(4, 1000)));
//! let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
//!
//! // Fire-and-wait single ops...
//! let t = ingest.submit(TxnOp::Put(10, 1));
//! assert_eq!(t.wait().applied, vec![true]);
//!
//! // ...and whole atomic batches, pipelined.
//! let batch = ingest.submit_batch(vec![TxnOp::Put(500, 5), TxnOp::Set(10, 2)]);
//! let outcome = batch.wait();
//! assert_eq!(outcome.applied, vec![true, true]);
//! ingest.shutdown();
//! let h = store.register();
//! assert_eq!(h.get(&10), Some(2));
//! ```

mod fold;
pub mod ring;
mod ticket;

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use store::{BundledStore, ShardBackend, StoreHandle, TxnOp};

pub use ticket::Ticket;
use ticket::{Applied, PackedOutcome};

/// Hard ceiling on [`IngestConfig::max_queue_depth`]: ring slots are
/// allocated eagerly per shard, so an unbounded (or absurd) depth would
/// try to materialize it. 64Ki submissions per shard is far beyond any
/// useful backpressure point.
pub const MAX_QUEUE_DEPTH: usize = 1 << 16;

/// Soft cap on operations per super-batch: a drain stops pulling new
/// submissions once the group holds this many ops (the submission that
/// crosses the cap is still taken whole — batches never split).
const MAX_GROUP_OPS: usize = 4096;

/// Front-end instrument handles, registered in the store's metrics
/// registry when the store was built with observability
/// (`BundledStore::with_obs`); absent otherwise, so the hot paths pay
/// one never-taken branch per site.
struct IngestObs {
    /// Submissions found queued per drain round (the backlog a committer
    /// actually scooped — the batching the front-end exists to create).
    queue_depth: obs::Histogram,
    /// Submitted ops per committed group.
    group_size: obs::Histogram,
    /// Group fill as a percentage of [`MAX_GROUP_OPS`]
    /// (how close the linger/backlog gets groups to the soft cap).
    linger_occupancy_pct: obs::Histogram,
    /// Nanoseconds from a submission's enqueue to its ticket resolving.
    ticket_wait_ns: obs::Histogram,
    /// Submissions currently sitting in the shard rings (the summed ring
    /// occupancy, sampled at each drain).
    depth: obs::Gauge,
}

impl IngestObs {
    fn new(registry: &obs::MetricsRegistry) -> Self {
        IngestObs {
            queue_depth: registry.histogram("ingest.queue_depth"),
            group_size: registry.histogram("ingest.group_size"),
            linger_occupancy_pct: registry.histogram("ingest.linger_occupancy_pct"),
            ticket_wait_ns: registry.histogram("ingest.ticket_wait_ns"),
            depth: registry.gauge("ingest.depth"),
        }
    }
}

/// Tuning knobs of an [`Ingest`] front-end.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Committer threads. Shard `i` is owned by committer
    /// `i % committers`, so values above the store's shard count are
    /// **clamped to the shard count** (a committer beyond that would own
    /// no ring and idle forever). Each committer registers one store
    /// session; [`Ingest::committers`] reports the clamped count
    /// actually running.
    pub committers: usize,
    /// Extra epoch delay between waking on work and draining, letting a
    /// group grow beyond what accumulated naturally. Zero (the default)
    /// relies on commit-duration batching alone.
    pub linger: Duration,
    /// Per-shard submission-ring depth bound, counted in **submissions**
    /// — a batch of *k* ops occupies exactly one slot, the same unit the
    /// `ingest.depth` gauge and [`QueueFull`] rejections use. When a
    /// ring is full, [`Ingest::submit`] / [`Ingest::submit_batch`] /
    /// [`Ingest::submit_all`] **block** until the owning committer
    /// drains it, and [`Ingest::try_submit`] /
    /// [`Ingest::try_submit_batch`] return [`QueueFull`] instead.
    /// Must be in `1..=`[`MAX_QUEUE_DEPTH`] ([`IngestConfig::validate`]
    /// panics otherwise — nothing is silently clamped); the default is
    /// 1024. The ring rounds its slot count up to a power of two but
    /// rejects at exactly this bound.
    pub max_queue_depth: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            committers: 2,
            linger: Duration::ZERO,
            max_queue_depth: 1024,
        }
    }
}

impl IngestConfig {
    /// Panic unless the configuration is spawnable:
    /// [`IngestConfig::max_queue_depth`] must be in
    /// `1..=`[`MAX_QUEUE_DEPTH`] (rings are allocated eagerly, so the
    /// bound is enforced here instead of silently clamped at spawn).
    /// Called by [`Ingest::spawn`]; public so configuration plumbing can
    /// fail fast at parse time.
    pub fn validate(&self) {
        assert!(
            self.max_queue_depth >= 1,
            "IngestConfig::max_queue_depth must be at least 1 submission"
        );
        assert!(
            self.max_queue_depth <= MAX_QUEUE_DEPTH,
            "IngestConfig::max_queue_depth ({}) exceeds MAX_QUEUE_DEPTH ({MAX_QUEUE_DEPTH}): \
             ring slots are allocated eagerly per shard",
            self.max_queue_depth
        );
    }
}

/// A non-blocking submission was rejected because the target shard's
/// ring is at [`IngestConfig::max_queue_depth`]; the rejected ops are
/// handed back for the caller to retry, redirect, or shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull<K, V> {
    /// The ops of the rejected submission, in submission order.
    pub ops: Vec<TxnOp<K, V>>,
}

/// What a resolved [`Ticket`] carries: the submission's per-op outcomes
/// plus enough commit metadata to order it against every other
/// submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Per-op results in the submission's op order (`true` = the put
    /// inserted / the remove removed / the set replaced), with same-key
    /// interleavings from other sessions already accounted for in queue
    /// order.
    pub applied: Vec<bool>,
    /// The commit timestamp of the submission's group — the single
    /// shared-clock value every op of the group published at. Groups with
    /// smaller `ts` linearize earlier.
    pub ts: u64,
    /// The submission's position inside its group's fold order: two
    /// submissions with equal `ts` (same group) linearize in ascending
    /// `seq`.
    pub seq: u64,
    /// Total operations the group published (diagnostics: the
    /// amortization factor this submission enjoyed).
    pub group_ops: usize,
}

/// Monotonic counters of one [`Ingest`] front-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Groups committed.
    pub groups: u64,
    /// Submissions resolved (a batch counts once).
    pub submissions: u64,
    /// Operations resolved, as submitted (before same-key folding).
    pub ops: u64,
    /// Effective operations actually staged after same-key folding
    /// (`ops - folded_ops` operations never touched the store at all).
    pub folded_ops: u64,
    /// Largest group committed so far, in submitted ops.
    pub largest_group: u64,
}

impl IngestStats {
    /// Mean submitted ops per committed group (0 when no group committed).
    #[must_use]
    pub fn ops_per_group(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.ops as f64 / self.groups as f64
        }
    }
}

/// The ops of one submission. Single ops — the hottest submit path —
/// ride inline with no heap allocation; only whole batches carry a Vec.
enum Ops<K, V> {
    /// A single operation ([`Ingest::submit`] / [`Ingest::try_submit`] /
    /// [`Ingest::submit_all`]), stored inline.
    One(TxnOp<K, V>),
    /// A whole atomic batch ([`Ingest::submit_batch`] /
    /// [`Ingest::try_submit_batch`]).
    Many(Vec<TxnOp<K, V>>),
}

impl<K, V> Ops<K, V> {
    fn as_slice(&self) -> &[TxnOp<K, V>] {
        match self {
            Ops::One(op) => std::slice::from_ref(op),
            Ops::Many(v) => v,
        }
    }

    fn len(&self) -> usize {
        match self {
            Ops::One(_) => 1,
            Ops::Many(v) => v.len(),
        }
    }
}

/// One queued submission: the ops of one ticket.
struct Submission<K, V> {
    ops: Ops<K, V>,
    ticket: Arc<ticket::Oneshot<PackedOutcome>>,
    /// Enqueue time, recorded only under observability — the resolving
    /// committer turns it into a ticket-wait latency sample.
    enqueued: Option<Instant>,
}

struct Shared<K, V, S> {
    store: Arc<BundledStore<K, V, S>>,
    /// One lock-free submission ring per shard; an op lands in the ring
    /// of the shard owning its key, a batch in the ring of its first
    /// key's shard. Same-key submissions therefore share a ring, which
    /// is what makes "serialized by queue order" well-defined. Shard `i`
    /// is consumed only by committer `i % committers` — the ring's
    /// single-consumer contract.
    rings: Box<[ring::MpscRing<Submission<K, V>>]>,
    /// Backs the three condvars below. **Never** taken on the submit or
    /// drain fast paths — only by parked threads and the notifiers that
    /// observed (via the sleeper counters) someone parked.
    wake: Mutex<()>,
    /// Wakes committers parked with every owned ring empty.
    work: Condvar,
    /// Wakes submitters parked on a full ring.
    space: Condvar,
    /// Wakes [`Ingest::flush`] when `in_flight` reaches zero.
    idle: Condvar,
    /// Committers parked on `work` (eventcount-style: a publisher skips
    /// the wake mutex entirely while this reads zero).
    work_sleepers: AtomicUsize,
    /// Submitters parked on `space`.
    space_sleepers: AtomicUsize,
    /// Accepted-but-unresolved submissions (drives [`Ingest::flush`]).
    /// Incremented *before* a submission is published to its ring, so a
    /// committer can never resolve-and-decrement first.
    in_flight: AtomicU64,
    shutdown: AtomicBool,
    committers: usize,
    linger: Duration,
    obs: Option<IngestObs>,
    groups: AtomicU64,
    submissions: AtomicU64,
    ops: AtomicU64,
    folded_ops: AtomicU64,
    largest_group: AtomicU64,
    /// Threads unparked by ticket resolution (the tests' proof that
    /// wake-ups are per parked thread per group, not per ticket).
    #[cfg(test)]
    wakes: AtomicU64,
}

impl<K, V, S> Shared<K, V, S> {
    fn assert_live(&self) {
        assert!(
            !self.shutdown.load(Ordering::SeqCst),
            "submitted to an ingest front-end that is shutting down"
        );
    }

    /// Wake parked committers after publishing work. The Dekker pattern
    /// against [`committer_wait`]: publish (release store in the ring) →
    /// SeqCst fence → sleeper-count load, vs. sleeper-count RMW → SeqCst
    /// fence → ring re-check. Whichever fence orders first, either the
    /// publisher sees the sleeper (and notifies under the wake mutex the
    /// sleeper holds until it waits) or the sleeper sees the work.
    fn wake_committers(&self) {
        fence(Ordering::SeqCst);
        if self.work_sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.wake.lock().unwrap_or_else(|p| p.into_inner());
            self.work.notify_all();
        }
    }
}

/// The group-commit ingestion front-end (see the crate docs). Spawn one
/// per store with [`Ingest::spawn`]; share it across producer threads
/// behind an `Arc`.
pub struct Ingest<K, V, S> {
    shared: Arc<Shared<K, V, S>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<K, V, S> Ingest<K, V, S>
where
    K: Copy + Ord + Default + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: ShardBackend<K, V> + Send + Sync + 'static,
{
    /// Spawn the committer threads over `store` and return the front-end.
    ///
    /// Validates `cfg` ([`IngestConfig::validate`]) and registers one
    /// store session per committer — the store must have that many free
    /// `max_threads` slots, or this panics (sizing the store for
    /// `producers + committers` is the caller's contract).
    pub fn spawn(store: Arc<BundledStore<K, V, S>>, cfg: IngestConfig) -> Self {
        cfg.validate();
        let committers = cfg.committers.clamp(1, store.shard_count());
        let shared = Arc::new(Shared {
            rings: (0..store.shard_count())
                .map(|_| ring::MpscRing::with_bound(cfg.max_queue_depth))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            wake: Mutex::new(()),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            work_sleepers: AtomicUsize::new(0),
            space_sleepers: AtomicUsize::new(0),
            in_flight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            committers,
            linger: cfg.linger,
            obs: store.obs_registry().map(IngestObs::new),
            groups: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            folded_ops: AtomicU64::new(0),
            largest_group: AtomicU64::new(0),
            #[cfg(test)]
            wakes: AtomicU64::new(0),
            store,
        });
        let workers = (0..committers)
            .map(|c| {
                let shared = Arc::clone(&shared);
                let handle = shared.store.try_register().unwrap_or_else(|| {
                    panic!(
                        "no free store session slot for ingest committer #{c}: \
                         size the store's max_threads for producers + committers"
                    )
                });
                std::thread::Builder::new()
                    .name(format!("ingest-committer-{c}"))
                    .spawn(move || committer_loop(&shared, &handle, c))
                    .expect("spawning an ingest committer thread failed")
            })
            .collect();
        Ingest {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The store the front-end commits into.
    #[must_use]
    pub fn store(&self) -> &Arc<BundledStore<K, V, S>> {
        &self.shared.store
    }

    /// Number of committer threads actually running.
    #[must_use]
    pub fn committers(&self) -> usize {
        self.shared.committers
    }

    /// A resolved-immediately ticket for an empty submission.
    fn empty_ticket(&self) -> Ticket<IngestOutcome> {
        let slot = ticket::Oneshot::new();
        let parked = slot.resolve(PackedOutcome {
            applied: Applied::Many(Vec::new()),
            ts: self.shared.store.context().read(),
            seq: 0,
            group_ops: 0,
        });
        debug_assert!(parked.is_none(), "nobody holds the ticket yet");
        Ticket::new(slot)
    }

    /// Publish an accepted submission into its reserved ring slot and
    /// return its ticket. `in_flight` is incremented *before* the slot
    /// publishes (a committer could otherwise scoop, resolve, and
    /// decrement first — u64 underflow, flush/shutdown accounting torn);
    /// rejected reservations never touch it.
    fn publish(
        &self,
        reserved: ring::PushSlot<'_, Submission<K, V>>,
        ops: Ops<K, V>,
    ) -> Ticket<IngestOutcome> {
        let slot = ticket::Oneshot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        reserved.publish(Submission {
            ops,
            ticket: slot,
            enqueued: self.shared.obs.as_ref().map(|_| Instant::now()),
        });
        self.shared.wake_committers();
        ticket
    }

    /// Reserve a slot on `shard`'s ring, parking on the backpressure
    /// slow path while the ring is full. Panics on shutdown (both before
    /// parking and on every wakeup — [`Ingest::shutdown`] wakes parked
    /// submitters so they fail fast instead of deadlocking).
    fn reserve_blocking(&self, shard: usize) -> ring::PushSlot<'_, Submission<K, V>> {
        let sh = &*self.shared;
        sh.assert_live();
        if let Some(reserved) = sh.rings[shard].try_reserve() {
            return reserved;
        }
        // Slow path: park eventcount-style. The sleeper count is
        // incremented under the wake mutex and the ring is re-checked
        // before every wait, so a drain that frees space either sees the
        // sleeper (and notifies under the same mutex) or happened early
        // enough for the re-check to see the space.
        let mut guard = sh.wake.lock().unwrap_or_else(|p| p.into_inner());
        sh.space_sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let reserved = loop {
            if sh.shutdown.load(Ordering::SeqCst) {
                sh.space_sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                sh.assert_live(); // panics: live was just observed false
                unreachable!("assert_live panics once shutdown is set");
            }
            if let Some(reserved) = sh.rings[shard].try_reserve() {
                break reserved;
            }
            // Only already-published work frees the space being waited
            // for, so nudge the committers before sleeping.
            sh.work.notify_all();
            guard = sh.space.wait(guard).unwrap_or_else(|p| p.into_inner());
        };
        sh.space_sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        reserved
    }

    /// Submit one operation; its ticket resolves with a single outcome
    /// bit when the operation's group commits. **Blocks** while the
    /// target shard's ring is at [`IngestConfig::max_queue_depth`]. The
    /// hot path allocates nothing beyond the ticket — the op rides
    /// inline in its ring slot.
    pub fn submit(&self, op: TxnOp<K, V>) -> Ticket<IngestOutcome> {
        let shard = self.shared.store.shard_of(op.key());
        let reserved = self.reserve_blocking(shard);
        self.publish(reserved, Ops::One(op))
    }

    /// Non-blocking [`Ingest::submit`]: [`QueueFull`] (carrying the op
    /// back) instead of blocking when the target shard's ring is at
    /// capacity. The accept path is lock-free and allocates only the
    /// ticket; the shed path costs one relaxed load.
    pub fn try_submit(&self, op: TxnOp<K, V>) -> Result<Ticket<IngestOutcome>, QueueFull<K, V>> {
        self.shared.assert_live();
        let shard = self.shared.store.shard_of(op.key());
        match self.shared.rings[shard].try_reserve() {
            Some(reserved) => Ok(self.publish(reserved, Ops::One(op))),
            None => Err(QueueFull { ops: vec![op] }),
        }
    }

    /// Submit a whole multi-key batch as one atomic unit: every op
    /// publishes at the batch's group timestamp, so no snapshot ever
    /// observes part of it (same guarantee as
    /// [`store::BundledStore::apply_txn`], amortized across the group).
    /// Duplicate keys inside the batch are legal and serialize in batch
    /// order. An empty batch resolves immediately. The batch occupies
    /// **one** ring slot regardless of its op count; **blocks** while
    /// its target ring (its first key's shard) is at
    /// [`IngestConfig::max_queue_depth`].
    pub fn submit_batch(&self, ops: Vec<TxnOp<K, V>>) -> Ticket<IngestOutcome> {
        if ops.is_empty() {
            return self.empty_ticket();
        }
        let shard = self.shared.store.shard_of(ops[0].key());
        let reserved = self.reserve_blocking(shard);
        self.publish(reserved, Ops::Many(ops))
    }

    /// Non-blocking [`Ingest::submit_batch`]: [`QueueFull`] (carrying the
    /// ops back for the caller to retry, redirect, or shed) instead of
    /// blocking when the batch's target ring is at capacity.
    pub fn try_submit_batch(
        &self,
        ops: Vec<TxnOp<K, V>>,
    ) -> Result<Ticket<IngestOutcome>, QueueFull<K, V>> {
        if ops.is_empty() {
            return Ok(self.empty_ticket());
        }
        self.shared.assert_live();
        let shard = self.shared.store.shard_of(ops[0].key());
        match self.shared.rings[shard].try_reserve() {
            Some(reserved) => Ok(self.publish(reserved, Ops::Many(ops))),
            None => Err(QueueFull { ops }),
        }
    }

    /// Submit many *independent* operations (one ticket each): the
    /// pipelined-producer fast path — push a window, then wait the
    /// tickets. Each op takes the same lock-free lane as
    /// [`Ingest::submit`], so with a bounded ring this may **block
    /// mid-window** (already-published ops stay published and keep
    /// committing, which is what frees the space being waited for).
    pub fn submit_all(
        &self,
        ops: impl IntoIterator<Item = TxnOp<K, V>>,
    ) -> Vec<Ticket<IngestOutcome>> {
        ops.into_iter().map(|op| self.submit(op)).collect()
    }

    /// Block until every submission accepted so far has resolved, then
    /// force the store's commit log — if one is attached — to stable
    /// storage. `flush` is therefore the **durability barrier**: when it
    /// returns, every accepted operation is resolved *and* its group is
    /// on disk, regardless of the log's sync policy (under
    /// `SyncPolicy::Always` each ticket already implied durability when
    /// it resolved; under the batching policies this is where the
    /// volatile tail gets paid down). Without a commit log the sync is
    /// a no-op and `flush` only waits for resolution, as before.
    pub fn flush(&self) {
        if self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            let mut guard = self.shared.wake.lock().unwrap_or_else(|p| p.into_inner());
            // The committer that decrements to zero takes the wake mutex
            // before notifying, so a non-zero read under the mutex cannot
            // miss its notification.
            while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
                guard = self
                    .shared
                    .idle
                    .wait(guard)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }
        self.shared.store.sync_commit_log();
    }

    /// Drain every ring, resolve every outstanding ticket, and join the
    /// committer threads. Idempotent; also runs on drop. All submissions
    /// must happen-before this call (a racing submit panics, including
    /// submitters parked on a full ring — they are woken to fail fast).
    pub fn shutdown(&self) {
        self.stop(true);
    }
}

// Deliberately unbounded: counters and drop need no backend machinery.
impl<K, V, S> Ingest<K, V, S> {
    /// Monotonic front-end counters.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            groups: self.shared.groups.load(Ordering::Relaxed),
            submissions: self.shared.submissions.load(Ordering::Relaxed),
            ops: self.shared.ops.load(Ordering::Relaxed),
            folded_ops: self.shared.folded_ops.load(Ordering::Relaxed),
            largest_group: self.shared.largest_group.load(Ordering::Relaxed),
        }
    }

    /// Flag shutdown, wake every parked committer and submitter, and
    /// join the committers (which drain their rings first). Idempotent:
    /// a second call finds no workers left. A committer's panic is
    /// re-raised only when `propagate_panic`.
    fn stop(&self, propagate_panic: bool) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.wake.lock().unwrap_or_else(|p| p.into_inner());
            self.shared.work.notify_all();
            self.shared.space.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for w in workers {
            let joined = w.join();
            if propagate_panic {
                joined.expect("an ingest committer thread panicked");
            }
        }
    }
}

impl<K, V, S> Drop for Ingest<K, V, S> {
    fn drop(&mut self) {
        // A drop must not panic (it may run during an unwind).
        self.stop(false);
    }
}

impl<K, V, S> std::fmt::Debug for Ingest<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingest")
            .field("committers", &self.shared.committers)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Park until one of this committer's rings has published work or
/// shutdown is flagged; returns the shutdown flag. The fast path (work
/// already visible) never touches the wake mutex — see
/// [`Shared::wake_committers`] for the pairing.
fn committer_wait<K, V, S>(shared: &Shared<K, V, S>, owned: &[usize]) -> bool {
    let ready = || owned.iter().any(|&s| shared.rings[s].has_ready());
    if shared.shutdown.load(Ordering::SeqCst) || ready() {
        return shared.shutdown.load(Ordering::SeqCst);
    }
    let mut guard = shared.wake.lock().unwrap_or_else(|p| p.into_inner());
    shared.work_sleepers.fetch_add(1, Ordering::SeqCst);
    fence(Ordering::SeqCst);
    while !shared.shutdown.load(Ordering::SeqCst) && !ready() {
        guard = shared.work.wait(guard).unwrap_or_else(|p| p.into_inner());
    }
    shared.work_sleepers.fetch_sub(1, Ordering::SeqCst);
    drop(guard);
    shared.shutdown.load(Ordering::SeqCst)
}

/// The committer's per-group working set. Lives in the committer loop
/// and is cleared — never reallocated — per group, so in steady state
/// (every buffer at its high-water capacity) the front-end's side of a
/// commit allocates nothing.
struct GroupBuffers<K, V> {
    /// The group's submissions, in fold (= resolve) order.
    subs: Vec<Submission<K, V>>,
    /// `offsets[si]` is where submission `si`'s outcome bits start in
    /// `bits` (the prefix sum of the submissions' op counts).
    offsets: Vec<u32>,
    /// `(key, submission, op)` of every op, sorted: each key's ops end
    /// up adjacent, in queue order.
    positions: Vec<(K, u32, u32)>,
    /// One effective op per distinct key, in key order: the super-batch
    /// handed to the store.
    effective: Vec<TxnOp<K, V>>,
    /// `runs[i]` is the `positions` range that folded into `effective[i]`.
    runs: Vec<(usize, usize)>,
    /// Every op's outcome, flat: op `oi` of submission `si` is
    /// `bits[offsets[si] + oi]`.
    bits: Vec<bool>,
    /// Threads found parked on this group's tickets.
    wakers: ticket::Wakers,
}

impl<K, V> GroupBuffers<K, V> {
    fn new() -> Self {
        GroupBuffers {
            subs: Vec::new(),
            offsets: Vec::new(),
            positions: Vec::new(),
            effective: Vec::new(),
            runs: Vec::new(),
            bits: Vec::new(),
            wakers: ticket::Wakers::default(),
        }
    }
}

/// Scoop queued submissions from the committer's owned shard rings into
/// `subs`, up to the soft op cap (the submission crossing the cap is
/// taken whole). The scan starts at `owned[start]` and wraps: callers
/// rotate `start` per round so that a sustained over-cap backlog on one
/// shard cannot starve the committer's other rings. Each ring gives up
/// its contiguous published run in one [`ring::MpscRing::pop_run`].
fn drain<K, V, S>(
    shared: &Shared<K, V, S>,
    owned: &[usize],
    start: usize,
    subs: &mut Vec<Submission<K, V>>,
) {
    let mut ops = 0usize;
    for i in 0..owned.len() {
        if ops >= MAX_GROUP_OPS {
            break;
        }
        let shard = owned[(start + i) % owned.len()];
        // SAFETY: shard `s` is drained only by committer
        // `s % committers` (`owned` is exactly that partition), so
        // this thread is the ring's single consumer.
        ops +=
            unsafe { shared.rings[shard].pop_run(MAX_GROUP_OPS - ops, |sub| sub.ops.len(), subs) };
    }
}

/// Commit the group in `buf.subs`: fold same-key submissions in queue
/// order into one effective op per key, publish the super-batch under a
/// single clock advance, replay the queue order to give every ticket its
/// operation's individual outcome (see the `fold` module docs for why
/// the fold is outcome-exact), and only once **every** outcome is stored
/// wake the threads found parked. Leaves `buf.subs` empty.
fn commit_group<K, V, S>(
    shared: &Shared<K, V, S>,
    handle: &StoreHandle<K, V, S>,
    buf: &mut GroupBuffers<K, V>,
) where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    let GroupBuffers {
        subs,
        offsets,
        positions,
        effective,
        runs,
        bits,
        wakers,
    } = buf;
    // Queue-order positions of every op, sorted by (key, queue position)
    // — a flat sort instead of a per-key map keeps the fold linear-ish
    // and allocation-free per op, which matters: the fold runs once per
    // op on the committer, the serial heart of the front-end.
    offsets.clear();
    positions.clear();
    for (si, sub) in subs.iter().enumerate() {
        offsets.push(positions.len() as u32);
        for (oi, op) in sub.ops.as_slice().iter().enumerate() {
            positions.push((*op.key(), si as u32, oi as u32));
        }
    }
    positions.sort_unstable();
    let total_ops = positions.len();
    // One effective op per key; distinct keys (the common case under
    // uniform traffic) skip the fold entirely.
    let op_at = |&(_, si, oi): &(K, u32, u32)| -> &TxnOp<K, V> {
        &subs[si as usize].ops.as_slice()[oi as usize]
    };
    effective.clear();
    runs.clear();
    let mut i = 0;
    while i < total_ops {
        let mut j = i + 1;
        while j < total_ops && positions[j].0 == positions[i].0 {
            j += 1;
        }
        runs.push((i, j));
        effective.push(if j - i == 1 {
            op_at(&positions[i]).clone()
        } else {
            fold::effective_op(positions[i].0, positions[i..j].iter().map(op_at))
        });
        i = j;
    }
    let receipt = handle.apply_grouped(effective);
    // Replay each key's queue order against its recovered initial
    // presence, scattering outcome bits back to the submissions. A
    // singleton run's outcome is the staged op's own result bit.
    let bit_at = |&(_, si, oi): &(K, u32, u32)| offsets[si as usize] as usize + oi as usize;
    bits.clear();
    bits.resize(total_ops, false);
    for (key_idx, &(start, end)) in runs.iter().enumerate() {
        let run = &positions[start..end];
        if run.len() == 1 {
            bits[bit_at(&run[0])] = receipt.applied[key_idx];
            continue;
        }
        let present0 = fold::initial_presence(&effective[key_idx], receipt.applied[key_idx]);
        for (pos, bit) in run
            .iter()
            .zip(fold::replay_outcomes(present0, run.iter().map(op_at)))
        {
            bits[bit_at(pos)] = bit;
        }
    }
    // Account the group BEFORE resolving any ticket: a producer that
    // observes its outcome may immediately read [`Ingest::stats`], and
    // resolution-implies-counted is the ordering that makes those reads
    // meaningful (the reverse order let a stats read run ahead of the
    // group that just resolved it).
    shared.groups.fetch_add(1, Ordering::Relaxed);
    shared
        .submissions
        .fetch_add(subs.len() as u64, Ordering::Relaxed);
    shared.ops.fetch_add(total_ops as u64, Ordering::Relaxed);
    shared
        .folded_ops
        .fetch_add(effective.len() as u64, Ordering::Relaxed);
    shared
        .largest_group
        .fetch_max(total_ops as u64, Ordering::Relaxed);
    if let Some(o) = &shared.obs {
        let tid = handle.tid();
        o.group_size.record(tid, total_ops as u64);
        o.linger_occupancy_pct
            .record(tid, (100 * total_ops / MAX_GROUP_OPS) as u64);
    }
    // Resolve, then wake: a thread parked on one of these tickets is
    // unparked only after the whole group's outcomes are stored, so it
    // cannot catch up with this loop and park again on a ticket that is
    // about to resolve.
    for (si, sub) in subs.iter().enumerate() {
        if let (Some(o), Some(t0)) = (&shared.obs, sub.enqueued) {
            o.ticket_wait_ns
                .record(handle.tid(), t0.elapsed().as_nanos() as u64);
        }
        let start = offsets[si] as usize;
        let parked = sub.ticket.resolve(PackedOutcome {
            applied: match &sub.ops {
                Ops::One(_) => Applied::One(bits[start]),
                Ops::Many(ops) => Applied::Many(bits[start..start + ops.len()].to_vec()),
            },
            ts: receipt.ts,
            seq: si as u64,
            group_ops: total_ops,
        });
        if let Some(thread) = parked {
            wakers.push(thread);
        }
    }
    // Let go of the tickets first: the woken producers then hold the
    // last reference to each, so the slots are freed by the threads
    // that allocated them rather than on this serial path.
    subs.clear();
    let _woken = wakers.wake_all();
    #[cfg(test)]
    shared.wakes.fetch_add(_woken as u64, Ordering::Relaxed);
}

fn committer_loop<K, V, S>(shared: &Shared<K, V, S>, handle: &StoreHandle<K, V, S>, c: usize)
where
    K: Copy + Ord + Default + Send + Sync,
    V: Clone + Send + Sync,
    S: ShardBackend<K, V>,
{
    let owned: Vec<usize> = (c..shared.store.shard_count())
        .step_by(shared.committers)
        .collect();
    // Rotating drain origin: fairness across this committer's shards
    // when one ring alone can fill a whole group.
    let mut rotate = 0usize;
    let mut buf = GroupBuffers::new();
    loop {
        let shutdown = committer_wait(shared, &owned);
        if !shared.linger.is_zero() && !shutdown {
            // Optional epoch: let the group grow before draining.
            std::thread::sleep(shared.linger);
        }
        // Drain until the owned rings are empty: while a group commits,
        // producers refill the rings — natural group-commit batching.
        loop {
            drain(shared, &owned, rotate, &mut buf.subs);
            rotate = (rotate + 1) % owned.len().max(1);
            let scooped = buf.subs.len() as u64;
            if scooped == 0 {
                break;
            }
            // The drain above released the submissions' ring slots
            // *before* the commit: backpressure bounds what sits in the
            // rings, and producers refilling during the commit is
            // exactly the batching this front-end exists for. Same
            // Dekker pairing as `wake_committers`, against the parked
            // submitters in `reserve_blocking`.
            fence(Ordering::SeqCst);
            if shared.space_sleepers.load(Ordering::SeqCst) > 0 {
                let _g = shared.wake.lock().unwrap_or_else(|p| p.into_inner());
                shared.space.notify_all();
            }
            if let Some(o) = &shared.obs {
                o.queue_depth.record(handle.tid(), scooped);
                let occupancy: usize = shared.rings.iter().map(ring::MpscRing::occupancy).sum();
                o.depth.set(occupancy as i64);
            }
            commit_group(shared, handle, &mut buf);
            if shared.in_flight.fetch_sub(scooped, Ordering::SeqCst) == scooped {
                // This decrement hit zero: flush may be parked. Take the
                // wake mutex so a flusher that read non-zero is already
                // inside its condvar wait.
                let _g = shared.wake.lock().unwrap_or_else(|p| p.into_inner());
                shared.idle.notify_all();
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Rings verified empty by the drain above, and the shutdown
            // contract forbids concurrent submits: nothing can arrive.
            // Fsync the WAL tail (no-op without a log) so a clean
            // shutdown never loses an acknowledged group, whatever the
            // sync policy.
            shared.store.sync_commit_log();
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundle::api::ConcurrentSet;
    use store::{uniform_splits, CitrusStore, LazyListStore, SkipListStore};

    #[test]
    fn single_ops_commit_and_report_outcomes() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(4, 400)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        assert_eq!(ingest.submit(TxnOp::Put(10, 1)).wait().applied, vec![true]);
        assert_eq!(ingest.submit(TxnOp::Put(10, 2)).wait().applied, vec![false]);
        assert_eq!(ingest.submit(TxnOp::Set(10, 3)).wait().applied, vec![true]);
        assert_eq!(ingest.submit(TxnOp::Remove(10)).wait().applied, vec![true]);
        assert_eq!(ingest.submit(TxnOp::Remove(10)).wait().applied, vec![false]);
        ingest.shutdown();
        assert!(!store.contains(0, &10));
        let stats = store.txn_stats();
        assert_eq!(stats.grouped_ops, 5);
        assert!(stats.group_commits >= 1);
    }

    #[test]
    fn batches_are_atomic_and_cross_shard() {
        let store = Arc::new(CitrusStore::<u64, u64>::new(4, uniform_splits(4, 400)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        let t = ingest.submit_batch(vec![
            TxnOp::Put(10, 1),
            TxnOp::Put(150, 2),
            TxnOp::Put(350, 3),
        ]);
        let outcome = t.wait();
        assert_eq!(outcome.applied, vec![true, true, true]);
        assert!(outcome.group_ops >= 3);
        // Empty batches resolve immediately without a committer round.
        let empty = ingest.submit_batch(Vec::new()).wait();
        assert!(empty.applied.is_empty());
        ingest.shutdown();
        let h = store.register();
        assert_eq!(
            h.range_query_vec(&0, &400),
            vec![(10, 1), (150, 2), (350, 3)]
        );
    }

    #[test]
    fn same_key_submissions_serialize_in_queue_order() {
        // One committer and a pre-seeded ring make the group composition
        // deterministic: all four same-key ops fold into one group.
        let store = Arc::new(LazyListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        store.insert(0, 10, 0);
        let ingest = Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 1,
                linger: Duration::from_millis(20),
                ..IngestConfig::default()
            },
        );
        let tickets = [
            ingest.submit(TxnOp::Remove(10)), // removes the seed
            ingest.submit(TxnOp::Put(10, 1)), // re-inserts
            ingest.submit(TxnOp::Put(10, 2)), // loses to the previous put
            ingest.submit(TxnOp::Set(10, 3)), // replaces
        ];
        let outcomes: Vec<IngestOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        // Queue-order outcomes hold however the committer grouped them.
        assert_eq!(outcomes[0].applied, vec![true]);
        assert_eq!(outcomes[1].applied, vec![true]);
        assert_eq!(outcomes[2].applied, vec![false]);
        assert_eq!(outcomes[3].applied, vec![true]);
        // Commit metadata linearizes them in queue order: (ts, seq)
        // strictly ascending.
        assert!(
            outcomes
                .windows(2)
                .all(|w| (w[0].ts, w[0].seq) < (w[1].ts, w[1].seq)),
            "queue order lost: {outcomes:?}"
        );
        ingest.shutdown();
        assert_eq!(store.get(0, &10), Some(3));
        let stats = store.txn_stats();
        // The linger window almost always coalesces all four ops into one
        // group, folding them into a single staged op — but a slow-CI
        // deschedule between submits can legally split them. What must
        // hold: the fold never stages more ops than were submitted, and
        // if everything landed in one group it folded to exactly one op.
        assert!(stats.grouped_ops <= 4);
        if stats.group_commits == 1 {
            assert_eq!(stats.grouped_ops, 1, "one group folds to one staged op");
        }
    }

    #[test]
    fn groups_amortize_clock_advances_under_load() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(6, uniform_splits(4, 10_000)));
        let ingest = Arc::new(Ingest::spawn(Arc::clone(&store), IngestConfig::default()));
        let before = store.context().advance_calls();
        const PRODUCERS: usize = 4;
        const WINDOWS: usize = 20;
        const WINDOW: usize = 32;
        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let ingest = Arc::clone(&ingest);
                std::thread::spawn(move || {
                    let mut applied = 0u64;
                    for w in 0..WINDOWS as u64 {
                        let ops = (0..WINDOW as u64)
                            .map(|i| TxnOp::Put(p * 2_500 + w * WINDOW as u64 + i, i));
                        for t in ingest.submit_all(ops) {
                            applied += t.wait().applied.iter().filter(|b| **b).count() as u64;
                        }
                    }
                    applied
                })
            })
            .collect();
        let total: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(total, (PRODUCERS * WINDOWS * WINDOW) as u64);
        let stats = ingest.stats();
        assert_eq!(stats.ops, total);
        assert_eq!(stats.submissions, total);
        let advances = store.context().advance_calls() - before;
        assert_eq!(advances, stats.groups, "one clock advance per group");
        assert!(
            advances < total,
            "groups must amortize the clock: {advances} advances for {total} ops"
        );
        ingest.shutdown();
        let h = store.register();
        assert_eq!(h.len(), total as usize);
    }

    #[test]
    fn flush_waits_for_everything_accepted() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 1_000)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        let tickets = ingest.submit_all((0..200u64).map(|k| TxnOp::Put(k, k)));
        ingest.flush();
        for t in &tickets {
            assert!(
                t.try_take().is_some(),
                "flush returned with an unresolved ticket"
            );
        }
        ingest.shutdown();
        assert_eq!(store.register().len(), 200);
    }

    #[test]
    fn drop_shuts_down_and_drains() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 1_000)));
        let tickets = {
            let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
            ingest.submit_all((0..50u64).map(|k| TxnOp::Put(k, k)))
            // dropped here: must drain, resolve, and join
        };
        for t in tickets {
            assert_eq!(t.wait().applied, vec![true]);
        }
        assert_eq!(store.register().len(), 50);
    }

    #[test]
    fn committers_beyond_shards_are_clamped_and_all_drain() {
        // Regression guard for the committer/shard mapping: a committer
        // beyond the shard count would own no ring and sleep forever on
        // its wake counter, so `spawn` must clamp — and every shard's
        // ring must still be owned by a live committer.
        let store = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(2, 100)));
        let ingest = Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 8, // > 2 shards
                ..IngestConfig::default()
            },
        );
        assert_eq!(ingest.committers(), 2, "clamped to the shard count");
        // Ops landing on both shards commit (no orphaned ring).
        let t0 = ingest.submit(TxnOp::Put(10, 1));
        let t1 = ingest.submit(TxnOp::Put(60, 6));
        assert_eq!(t0.wait().applied, vec![true]);
        assert_eq!(t1.wait().applied, vec![true]);
        ingest.shutdown();
        assert_eq!(store.register().len(), 2);
    }

    #[test]
    fn try_submit_sheds_load_when_the_queue_is_full() {
        // One committer held back by a long linger: the ring fills to
        // its 1-submission cap, so a second non-blocking submission must
        // bounce with its ops handed back.
        let store = Arc::new(LazyListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let ingest = Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 1,
                linger: Duration::from_millis(300),
                max_queue_depth: 1,
            },
        );
        let t = ingest.submit(TxnOp::Put(10, 1));
        // Same shard, ring at capacity, committer still lingering.
        match ingest.try_submit(TxnOp::Put(11, 2)) {
            Err(QueueFull { ops }) => {
                assert_eq!(ops, vec![TxnOp::Put(11, 2)], "rejected ops come back")
            }
            Ok(ticket) => {
                // A pathological scheduler stall can let the committer
                // drain first; the submission must then simply succeed.
                assert_eq!(ticket.wait().applied, vec![true]);
            }
        }
        assert_eq!(t.wait().applied, vec![true]);
        ingest.flush();
        // Space freed: the non-blocking path accepts again.
        let t2 = ingest
            .try_submit(TxnOp::Put(12, 3))
            .expect("drained queue accepts");
        assert_eq!(t2.wait().applied, vec![true]);
        ingest.shutdown();
    }

    #[test]
    fn blocking_submit_waits_for_space_and_loses_nothing() {
        // A tiny ring bound with a producer fleet pushing far more than
        // fits: every blocking submission must eventually land, and every
        // ticket must resolve (no drops, no deadlock, no lost wakeups).
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 200;
        let store = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(4, 10_000)));
        let ingest = Arc::new(Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 2,
                max_queue_depth: 2,
                ..IngestConfig::default()
            },
        ));
        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let ingest = Arc::clone(&ingest);
                std::thread::spawn(move || {
                    let mut applied = 0u64;
                    let mut pending = Vec::new();
                    for i in 0..PER_PRODUCER {
                        pending.push(ingest.submit(TxnOp::Put(p * 2_500 + i, i)));
                        if pending.len() >= 8 {
                            for t in pending.drain(..) {
                                applied += u64::from(t.wait().applied[0]);
                            }
                        }
                    }
                    for t in pending {
                        applied += u64::from(t.wait().applied[0]);
                    }
                    applied
                })
            })
            .collect();
        let total: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(total, PRODUCERS as u64 * PER_PRODUCER);
        ingest.shutdown();
        assert_eq!(store.register().len(), total as usize);
    }

    #[test]
    #[should_panic(expected = "shutting down")]
    fn submit_after_shutdown_panics() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        ingest.shutdown();
        let _ = ingest.submit(TxnOp::Put(1, 1));
    }

    #[test]
    fn shutdown_wakes_a_submitter_parked_on_a_full_ring() {
        // A producer parked on the backpressure slow path (depth-1 ring,
        // committer lingering) must be woken by shutdown and fail fast
        // with the shutdown panic — not deadlock against the join.
        let store = Arc::new(SkipListStore::<u64, u64>::new(4, uniform_splits(1, 100)));
        let ingest = Arc::new(Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 1,
                max_queue_depth: 1,
                linger: Duration::from_millis(400),
            },
        ));
        let t = ingest.submit(TxnOp::Put(1, 1)); // fills the ring
        let parked = {
            let ingest = Arc::clone(&ingest);
            std::thread::spawn(move || {
                // Blocks: the ring is full until the linger expires, and
                // shutdown arrives first.
                let _ = ingest.submit(TxnOp::Put(2, 2));
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        ingest.shutdown();
        assert!(
            parked.join().is_err(),
            "the parked submitter must wake and panic on shutdown"
        );
        assert_eq!(t.wait().applied, vec![true], "the accepted op resolved");
    }

    #[test]
    fn queue_depth_counts_submissions_not_ops() {
        // Depth 2, committer lingering: two 4-op batches must both be
        // accepted (8 ops, 2 submissions). If the bound counted ops, the
        // second batch would bounce — and a committer drain racing in
        // can only free space, never cause a spurious rejection.
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(1, 100)));
        let ingest = Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 1,
                max_queue_depth: 2,
                linger: Duration::from_millis(100),
            },
        );
        let mk = |base: u64| (0..4).map(|i| TxnOp::Put(base + i, i)).collect::<Vec<_>>();
        let t0 = ingest
            .try_submit_batch(mk(0))
            .expect("first batch occupies one slot");
        let t1 = ingest
            .try_submit_batch(mk(10))
            .expect("second batch occupies the second slot: the unit is submissions");
        assert_eq!(t0.wait().applied, vec![true; 4]);
        assert_eq!(t1.wait().applied, vec![true; 4]);
        ingest.shutdown();
        assert_eq!(store.register().len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_queue_depth_is_rejected_at_spawn() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let _ = Ingest::spawn(
            store,
            IngestConfig {
                max_queue_depth: 0,
                ..IngestConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_QUEUE_DEPTH")]
    fn oversized_queue_depth_is_rejected_at_spawn() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let _ = Ingest::spawn(
            store,
            IngestConfig {
                max_queue_depth: MAX_QUEUE_DEPTH + 1,
                ..IngestConfig::default()
            },
        );
    }

    #[test]
    fn obs_instruments_the_front_end() {
        let reg = obs::MetricsRegistry::new();
        let store = Arc::new(SkipListStore::<u64, u64>::with_obs(
            4,
            store::ReclaimMode::Reclaim,
            uniform_splits(4, 400),
            &reg,
        ));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        let tickets = ingest.submit_all((0..40u64).map(|k| TxnOp::Put(k * 10, k)));
        for t in tickets {
            let _ = t.wait();
        }
        ingest.flush();
        ingest.shutdown();
        let snap = store.obs_snapshot(0).expect("instrumented store");
        for name in [
            "ingest.queue_depth",
            "ingest.group_size",
            "ingest.linger_occupancy_pct",
            "ingest.ticket_wait_ns",
        ] {
            match snap.get(name) {
                Some(obs::SnapshotValue::Histogram(h)) => {
                    assert!(h.count >= 1, "{name} never recorded")
                }
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
        // Group sizes account for every submitted op.
        match snap.get("ingest.group_size") {
            Some(obs::SnapshotValue::Histogram(h)) => assert_eq!(h.sum, 40),
            _ => unreachable!(),
        }
        // All submissions drained: the live-depth gauge (summed ring
        // occupancy at the last drain) reads zero.
        assert_eq!(
            snap.get("ingest.depth"),
            Some(&obs::SnapshotValue::Gauge(0))
        );
    }

    #[test]
    fn uninstrumented_store_spawns_uninstrumented_ingest() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        assert!(ingest.shared.obs.is_none());
        assert_eq!(ingest.submit(TxnOp::Put(1, 1)).wait().applied, vec![true]);
        ingest.shutdown();
    }

    /// How [`outcomes_replay_against_an_oracle`] hands one op to the
    /// front-end.
    type SubmitFn<S> = fn(&Ingest<u64, u64, S>, TxnOp<u64, u64>) -> Ticket<IngestOutcome>;

    /// The ticket-outcome oracle: a seeded multi-producer mixed workload
    /// over a small hot key range through a tiny ring, each op handed to
    /// `submit`. Sorting every outcome by its commit metadata
    /// `(ts, seq)` must yield a serial history a naive map replays
    /// exactly — per-op outcome bits and final store contents both.
    /// (Same-key ops share a shard, hence a ring, hence a committer, so
    /// the per-key projection of the `(ts, seq)` order is exactly the
    /// order the folds resolved them in.)
    fn outcomes_replay_against_an_oracle<S>(max_queue_depth: usize, submit: SubmitFn<S>)
    where
        S: ShardBackend<u64, u64> + Send + Sync + 'static,
    {
        use std::collections::BTreeMap;
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 300;
        const KEYS: u64 = 64;
        let store = Arc::new(BundledStore::<u64, u64, S>::new(3, uniform_splits(4, KEYS)));
        let ingest = Arc::new(Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 2,
                max_queue_depth,
                ..IngestConfig::default()
            },
        ));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ingest = Arc::clone(&ingest);
                std::thread::spawn(move || {
                    let mut rng = p.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1; // seeded
                    let mut pending = Vec::new();
                    for i in 0..PER_PRODUCER {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let k = rng % KEYS;
                        let op = match rng % 3 {
                            0 => TxnOp::Put(k, p * PER_PRODUCER + i),
                            1 => TxnOp::Set(k, p),
                            _ => TxnOp::Remove(k),
                        };
                        pending.push((op.clone(), submit(&ingest, op)));
                    }
                    pending
                        .into_iter()
                        .map(|(op, t)| (op, t.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut history: Vec<(u64, u64, TxnOp<u64, u64>, bool)> = Vec::new();
        for h in producers {
            for (op, outcome) in h.join().unwrap() {
                assert_eq!(outcome.applied.len(), 1);
                history.push((outcome.ts, outcome.seq, op, outcome.applied[0]));
            }
        }
        ingest.shutdown();
        assert_eq!(history.len(), (PRODUCERS * PER_PRODUCER) as usize);
        history.sort_by_key(|e| (e.0, e.1));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (ts, seq, op, applied) in &history {
            let expect = match op {
                TxnOp::Put(k, v) => {
                    if model.contains_key(k) {
                        false
                    } else {
                        model.insert(*k, *v);
                        true
                    }
                }
                TxnOp::Set(k, v) => model.insert(*k, *v).is_some(),
                TxnOp::Remove(k) => model.remove(k).is_some(),
            };
            assert_eq!(
                *applied, expect,
                "op {op:?} at ({ts}, {seq}) diverged from the serial oracle"
            );
        }
        // And the store's final contents are the model's.
        let h = store.register();
        assert_eq!(
            h.range_query_vec(&0, &KEYS),
            model.into_iter().collect::<Vec<_>>(),
            "final store contents diverged from the serial oracle"
        );
    }

    #[test]
    fn ring_path_outcomes_replay_against_an_oracle() {
        // The lock-free path: `try_submit` with handback-retry.
        outcomes_replay_against_an_oracle::<skiplist::BundledSkipList<u64, u64>>(
            4,
            |ingest, op| {
                loop {
                    match ingest.try_submit(op.clone()) {
                        Ok(t) => break t,
                        Err(QueueFull { ops }) => {
                            // Handback exactness: the very op that bounced
                            // comes back; retry it.
                            assert_eq!(ops, vec![op.clone()]);
                            std::thread::yield_now();
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn parked_producers_and_parked_waiters_replay_against_an_oracle_on_every_backend() {
        // Depth 2 with blocking submits: producers park on a full ring
        // while earlier tickets resolve, then park on those tickets —
        // both slow paths and the resolve-then-wake hand-off, per backend.
        outcomes_replay_against_an_oracle::<skiplist::BundledSkipList<u64, u64>>(2, Ingest::submit);
        outcomes_replay_against_an_oracle::<citrus::BundledCitrusTree<u64, u64>>(2, Ingest::submit);
        outcomes_replay_against_an_oracle::<lazylist::BundledLazyList<u64, u64>>(2, Ingest::submit);
    }

    #[test]
    fn resolving_unwatched_tickets_wakes_nobody() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 1_000)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        let tickets = ingest.submit_all((0..200u64).map(|k| TxnOp::Put(k, k)));
        // `flush` parks on the front-end's idle condvar, not on a ticket.
        ingest.flush();
        for t in &tickets {
            assert_eq!(t.try_take().map(|o| o.applied), Some(vec![true]));
        }
        ingest.shutdown();
        assert_eq!(ingest.shared.wakes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_group_wakes_each_parked_thread_once_after_every_ticket_resolved() {
        const GROUP: u64 = 64;
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 1_000)));
        let ingest = Ingest::spawn(
            Arc::clone(&store),
            IngestConfig {
                committers: 1,
                // The committer lingers from the first publish on, so
                // all 64 submissions land in one group.
                linger: Duration::from_millis(300),
                ..IngestConfig::default()
            },
        );
        let mut tickets = ingest.submit_all((0..GROUP).map(|k| TxnOp::Put(k, k)));
        let rest = tickets.split_off(1);
        // Park on the *first* ticket of the group...
        let first = tickets.pop().unwrap().wait();
        assert_eq!(first.group_ops, GROUP as usize, "the linger made one group");
        // ...and by the time the wake-up arrives every other ticket of
        // the group has its outcome: none would block.
        for t in &rest {
            assert_eq!(t.try_take().map(|o| o.ts), Some(first.ts));
        }
        ingest.shutdown();
        assert_eq!(ingest.stats().groups, 1);
        assert_eq!(
            ingest.shared.wakes.load(Ordering::Relaxed),
            1,
            "one parked thread, one group: one wake — not one per ticket"
        );
    }

    #[test]
    #[should_panic(expected = "after try_take")]
    fn wait_after_a_successful_try_take_panics_instead_of_hanging() {
        let store = Arc::new(SkipListStore::<u64, u64>::new(3, uniform_splits(2, 100)));
        let ingest = Ingest::spawn(Arc::clone(&store), IngestConfig::default());
        let t = ingest.submit(TxnOp::Put(1, 1));
        ingest.flush();
        assert!(t.try_take().is_some());
        let _ = t.wait();
    }
}
