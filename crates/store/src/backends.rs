//! The backend contract a structure must satisfy to serve as one shard of
//! a [`crate::BundledStore`], and its one implementation: every structure
//! implementing the two-phase kernel's hook trait ([`bundle::TwoPhase`]) is
//! a backend, so adding one means implementing that trait, not editing this.

use bundle::api::RangeQuerySet;
use bundle::{PrepareCursor, RqContext, ShardTxn, TwoPhase, TxnValidateError};
use ebr::ReclaimMode;

/// A bundled structure that can back one shard of a sharded store.
///
/// Beyond the ordinary [`RangeQuerySet`] operations, a shard must support
/// the two things that make *cross*-shard linearizability possible:
///
/// 1. **construction over a shared [`RqContext`]** — every shard orders
///    its updates through the store's single clock, so updates across the
///    whole store are totally ordered, and
/// 2. **a range query at a caller-fixed snapshot timestamp**
///    ([`Self::range_query_at`]) — the store reads the shared clock once
///    and traverses every overlapping shard at that one timestamp.
///
/// The bundle-maintenance hooks (`cleanup`, `bundle_entries`) let the
/// store run one recycler over all shards.
pub trait ShardBackend<K, V>: RangeQuerySet<K, V> + Sized {
    /// Build a shard ordering its updates through `ctx` and freeing through
    /// its collector (shared with every other shard of the store).
    ///
    /// # Panics
    ///
    /// If `max_threads` or `mode` differ from the context's: they are the
    /// context's to decide, and are passed only to be checked.
    fn build(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self;

    /// Pin the store's epoch collector — one for every shard, the
    /// context's — for `tid`.
    ///
    /// A range query pins *before* fixing its snapshot timestamp
    /// ([`RqContext::announce_rq`] does both): a node removed with a
    /// timestamp newer than the snapshot necessarily retires after the
    /// clock read, so a pin taken before the read protects every node a
    /// fixed-timestamp traversal of any shard can visit. (Pins are
    /// reentrant, so the shard's own internal pin in
    /// [`Self::range_query_at`] just nests.)
    fn pin(&self, tid: usize) -> ebr::Guard<'_>;

    /// Collect `low ..= high` into `out` (cleared first) as of snapshot
    /// `ts`, which the caller has read from the shared clock and announced
    /// in the context for the duration of the call.
    fn range_query_at(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
    ) -> usize;

    /// One pass pruning bundle entries no active snapshot needs; returns
    /// the number of entries retired.
    fn cleanup(&self, tid: usize) -> usize;

    /// Total bundle entries currently held (space diagnostic).
    fn bundle_entries(&self, tid: usize) -> usize;

    /// The epoch-reclamation counters (retired / freed / pending backlog)
    /// of the collector the shard frees through: the store's one domain,
    /// so every shard of a store returns the same counters. The store's
    /// observability layer reads them once for its EBR gauges.
    fn reclaim_stats(&self) -> &ebr::Stats;

    /// Accumulated two-phase state of one transaction's writes on this
    /// shard: held node locks, pending bundle entries, and the undo log
    /// reverting eager structural changes on abort.
    type Txn;

    /// Begin accumulating two-phase writes for thread `tid` (the backends
    /// hand out the thread's previous token, cleared and still allocated).
    ///
    /// The two-phase commit surface generalizes the paper's
    /// `LinearizeUpdateOperation` from one structure to N shards: each
    /// staged write applies its structural change eagerly but leaves every
    /// affected bundle entry *pending*; the store then reads the shared
    /// clock **once** and finalizes all entries on all shards with that
    /// single timestamp, so every snapshot (fixed through the shared
    /// [`RqContext`]) observes the whole write batch or none of it.
    ///
    /// Protocol obligations of the caller:
    /// * no exclusion beyond node locks: any number of tokens — read-write
    ///   or write-only — may stage on one shard at once, next to the
    ///   primitive operations; a token that meets a neighbour's lock gets
    ///   a [`bundle::Conflict`];
    /// * every begun token is consumed by exactly one of
    ///   [`Self::txn_finalize`] or [`Self::txn_abort`];
    /// * on [`bundle::Conflict`] from any prepare, *all* shards' tokens are
    ///   aborted and the whole transaction retries.
    fn txn_begin(&self, tid: usize) -> Self::Txn;

    /// Alias of [`Self::txn_begin`], which it returns: every token records
    /// what the validate phase reads, whether it will validate or not. The
    /// store no longer calls it; it stays only for the benchmark's timing
    /// wrapper and panel, and goes with them.
    fn txn_begin_write_only(&self, tid: usize) -> Self::Txn {
        self.txn_begin(tid)
    }

    /// A prepare cursor over one transaction token: stages the same
    /// two-phase writes as the point prepares, but retains the last
    /// located position (a frontier) and resumes the next seek from it
    /// when the target key lies at or beyond the current position —
    /// turning a key-sorted batch into one root descent plus short
    /// forward walks. See [`bundle::PrepareCursor`] for the frontier
    /// retention rules and fallback conditions.
    type Cursor<'a>: PrepareCursor<K, V, Txn = Self::Txn>
    where
        Self: 'a;

    /// Open a prepare cursor over `txn`. The cursor holds an EBR pin on
    /// this shard for its whole lifetime; [`bundle::PrepareCursor::finish`]
    /// gives the token back for [`Self::txn_finalize`] /
    /// [`Self::txn_abort`]. The store's commit pipeline drives every
    /// shard's staged ops (already key-sorted) through one cursor.
    fn txn_cursor(&self, txn: Self::Txn) -> Self::Cursor<'_>;

    /// Transactional snapshot read of `low..=high` at the caller-fixed
    /// (leased) timestamp `ts`: like [`Self::range_query_at`], but every
    /// collected node's address is additionally recorded into `nodes` —
    /// the read-set entry [`Self::txn_validate`] re-checks at commit.
    ///
    /// Contract: `ts` must stay announced in the context (the
    /// transaction's read lease) and the caller must hold an EBR pin from
    /// before the lease until validation, so the recorded
    /// addresses stay comparable (no node reuse).
    fn txn_range_read(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
        nodes: &mut Vec<(K, usize)>,
    ) -> usize;

    /// Validate one recorded read range of the transaction and pin it
    /// (node locks held inside `txn`) until finalize/abort. Must run
    /// *after* every staged write of the transaction on this shard; other
    /// read-write transactions may be mid-commit on the shard meanwhile.
    ///
    /// [`TxnValidateError::Conflict`] = lock race, roll back everything
    /// and retry the transaction; [`TxnValidateError::Invalidated`] = a
    /// foreign update committed inside the range since the leased read
    /// timestamp — the abort must propagate to the application, which
    /// re-runs against a fresh snapshot.
    fn txn_validate(
        &self,
        txn: &mut Self::Txn,
        low: &K,
        high: &K,
        recorded: &[(K, usize)],
    ) -> Result<(), TxnValidateError>;

    /// Commit the shard's staged writes with the transaction's single
    /// timestamp (acquired once from the shared clock *after* every
    /// shard's prepare phase succeeded).
    fn txn_finalize(&self, txn: Self::Txn, ts: u64);

    /// Roll back the shard's staged writes: structural changes reverted,
    /// pending bundle entries neutralized, locks released.
    fn txn_abort(&self, txn: Self::Txn);
}

/// Every [`TwoPhase`] structure is a backend: the kernel's methods under
/// the store's names. (`Key` / `Value` are associated types there so this
/// blanket impl can sit beside a downstream pass-through wrapper's.)
impl<S: TwoPhase> ShardBackend<S::Key, S::Value> for S {
    fn build(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
        assert_eq!(max_threads, ctx.max_threads(), "thread slots differ");
        assert_eq!(mode, ctx.collector().mode(), "reclaim mode differs");
        S::with_context(ctx)
    }

    fn pin(&self, tid: usize) -> ebr::Guard<'_> {
        TwoPhase::pin(self, tid)
    }

    fn range_query_at(
        &self,
        tid: usize,
        ts: u64,
        low: &S::Key,
        high: &S::Key,
        out: &mut Vec<(S::Key, S::Value)>,
    ) -> usize {
        TwoPhase::range_query_at(self, tid, ts, low, high, out)
    }

    fn cleanup(&self, tid: usize) -> usize {
        self.cleanup_bundles(tid)
    }

    fn bundle_entries(&self, tid: usize) -> usize {
        TwoPhase::bundle_entries(self, tid)
    }

    fn reclaim_stats(&self) -> &ebr::Stats {
        self.context().collector().stats()
    }

    type Txn = ShardTxn<S>;

    fn txn_begin(&self, tid: usize) -> Self::Txn {
        TwoPhase::txn_begin(self, tid)
    }

    type Cursor<'a>
        = S::Cursor<'a>
    where
        Self: 'a;

    fn txn_cursor(&self, txn: Self::Txn) -> Self::Cursor<'_> {
        TwoPhase::txn_cursor(self, txn)
    }

    fn txn_range_read(
        &self,
        tid: usize,
        ts: u64,
        low: &S::Key,
        high: &S::Key,
        out: &mut Vec<(S::Key, S::Value)>,
        nodes: &mut Vec<(S::Key, usize)>,
    ) -> usize {
        TwoPhase::txn_range_read(self, tid, ts, low, high, out, nodes)
    }

    fn txn_validate(
        &self,
        txn: &mut Self::Txn,
        low: &S::Key,
        high: &S::Key,
        recorded: &[(S::Key, usize)],
    ) -> Result<(), TxnValidateError> {
        TwoPhase::txn_validate(self, txn, low, high, recorded)
    }

    fn txn_finalize(&self, txn: Self::Txn, ts: u64) {
        TwoPhase::txn_finalize(self, txn, ts)
    }

    fn txn_abort(&self, txn: Self::Txn) {
        TwoPhase::txn_abort(self, txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every trait method once, through the trait (what the backends do
    /// behind it is `tests/backend_conformance.rs`'s subject).
    fn exercise<S: ShardBackend<u64, u64>>() {
        let ctx = RqContext::new(2);
        let shard = S::build(2, ReclaimMode::Reclaim, &ctx);
        // The thread slots and the reclaim mode are the context's.
        assert!(std::ptr::eq(shard.reclaim_stats(), ctx.collector().stats()));
        for (threads, mode) in [(3, ReclaimMode::Reclaim), (2, ReclaimMode::Leaky)] {
            let build = std::panic::AssertUnwindSafe(|| S::build(threads, mode, &ctx));
            let rejected = std::panic::catch_unwind(build).is_err();
            assert!(rejected, "{threads} {mode:?}");
        }
        assert!(shard.insert(0, 1, 10));
        let before = ctx.read();

        // Commit path: two staged writes through one cursor, one
        // timestamp, atomic cut.
        let mut cur = shard.txn_cursor(shard.txn_begin(0));
        assert_eq!(cur.seek_prepare_remove(&1), Ok(true));
        assert_eq!(cur.seek_prepare_put(2, 20), Ok(true));
        assert_eq!(cur.seek_read(&2), Some(20), "cursor reads eager writes");
        let stats = cur.stats();
        assert!(stats.hinted + stats.descents >= 3, "every seek is counted");
        let ts = ctx.advance(0);
        shard.txn_finalize(cur.finish(), ts);
        let rq = ctx.announce_rq(1);
        let (mut out, mut nodes) = (Vec::new(), Vec::new());
        shard.range_query_at(1, before, &0, &100, &mut out);
        assert_eq!(out, vec![(1, 10)], "pre-commit snapshot unchanged");
        shard.range_query_at(1, ts, &0, &100, &mut out);
        assert_eq!(out, vec![(2, 20)], "commit snapshot has both writes");

        // A recorded read validates while nothing changed; aborting the
        // token releases its pins and leaves the clock alone.
        shard.txn_range_read(1, rq.ts(), &0, &100, &mut out, &mut nodes);
        assert_eq!((out.as_slice(), nodes.len()), (&[(2, 20)][..], 1));
        let mut txn = shard.txn_begin(0);
        assert_eq!(shard.txn_validate(&mut txn, &0, &100, &nodes), Ok(()));
        shard.txn_abort(txn);
        drop(rq);
        assert_eq!(ctx.read(), ts);

        assert!(shard.bundle_entries(0) > 0);
        let _ = shard.cleanup(1);
        let _ = shard.reclaim_stats().retired();
    }

    #[test]
    fn all_three_backends_satisfy_the_contract() {
        exercise::<skiplist::BundledSkipList<u64, u64>>();
        exercise::<lazylist::BundledLazyList<u64, u64>>();
        exercise::<citrus::BundledCitrusTree<u64, u64>>();
    }
}
