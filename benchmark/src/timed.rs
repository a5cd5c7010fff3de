//! The two adapters that make inner layer boundaries visible from
//! outside: [`Timed`] wraps a shard backend (so a
//! `BundledStore<_, _, Timed<S>>` shows the store -> backend boundary)
//! and [`TimedLog`] wraps the commit log (store -> wal).

use std::sync::Arc;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use bundle::{Conflict, CursorStats, PrepareCursor, RqContext, TxnValidateError};
use ebr::ReclaimMode;
use store::{CommitLog, ShardBackend, TxnOp};

use crate::trace::{self, Guard, Kind};

/// A pass-through backend: one span per cursor lifetime, `txn_finalize`,
/// `txn_validate` and `range_query_at`. Outcome-identical to `S`.
pub struct Timed<S>(S);

impl<K, V, S: ConcurrentSet<K, V>> ConcurrentSet<K, V> for Timed<S> {
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        self.0.insert(tid, key, value)
    }
    fn remove(&self, tid: usize, key: &K) -> bool {
        self.0.remove(tid, key)
    }
    fn contains(&self, tid: usize, key: &K) -> bool {
        self.0.contains(tid, key)
    }
    fn get(&self, tid: usize, key: &K) -> Option<V> {
        self.0.get(tid, key)
    }
    fn len(&self, tid: usize) -> usize {
        self.0.len(tid)
    }
}

impl<K, V, S: RangeQuerySet<K, V>> RangeQuerySet<K, V> for Timed<S> {
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        self.0.range_query(tid, low, high, out)
    }
}

impl<K, V, S: ShardBackend<K, V>> ShardBackend<K, V> for Timed<S> {
    fn build(max_threads: usize, mode: ReclaimMode, ctx: &RqContext) -> Self {
        Timed(S::build(max_threads, mode, ctx))
    }

    fn pin(&self, tid: usize) -> ebr::Guard<'_> {
        self.0.pin(tid)
    }

    fn range_query_at(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
    ) -> usize {
        let mut span = trace::span(Kind::BackendRangeAt);
        let n = self.0.range_query_at(tid, ts, low, high, out);
        if let Some(s) = &mut span {
            s.count = n as u32;
        }
        n
    }

    fn cleanup(&self, tid: usize) -> usize {
        self.0.cleanup(tid)
    }

    fn bundle_entries(&self, tid: usize) -> usize {
        self.0.bundle_entries(tid)
    }

    fn reclaim_stats(&self) -> &ebr::Stats {
        self.0.reclaim_stats()
    }

    type Txn = S::Txn;

    fn txn_begin(&self, tid: usize) -> Self::Txn {
        self.0.txn_begin(tid)
    }

    fn txn_begin_write_only(&self, tid: usize) -> Self::Txn {
        self.0.txn_begin_write_only(tid)
    }

    type Cursor<'a>
        = TimedCursor<S::Cursor<'a>>
    where
        Self: 'a;

    fn txn_cursor(&self, txn: Self::Txn) -> Self::Cursor<'_> {
        let span = trace::span(Kind::BackendCursor);
        TimedCursor {
            inner: self.0.txn_cursor(txn),
            span,
            ops: 0,
        }
    }

    fn txn_range_read(
        &self,
        tid: usize,
        ts: u64,
        low: &K,
        high: &K,
        out: &mut Vec<(K, V)>,
        nodes: &mut Vec<(K, usize)>,
    ) -> usize {
        self.0.txn_range_read(tid, ts, low, high, out, nodes)
    }

    fn txn_validate(
        &self,
        txn: &mut Self::Txn,
        low: &K,
        high: &K,
        recorded: &[(K, usize)],
    ) -> Result<(), TxnValidateError> {
        let _span = trace::span(Kind::BackendValidate);
        self.0.txn_validate(txn, low, high, recorded)
    }

    fn txn_finalize(&self, txn: Self::Txn, ts: u64) {
        let span = trace::span(Kind::BackendFinalize);
        self.0.txn_finalize(txn, ts);
        if span.is_some() {
            drop(span);
            // The commit timestamp is the request id of everything this
            // thread recorded for the group.
            trace::stamp(ts);
        }
    }

    fn txn_abort(&self, txn: Self::Txn) {
        self.0.txn_abort(txn)
    }
}

/// The cursor of a [`Timed`] backend: its span covers the cursor's
/// lifetime and counts the ops staged through it.
pub struct TimedCursor<C> {
    inner: C,
    span: Option<Guard>,
    ops: u32,
}

impl<K, V, C: PrepareCursor<K, V>> PrepareCursor<K, V> for TimedCursor<C> {
    type Txn = C::Txn;

    fn seek_prepare_put(&mut self, key: K, value: V) -> Result<bool, Conflict> {
        self.ops += 1;
        self.inner.seek_prepare_put(key, value)
    }

    fn seek_prepare_remove(&mut self, key: &K) -> Result<bool, Conflict> {
        self.ops += 1;
        self.inner.seek_prepare_remove(key)
    }

    fn seek_read(&mut self, key: &K) -> Option<V> {
        self.inner.seek_read(key)
    }

    fn stats(&self) -> CursorStats {
        self.inner.stats()
    }

    fn finish(self) -> Self::Txn {
        let TimedCursor { inner, span, ops } = self;
        let txn = inner.finish();
        if let Some(mut s) = span {
            s.count = ops;
        }
        txn
    }
}

/// A commit log that spans `log_group` and `sync` of the log it wraps.
pub struct TimedLog<K, V> {
    inner: Arc<dyn CommitLog<K, V>>,
}

impl<K, V> TimedLog<K, V> {
    pub fn new(inner: Arc<dyn CommitLog<K, V>>) -> Self {
        TimedLog { inner }
    }
}

impl<K, V> CommitLog<K, V> for TimedLog<K, V> {
    fn log_group(
        &self,
        tid: usize,
        ts: u64,
        ops: &[TxnOp<K, V>],
        order: &[usize],
        applied: &[bool],
        shards: &[usize],
    ) {
        let mut span = trace::span(Kind::WalLogGroup);
        if let Some(s) = &mut span {
            s.count = ops.len() as u32;
        }
        self.inner.log_group(tid, ts, ops, order, applied, shards);
    }

    fn sync(&self) {
        let _span = trace::span(Kind::WalSync);
        self.inner.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `ShardBackend` contract exercise of `crates/store`, returning
    /// everything it observed so two backends can be compared.
    fn exercise<S: ShardBackend<u64, u64>>() -> Vec<String> {
        let mut seen = Vec::new();
        let ctx = RqContext::new(2);
        let shard = S::build(2, ReclaimMode::Reclaim, &ctx);
        let mut out = Vec::new();
        let mut note = |what: &str, v: String| seen.push(format!("{what}: {v}"));

        note(
            "insert",
            format!("{:?}", [shard.insert(0, 1, 10), shard.insert(0, 1, 11)]),
        );
        let before = ctx.read();
        let mut cur = shard.txn_cursor(shard.txn_begin(0));
        note("stage", format!("{:?}", cur.seek_prepare_remove(&1)));
        note("stage", format!("{:?}", cur.seek_prepare_put(2, 20)));
        note("stage", format!("{:?}", cur.seek_prepare_put(2, 21)));
        note("seek_read", format!("{:?}", cur.seek_read(&2)));
        note("stats", format!("{:?}", cur.stats()));
        let txn = cur.finish();
        let ts = ctx.advance(0);
        shard.txn_finalize(txn, ts);
        let _ = ctx.start_rq(1);
        shard.range_query_at(1, before, &0, &100, &mut out);
        note("at before", format!("{out:?}"));
        shard.range_query_at(1, ts, &0, &100, &mut out);
        note("at commit", format!("{out:?}"));
        ctx.finish_rq(1);

        let clock = ctx.read();
        let mut cur = shard.txn_cursor(shard.txn_begin(0));
        note("stage", format!("{:?}", cur.seek_prepare_put(3, 30)));
        shard.txn_abort(cur.finish());
        note("abort keeps the clock", (ctx.read() == clock).to_string());

        // A recorded read validates while unchanged, and is invalidated
        // by a foreign commit inside its range.
        let mut nodes = Vec::new();
        let lease = ctx.lease_read(1);
        let _pin = shard.pin(1);
        shard.txn_range_read(1, lease.ts(), &0, &100, &mut out, &mut nodes);
        note("range_read", format!("{out:?} {}", nodes.len()));
        let mut txn = shard.txn_begin(0);
        note(
            "validate",
            format!("{:?}", shard.txn_validate(&mut txn, &0, &100, &nodes)),
        );
        shard.txn_abort(txn);
        note("foreign insert", shard.insert(0, 50, 500).to_string());
        let mut txn = shard.txn_begin(0);
        note(
            "validate",
            format!("{:?}", shard.txn_validate(&mut txn, &0, &100, &nodes)),
        );
        shard.txn_abort(txn);
        drop(lease);

        note("len", shard.len(0).to_string());
        note(
            "range_query",
            format!("{:?}", shard.range_query_vec(0, &0, &100)),
        );
        note("get", format!("{:?}", [shard.get(0, &2), shard.get(0, &1)]));
        note(
            "remove",
            format!("{:?}", [shard.remove(0, &2), shard.remove(0, &2)]),
        );
        note("contains", shard.contains(0, &50).to_string());
        note("entries", (shard.bundle_entries(0) > 0).to_string());
        let _ = shard.cleanup(1);
        let _ = shard.reclaim_stats().retired();
        seen
    }

    #[test]
    fn timed_is_outcome_identical_on_the_backend_contract() {
        let skip = exercise::<skiplist::BundledSkipList<u64, u64>>();
        assert_eq!(
            skip,
            exercise::<Timed<skiplist::BundledSkipList<u64, u64>>>()
        );
        let citrus = exercise::<citrus::BundledCitrusTree<u64, u64>>();
        assert_eq!(
            citrus,
            exercise::<Timed<citrus::BundledCitrusTree<u64, u64>>>()
        );
        let list = exercise::<lazylist::BundledLazyList<u64, u64>>();
        assert_eq!(
            list,
            exercise::<Timed<lazylist::BundledLazyList<u64, u64>>>()
        );
        assert!(skip.iter().any(|l| l == "at commit: [(2, 20)]"), "{skip:?}");
        assert!(
            skip.iter().any(|l| l == "validate: Err(Invalidated)"),
            "{skip:?}"
        );
    }
}
