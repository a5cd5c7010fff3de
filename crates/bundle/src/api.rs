//! Common traits implemented by every ordered-set implementation in this
//! workspace (bundled structures, the Unsafe baselines, and the EBR-RQ and
//! RLU competitors), so that the benchmark harness, the DBx1000-style
//! database and the examples can drive any of them uniformly.
//!
//! Threads are identified by a dense index `tid` in `0..max_threads`, the
//! same index that names the thread's slot in the EBR collector, where
//! its epoch and its announced snapshot live (this mirrors the thread-id discipline of the
//! original C++ benchmark framework the paper builds on).

/// A concurrent ordered map/set supporting the paper's *primitive*
/// operations: `insert`, `remove`, and `contains`.
pub trait ConcurrentSet<K, V>: Send + Sync {
    /// Insert `key -> value`; returns `false` if the key was already
    /// present (in which case the structure is unchanged).
    fn insert(&self, tid: usize, key: K, value: V) -> bool;

    /// Remove `key`; returns `false` if it was not present.
    fn remove(&self, tid: usize, key: &K) -> bool;

    /// Wait-free membership test.
    #[must_use]
    fn contains(&self, tid: usize, key: &K) -> bool;

    /// Lookup returning a copy of the value.
    #[must_use]
    fn get(&self, tid: usize, key: &K) -> Option<V>;

    /// Number of elements, counted by a full (non-linearizable) traversal.
    /// Intended for tests and initialization sanity checks, not hot paths.
    #[must_use]
    fn len(&self, tid: usize) -> usize;

    /// `true` when [`ConcurrentSet::len`] would be 0.
    #[must_use]
    fn is_empty(&self, tid: usize) -> bool {
        self.len(tid) == 0
    }
}

/// A [`ConcurrentSet`] that also supports range queries.
///
/// Whether `range_query` returns a linearizable snapshot is a property of
/// the implementation: the bundled, EBR-RQ and RLU variants are
/// linearizable; the `Unsafe` baselines are not (they are the paper's
/// performance reference line).
pub trait RangeQuerySet<K, V>: ConcurrentSet<K, V> {
    /// Collect every `(key, value)` with `low <= key <= high` into `out`
    /// (cleared first), returning the number of elements. Results are in
    /// ascending key order.
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize;

    /// Convenience wrapper allocating a fresh result vector.
    #[must_use]
    fn range_query_vec(&self, tid: usize, low: &K, high: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range_query(tid, low, high, &mut out);
        out
    }
}

/// Blanket impls so `Arc<T>` (how the harness shares structures between
/// worker threads) can be used wherever the traits are expected.
impl<K, V, T: ConcurrentSet<K, V> + ?Sized> ConcurrentSet<K, V> for std::sync::Arc<T> {
    fn insert(&self, tid: usize, key: K, value: V) -> bool {
        (**self).insert(tid, key, value)
    }
    fn remove(&self, tid: usize, key: &K) -> bool {
        (**self).remove(tid, key)
    }
    fn contains(&self, tid: usize, key: &K) -> bool {
        (**self).contains(tid, key)
    }
    fn get(&self, tid: usize, key: &K) -> Option<V> {
        (**self).get(tid, key)
    }
    fn len(&self, tid: usize) -> usize {
        (**self).len(tid)
    }
}

impl<K, V, T: RangeQuerySet<K, V> + ?Sized> RangeQuerySet<K, V> for std::sync::Arc<T> {
    fn range_query(&self, tid: usize, low: &K, high: &K, out: &mut Vec<(K, V)>) -> usize {
        (**self).range_query(tid, low, high, out)
    }
    // Forwarded explicitly: the trait's default would allocate and traverse
    // through the blanket impl, bypassing any specialized `range_query_vec`
    // the underlying structure provides.
    fn range_query_vec(&self, tid: usize, low: &K, high: &K) -> Vec<(K, V)> {
        (**self).range_query_vec(tid, low, high)
    }
}
