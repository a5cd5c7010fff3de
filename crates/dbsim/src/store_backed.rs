//! Store-backed index substrate: every TPC-C index is a *view* over one
//! shared [`store::BundledStore`], so multi-index writes can commit as one
//! cross-shard transaction.
//!
//! The paper plugs its bundled structures into DBx1000 as six independent
//! indexes; each index update is then only individually linearizable, and
//! a DELIVERY range query can observe a NEW_ORDER transaction's order
//! without its order-lines. Backing all indexes by one sharded store —
//! each table owns a tagged slice of the `u64` keyspace and at least one
//! shard — lets NEW_ORDER's three-index insert (order, new-order,
//! order-line) run as a single [`txn::WriteTxn`]: one commit timestamp,
//! atomic with respect to every index range query.

use std::sync::Arc;

use bundle::api::{ConcurrentSet, RangeQuerySet};

/// Bits above every composite TPC-C key reserved for the table tag
/// (district prefixes top out near 2^47).
pub const TABLE_SHIFT: u32 = 56;

/// The tables (= index views) of the TPC-C substrate, each owning the key
/// range `[tag << TABLE_SHIFT, (tag + 1) << TABLE_SHIFT)` of the shared
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Table {
    /// Customer primary index.
    Customer = 1,
    /// Customer last-name index.
    CustomerName = 2,
    /// Order index.
    Order = 3,
    /// New-order (pending delivery) index.
    NewOrder = 4,
    /// Item index.
    Item = 5,
    /// Stock index.
    Stock = 6,
    /// Order-line index.
    OrderLine = 7,
    /// Customer balance table: `customer row id -> accumulated payment
    /// cents`. Unlike the index tables (whose values are immutable row
    /// ids), this one is *mutated* by PAYMENT's read-modify-write — which
    /// is why store-backed PAYMENT runs as a serializable
    /// `txn::ReadWriteTxn` (validated read of the balance, upsert of the
    /// new value, one commit timestamp).
    CustomerBalance = 8,
}

/// Number of tables backed by the shared store.
pub const TABLE_COUNT: u64 = 8;

impl Table {
    /// The table's key-space tag (high bits of every key it owns).
    #[must_use]
    pub fn tag(self) -> u64 {
        (self as u64) << TABLE_SHIFT
    }

    /// Tag a table-local key into the shared store's keyspace.
    #[must_use]
    pub fn key(self, local: u64) -> u64 {
        debug_assert!(local < (1u64 << TABLE_SHIFT));
        self.tag() | local
    }
}

/// The shared store every table view resolves through: bundled skip-list
/// shards, one per table (shard boundaries at the table tags).
pub type TpccStore = store::SkipListStore<u64, u64>;

/// Build the shared store backing all seven table views: `TABLE_COUNT + 1`
/// range shards (shard 0 covers the unused space below the first tag), all
/// on one clock, supporting `max_threads` registered threads.
pub fn build_tpcc_store(max_threads: usize) -> Arc<TpccStore> {
    let splits: Vec<u64> = (1..=TABLE_COUNT).map(|t| t << TABLE_SHIFT).collect();
    Arc::new(TpccStore::new(max_threads, splits))
}

/// One table's index view over the shared store: implements the same
/// [`ConcurrentSet`] / [`RangeQuerySet`] surface as a standalone index by
/// tagging keys in and stripping tags out, so the whole TPC-C machinery
/// (population, PAYMENT scans, DELIVERY scans) drives it unchanged.
pub struct StoreIndexView {
    store: Arc<TpccStore>,
    table: Table,
}

impl StoreIndexView {
    /// A view of `table` over `store`.
    pub fn new(store: Arc<TpccStore>, table: Table) -> Self {
        StoreIndexView { store, table }
    }

    /// The table this view projects.
    #[must_use]
    pub fn table(&self) -> Table {
        self.table
    }
}

impl ConcurrentSet<u64, u64> for StoreIndexView {
    fn insert(&self, tid: usize, key: u64, value: u64) -> bool {
        self.store.insert(tid, self.table.key(key), value)
    }

    fn remove(&self, tid: usize, key: &u64) -> bool {
        self.store.remove(tid, &self.table.key(*key))
    }

    fn contains(&self, tid: usize, key: &u64) -> bool {
        self.store.contains(tid, &self.table.key(*key))
    }

    fn get(&self, tid: usize, key: &u64) -> Option<u64> {
        self.store.get(tid, &self.table.key(*key))
    }

    // O(table) and allocating: materializes the view through a snapshot
    // range query just to count. Fine for the trait's intended use (tests
    // and initialization checks, per its docs) — not a hot-path counter.
    fn len(&self, tid: usize) -> usize {
        let mut out = Vec::new();
        self.store.range_query(
            tid,
            &self.table.tag(),
            &(self.table.tag() | ((1u64 << TABLE_SHIFT) - 1)),
            &mut out,
        );
        out.len()
    }
}

impl RangeQuerySet<u64, u64> for StoreIndexView {
    fn range_query(&self, tid: usize, low: &u64, high: &u64, out: &mut Vec<(u64, u64)>) -> usize {
        let n = self
            .store
            .range_query(tid, &self.table.key(*low), &self.table.key(*high), out);
        for entry in out.iter_mut() {
            entry.0 &= (1u64 << TABLE_SHIFT) - 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_partition_the_store_and_strip_tags() {
        let store = build_tpcc_store(2);
        let orders = StoreIndexView::new(Arc::clone(&store), Table::Order);
        let lines = StoreIndexView::new(Arc::clone(&store), Table::OrderLine);
        assert!(orders.insert(0, 42, 1));
        assert!(lines.insert(0, 42, 2));
        // Same local key, different tables, no interference.
        assert_eq!(orders.get(0, &42), Some(1));
        assert_eq!(lines.get(0, &42), Some(2));
        assert_eq!(orders.len(0), 1);
        let mut out = Vec::new();
        assert_eq!(orders.range_query(1, &0, &100, &mut out), 1);
        assert_eq!(out, vec![(42, 1)], "tags are stripped from results");
        assert!(orders.remove(0, &42));
        assert!(!orders.contains(0, &42));
        assert!(lines.contains(0, &42));
        // Each table lands in its own shard.
        assert_eq!(store.shard_of(&Table::Order.key(0)), 3);
        assert_eq!(store.shard_of(&Table::OrderLine.key(0)), 7);
    }
}
