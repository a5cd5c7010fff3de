//! TPC-C tables, population, and the three transaction profiles used in
//! §8.2 (NEW_ORDER 50%, PAYMENT 45%, DELIVERY 5%).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use store::TxnAborted;
use txn::{ReadWriteTxn, WriteTxn};

use crate::keys::{
    customer_key, customer_name_key, last_name_hash, new_order_key, order_key, order_line_key,
    stock_key, DISTRICTS_PER_WAREHOUSE, MAX_ORDER_LINES,
};
use crate::store_backed::{
    build_tpcc_store, StoreIndexView, Table, TpccIngest, TpccStore, TABLE_SHIFT,
};

/// A dynamically dispatched ordered index over `u64 -> u64` (value = row id).
pub type DynIndex = Arc<dyn RangeQuerySet<u64, u64> + Send + Sync>;

/// Factory building one index instance; called once per index of the
/// database so that every index uses the structure under evaluation.
pub type IndexFactory = dyn Fn(usize) -> DynIndex + Send + Sync;

/// How the transaction profiles touch the indexes.
enum WritePath {
    /// Each index is an independent structure; every index operation is
    /// only individually linearizable (the paper's original
    /// configuration).
    PerIndex,
    /// All indexes are views over one shared sharded store. NEW_ORDER's
    /// three-index insert commits as a single cross-shard [`WriteTxn`];
    /// PAYMENT's read-modify-write and DELIVERY's scan-then-delete run as
    /// serializable [`ReadWriteTxn`]s with validated read sets, retried
    /// on abort.
    StoreTxn(Arc<TpccStore>),
}

/// Scale configuration. The TPC-C spec sizes (3000 customers, 100k items)
/// are reachable but the defaults are scaled down so the substrate stays
/// usable on small machines; the access *pattern* is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses (the paper uses 10).
    pub warehouses: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Number of distinct items.
    pub items: u64,
    /// Orders pre-loaded per district.
    pub initial_orders_per_district: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 10,
            customers_per_district: 300,
            items: 1_000,
            initial_orders_per_district: 200,
        }
    }
}

/// Customer row (only the fields the measured transactions touch).
#[derive(Debug, Default, Clone)]
pub struct Customer {
    pub c_id: u64,
    pub last_name: String,
    pub balance: f64,
    pub payment_cnt: u64,
}

/// Order row.
#[derive(Debug, Default, Clone)]
pub struct Order {
    pub o_id: u64,
    pub c_id: u64,
    pub ol_cnt: u64,
    pub carrier_id: Option<u64>,
}

/// Per-transaction-profile counters.
#[derive(Debug, Default)]
pub struct TpccTxnStats {
    pub new_order: AtomicU64,
    pub payment: AtomicU64,
    pub delivery: AtomicU64,
    /// Total operations issued against the indexes (what Figure 4 reports).
    pub index_ops: AtomicU64,
}

/// Transaction profiles of the evaluated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    NewOrder,
    Payment,
    Delivery,
}

impl TxnKind {
    /// Sample the paper's mix: 50% NEW_ORDER, 45% PAYMENT, 5% DELIVERY.
    pub fn sample(rng: &mut SmallRng) -> TxnKind {
        match rng.gen_range(0..100u32) {
            0..=49 => TxnKind::NewOrder,
            50..=94 => TxnKind::Payment,
            _ => TxnKind::Delivery,
        }
    }
}

/// The in-memory database: row arenas plus the secondary indexes backed by
/// the structure under evaluation.
pub struct TpccDb {
    pub cfg: TpccConfig,
    /// Customer rows; index into the vector is the row id stored in indexes.
    customers: Vec<Mutex<Customer>>,
    /// Order rows, appended as NEW_ORDER transactions execute.
    orders: Mutex<Vec<Order>>,
    /// Next order id per (warehouse, district).
    next_o_id: Vec<AtomicU64>,
    /// Stock quantity per (warehouse, item) row.
    stock_qty: Vec<AtomicU64>,

    /// Customer primary index: `customer_key -> customer row id`.
    pub customer_index: DynIndex,
    /// Customer last-name index: `customer_name_key -> customer row id`.
    pub customer_name_index: DynIndex,
    /// Order index: `order_key -> order row id`.
    pub order_index: DynIndex,
    /// New-order index: `new_order_key -> order row id` (pending deliveries).
    pub new_order_index: DynIndex,
    /// Order-line index: `order_line_key -> order row id`, populated by
    /// NEW_ORDER (5–15 lines per order).
    pub order_line_index: DynIndex,
    /// Item index: `item id -> item row id` (read-only after load).
    pub item_index: DynIndex,
    /// Stock index: `stock_key -> stock row id`.
    pub stock_index: DynIndex,

    /// How NEW_ORDER's three-index insert is applied.
    write_path: WritePath,

    /// Aggregate statistics.
    pub stats: TpccTxnStats,
}

impl TpccDb {
    /// Build and populate a database whose seven indexes are created by
    /// `factory` (with `max_threads` registered threads each). NEW_ORDER's
    /// multi-index insert runs as independent per-index operations.
    pub fn new(cfg: TpccConfig, factory: &IndexFactory, max_threads: usize) -> Self {
        let mut db = TpccDb {
            cfg,
            customers: Vec::new(),
            orders: Mutex::new(Vec::new()),
            next_o_id: (0..cfg.warehouses * DISTRICTS_PER_WAREHOUSE)
                .map(|_| AtomicU64::new(cfg.initial_orders_per_district))
                .collect(),
            stock_qty: (0..cfg.warehouses * cfg.items)
                .map(|_| AtomicU64::new(100))
                .collect(),
            customer_index: factory(max_threads),
            customer_name_index: factory(max_threads),
            order_index: factory(max_threads),
            new_order_index: factory(max_threads),
            order_line_index: factory(max_threads),
            item_index: factory(max_threads),
            stock_index: factory(max_threads),
            write_path: WritePath::PerIndex,
            stats: TpccTxnStats::default(),
        };
        db.populate();
        db
    }

    /// Build and populate a **store-backed** database: all seven indexes
    /// are views over one shared [`TpccStore`] (one shard per table, one
    /// clock), and NEW_ORDER's three-index insert (order, new-order,
    /// order-line) commits as a single cross-shard [`WriteTxn`] — no index
    /// range query can ever observe the order without its lines or
    /// new-order entry.
    pub fn store_backed(cfg: TpccConfig, max_threads: usize) -> Self {
        let store = build_tpcc_store(max_threads);
        let view =
            |table: Table| -> DynIndex { Arc::new(StoreIndexView::new(Arc::clone(&store), table)) };
        let mut db = TpccDb {
            cfg,
            customers: Vec::new(),
            orders: Mutex::new(Vec::new()),
            next_o_id: (0..cfg.warehouses * DISTRICTS_PER_WAREHOUSE)
                .map(|_| AtomicU64::new(cfg.initial_orders_per_district))
                .collect(),
            stock_qty: (0..cfg.warehouses * cfg.items)
                .map(|_| AtomicU64::new(100))
                .collect(),
            customer_index: view(Table::Customer),
            customer_name_index: view(Table::CustomerName),
            order_index: view(Table::Order),
            new_order_index: view(Table::NewOrder),
            order_line_index: view(Table::OrderLine),
            item_index: view(Table::Item),
            stock_index: view(Table::Stock),
            write_path: WritePath::StoreTxn(store),
            stats: TpccTxnStats::default(),
        };
        db.populate();
        // Balance rows (one per customer, keyed by customer row id) exist
        // only in the store-backed configuration: they are the mutable
        // cells PAYMENT's serializable read-modify-write targets.
        if let WritePath::StoreTxn(store) = &db.write_path {
            for row_id in 0..db.customers.len() as u64 {
                store.insert(0, Table::CustomerBalance.key(row_id), 0);
            }
        }
        db
    }

    /// `true` when NEW_ORDER commits through the cross-shard transaction
    /// path (store-backed database).
    #[must_use]
    pub fn is_store_backed(&self) -> bool {
        matches!(self.write_path, WritePath::StoreTxn(_))
    }

    /// The shared store backing every index view (`None` for a per-index
    /// database). An ingestion front-end for
    /// [`TpccDb::new_order_ingest`] must be spawned over exactly this
    /// store.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<TpccStore>> {
        match &self.write_path {
            WritePath::PerIndex => None,
            WritePath::StoreTxn(store) => Some(store),
        }
    }

    fn bump_index_ops(&self, n: u64) {
        self.stats.index_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// One of the TPC-C last names, cycled per customer id.
    fn last_name(c_id: u64) -> String {
        const SYLLABLES: [&str; 10] = [
            "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
        ];
        let mut n = c_id % 1000;
        let mut s = String::new();
        for _ in 0..3 {
            s.push_str(SYLLABLES[(n % 10) as usize]);
            n /= 10;
        }
        s
    }

    fn populate(&mut self) {
        let cfg = self.cfg;
        // Items and stock.
        for i in 0..cfg.items {
            self.item_index.insert(0, i, i);
            for w in 0..cfg.warehouses {
                self.stock_index
                    .insert(0, stock_key(w, i), w * cfg.items + i);
            }
        }
        // Customers.
        for w in 0..cfg.warehouses {
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                for c in 0..cfg.customers_per_district {
                    let row_id = self.customers.len() as u64;
                    let name = Self::last_name(c);
                    self.customers.push(Mutex::new(Customer {
                        c_id: c,
                        last_name: name.clone(),
                        balance: -10.0,
                        payment_cnt: 0,
                    }));
                    self.customer_index.insert(0, customer_key(w, d, c), row_id);
                    self.customer_name_index.insert(
                        0,
                        customer_name_key(w, d, last_name_hash(&name), c),
                        row_id,
                    );
                }
            }
        }
        // Initial orders awaiting delivery.
        let mut orders = self.orders.lock();
        for w in 0..cfg.warehouses {
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                for o in 0..cfg.initial_orders_per_district {
                    let row_id = orders.len() as u64;
                    orders.push(Order {
                        o_id: o,
                        c_id: o % cfg.customers_per_district,
                        ol_cnt: 5,
                        carrier_id: None,
                    });
                    self.order_index.insert(0, order_key(w, d, o), row_id);
                    self.new_order_index
                        .insert(0, new_order_key(w, d, o), row_id);
                }
            }
        }
    }

    /// Number of orders stamped with a carrier (i.e. delivered).
    pub fn delivered_orders(&self) -> usize {
        self.orders
            .lock()
            .iter()
            .filter(|o| o.carrier_id.is_some())
            .count()
    }

    /// The store-resident accumulated payment cents of a customer row
    /// (store-backed databases only; `None` per-index or for unknown
    /// rows). This is the cell PAYMENT's serializable read-modify-write
    /// mutates.
    pub fn store_balance_cents(&self, tid: usize, row_id: u64) -> Option<u64> {
        match &self.write_path {
            WritePath::PerIndex => None,
            WritePath::StoreTxn(store) => store.get(tid, &Table::CustomerBalance.key(row_id)),
        }
    }

    /// Total number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.stats.new_order.load(Ordering::Relaxed)
            + self.stats.payment.load(Ordering::Relaxed)
            + self.stats.delivery.load(Ordering::Relaxed)
    }

    /// NEW_ORDER: insert an order with 5–15 lines, reading the item and
    /// stock indexes and inserting into the order, new-order and
    /// order-line indexes.
    ///
    /// On a store-backed database the three-index insert commits as one
    /// cross-shard write transaction (a single timestamp for all
    /// `2 + ol_cnt` keys); otherwise the inserts are independent per-index
    /// operations.
    pub fn new_order(&self, tid: usize, rng: &mut SmallRng) {
        let cfg = self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let c = rng.gen_range(0..cfg.customers_per_district);
        let ol_cnt = rng.gen_range(5..=15u64);
        let mut index_ops = 0u64;

        let o_id = self.next_o_id[(w * DISTRICTS_PER_WAREHOUSE + d) as usize]
            .fetch_add(1, Ordering::Relaxed);

        for _ in 0..ol_cnt {
            let item = rng.gen_range(0..cfg.items);
            // Item lookup.
            let _ = self.item_index.get(tid, &item);
            index_ops += 1;
            // Stock lookup + quantity update (row update, not an index op).
            if let Some(stock_row) = self.stock_index.get(tid, &stock_key(w, item)) {
                let qty = &self.stock_qty[stock_row as usize];
                let mut q = qty.load(Ordering::Relaxed);
                if q < 10 {
                    q += 91;
                }
                qty.store(q.saturating_sub(rng.gen_range(1..=10)), Ordering::Relaxed);
            }
            index_ops += 1;
        }

        let row_id = {
            let mut orders = self.orders.lock();
            let row_id = orders.len() as u64;
            orders.push(Order {
                o_id,
                c_id: c,
                ol_cnt,
                carrier_id: None,
            });
            row_id
        };
        match &self.write_path {
            WritePath::PerIndex => {
                self.order_index.insert(tid, order_key(w, d, o_id), row_id);
                self.new_order_index
                    .insert(tid, new_order_key(w, d, o_id), row_id);
                for ol in 0..ol_cnt {
                    self.order_line_index
                        .insert(tid, order_line_key(w, d, o_id, ol), row_id);
                }
            }
            WritePath::StoreTxn(store) => {
                // One atomic cut across the order, new-order and
                // order-line shards: a DELIVERY or order scan either sees
                // the complete logical insert or none of it.
                let mut txn = WriteTxn::with_tid(store, tid);
                txn.put(Table::Order.key(order_key(w, d, o_id)), row_id);
                txn.put(Table::NewOrder.key(new_order_key(w, d, o_id)), row_id);
                for ol in 0..ol_cnt {
                    txn.put(Table::OrderLine.key(order_line_key(w, d, o_id, ol)), row_id);
                }
                txn.commit();
            }
        }
        index_ops += 2 + ol_cnt;

        self.bump_index_ops(index_ops);
        self.stats.new_order.fetch_add(1, Ordering::Relaxed);
    }

    /// NEW_ORDER through the **group-commit firehose**: identical reads
    /// and row allocation to [`TpccDb::new_order`], but the three-index
    /// insert (order, new-order, order-line) is *submitted* to the ingest
    /// front-end as one atomic batch instead of committed inline. The
    /// batch rides whatever group the committer forms — one clock advance
    /// shared with every concurrent NEW_ORDER in the group — and the
    /// returned ticket resolves when that group publishes. The caller
    /// pipelines: keep a window of outstanding tickets, wait the oldest,
    /// and bump [`TpccTxnStats::new_order`] per resolved ticket (this method
    /// deliberately does not — the order is not committed yet when it
    /// returns).
    ///
    /// Requires a store-backed database and an `ingest` spawned over
    /// [`TpccDb::store`] (panics otherwise).
    pub fn new_order_ingest(
        &self,
        tid: usize,
        rng: &mut SmallRng,
        ingest: &TpccIngest,
    ) -> ingest::Ticket<ingest::IngestOutcome> {
        let store = self
            .store()
            .expect("the NEW_ORDER firehose requires a store-backed database");
        assert!(
            Arc::ptr_eq(store, ingest.store()),
            "the ingest front-end must wrap this database's store"
        );
        let cfg = self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let c = rng.gen_range(0..cfg.customers_per_district);
        let ol_cnt = rng.gen_range(5..=15u64);
        let mut index_ops = 0u64;

        let o_id = self.next_o_id[(w * DISTRICTS_PER_WAREHOUSE + d) as usize]
            .fetch_add(1, Ordering::Relaxed);

        for _ in 0..ol_cnt {
            let item = rng.gen_range(0..cfg.items);
            let _ = self.item_index.get(tid, &item);
            index_ops += 1;
            if let Some(stock_row) = self.stock_index.get(tid, &stock_key(w, item)) {
                let qty = &self.stock_qty[stock_row as usize];
                let mut q = qty.load(Ordering::Relaxed);
                if q < 10 {
                    q += 91;
                }
                qty.store(q.saturating_sub(rng.gen_range(1..=10)), Ordering::Relaxed);
            }
            index_ops += 1;
        }

        let row_id = {
            let mut orders = self.orders.lock();
            let row_id = orders.len() as u64;
            orders.push(Order {
                o_id,
                c_id: c,
                ol_cnt,
                carrier_id: None,
            });
            row_id
        };
        let mut ops: Vec<store::TxnOp<u64, u64>> = Vec::with_capacity(2 + ol_cnt as usize);
        ops.push(store::TxnOp::Put(
            Table::Order.key(order_key(w, d, o_id)),
            row_id,
        ));
        ops.push(store::TxnOp::Put(
            Table::NewOrder.key(new_order_key(w, d, o_id)),
            row_id,
        ));
        for ol in 0..ol_cnt {
            ops.push(store::TxnOp::Put(
                Table::OrderLine.key(order_line_key(w, d, o_id, ol)),
                row_id,
            ));
        }
        self.bump_index_ops(index_ops + 2 + ol_cnt);
        ingest.submit_batch(ops)
    }

    /// PAYMENT: update a customer's balance; with 60% probability the
    /// customer is looked up by last name through a range query over the
    /// customer-name index, otherwise by primary key.
    ///
    /// On a store-backed database the whole profile runs as one
    /// serializable [`ReadWriteTxn`]: the primary-key lookup and the
    /// balance read are validated at commit, so a concurrent PAYMENT to
    /// the same customer aborts one of the two, which retries against a
    /// fresh snapshot — no update can be lost. (The by-name scan is an
    /// unvalidated peek: it only seeds the row id and the name index is
    /// immutable after load.)
    pub fn payment(&self, tid: usize, rng: &mut SmallRng, scratch: &mut Vec<(u64, u64)>) {
        let cfg = self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let by_name = rng.gen_range(0..100) < 60;
        let c = rng.gen_range(0..cfg.customers_per_district);
        let amount = rng.gen_range(1.0..5000.0);
        let mut index_ops = 1u64; // the customer lookup

        let row_id = match &self.write_path {
            WritePath::PerIndex => {
                if by_name {
                    // Lookup by last name: range query over the contiguous
                    // block of customers sharing the name hash, pick the
                    // middle one (TPC-C picks the median by first name).
                    let h = last_name_hash(&Self::last_name(c));
                    let low = customer_name_key(w, d, h, 0);
                    let high = customer_name_key(w, d, h, (1 << 20) - 1);
                    self.customer_name_index
                        .range_query(tid, &low, &high, scratch);
                    if scratch.is_empty() {
                        None
                    } else {
                        Some(scratch[scratch.len() / 2].1)
                    }
                } else {
                    self.customer_index.get(tid, &customer_key(w, d, c))
                }
            }
            WritePath::StoreTxn(store) => {
                // Serializable read-modify-write, retried on validation
                // failure (another PAYMENT committed to the same balance
                // between our read and our commit). The name-index scan
                // is an unvalidated *peek* — it only seeds which row id
                // to pay, and the name index is immutable after load, so
                // validating (and commit-locking) the whole name block
                // would be pure overhead; the balance read-modify-write
                // below is what must be (and is) validated.
                let row = loop {
                    let mut txn = ReadWriteTxn::with_tid(store, tid);
                    let row = if by_name {
                        let h = last_name_hash(&Self::last_name(c));
                        let low = Table::CustomerName.key(customer_name_key(w, d, h, 0));
                        let high =
                            Table::CustomerName.key(customer_name_key(w, d, h, (1 << 20) - 1));
                        txn.range_peek(&low, &high, scratch);
                        if scratch.is_empty() {
                            None
                        } else {
                            Some(scratch[scratch.len() / 2].1)
                        }
                    } else {
                        txn.get(&Table::Customer.key(customer_key(w, d, c)))
                    };
                    if let Some(row) = row {
                        let bal_key = Table::CustomerBalance.key(row);
                        let bal = txn.get(&bal_key).unwrap_or(0);
                        txn.set(bal_key, bal + (amount * 100.0) as u64);
                    }
                    match txn.commit() {
                        Ok(_) => break row,
                        Err(TxnAborted) => continue,
                    }
                };
                if row.is_some() {
                    index_ops += 2; // balance read + upsert
                }
                row
            }
        };

        if let Some(row) = row_id {
            if let Some(cust) = self.customers.get(row as usize) {
                let mut cust = cust.lock();
                cust.balance -= amount;
                cust.payment_cnt += 1;
            }
        }
        self.bump_index_ops(index_ops);
        self.stats.payment.fetch_add(1, Ordering::Relaxed);
    }

    /// DELIVERY: for each district of a warehouse, range-query the
    /// new-order index over the last 100 orders, select the oldest, delete
    /// it from the new-order index and stamp the carrier on the order row.
    ///
    /// On a store-backed database each district's delivery is one
    /// serializable [`ReadWriteTxn`]: a snapshot *peek* over the pending
    /// window finds the oldest candidate, a **validated** read of
    /// `[window start, candidate]` proves it is still the oldest pending
    /// order (and pins that fact through commit — two deliveries can
    /// never consume the same order), a validated scan of the order's
    /// line block computes the order-line sum, and the new-order entry is
    /// removed — all under one commit timestamp. Validation failures
    /// retry the district against a fresh snapshot.
    pub fn delivery(&self, tid: usize, rng: &mut SmallRng, scratch: &mut Vec<(u64, u64)>) {
        let cfg = self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let carrier = rng.gen_range(1..=10u64);
        let mut index_ops = 0u64;
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            let next =
                self.next_o_id[(w * DISTRICTS_PER_WAREHOUSE + d) as usize].load(Ordering::Relaxed);
            let low_o = next.saturating_sub(100);
            match &self.write_path {
                WritePath::PerIndex => {
                    let low = new_order_key(w, d, low_o);
                    let high = new_order_key(w, d, next);
                    self.new_order_index.range_query(tid, &low, &high, scratch);
                    index_ops += 1;
                    if let Some(&(oldest_key, order_row)) = scratch.first() {
                        // Delete so the next DELIVERY does not re-deliver.
                        if self.new_order_index.remove(tid, &oldest_key) {
                            index_ops += 1;
                            let mut orders = self.orders.lock();
                            if let Some(o) = orders.get_mut(order_row as usize) {
                                o.carrier_id = Some(carrier);
                            }
                        }
                    }
                }
                WritePath::StoreTxn(store) => {
                    index_ops +=
                        self.delivery_district_rw(store, tid, w, d, low_o, next, carrier, scratch);
                }
            }
        }
        self.bump_index_ops(index_ops);
        self.stats.delivery.fetch_add(1, Ordering::Relaxed);
    }

    /// One district of a store-backed DELIVERY as a serializable
    /// read-write transaction (see [`TpccDb::delivery`]); returns the
    /// index operations performed.
    #[allow(clippy::too_many_arguments)]
    fn delivery_district_rw(
        &self,
        store: &Arc<TpccStore>,
        tid: usize,
        w: u64,
        d: u64,
        low_o: u64,
        next: u64,
        carrier: u64,
        scratch: &mut Vec<(u64, u64)>,
    ) -> u64 {
        let low = Table::NewOrder.key(new_order_key(w, d, low_o));
        let high = Table::NewOrder.key(new_order_key(w, d, next));
        loop {
            let mut txn = ReadWriteTxn::with_tid(store, tid);
            // Unvalidated peek over the whole window: only seeds the
            // candidate, so concurrent NEW_ORDERs appending at the top of
            // the window cannot abort us.
            txn.range_peek(&low, &high, scratch);
            let Some(&(oldest_key, order_row)) = scratch.first() else {
                // Nothing pending in this district.
                return 1;
            };
            // Validated: the candidate is still the oldest pending order
            // (nothing below it reappeared, nobody delivered it), pinned
            // through the commit timestamp.
            let mut confirm = Vec::new();
            txn.range(&low, &oldest_key, &mut confirm);
            if confirm != vec![(oldest_key, order_row)] {
                continue; // lost the race to another delivery; re-read
            }
            // Order-line sum over the order's contiguous line block
            // (validated: the sum is consistent with the delete).
            let o_id = (oldest_key & ((1u64 << TABLE_SHIFT) - 1)) & ((1u64 << 40) - 1);
            let ol_low = Table::OrderLine.key(order_line_key(w, d, o_id, 0));
            let ol_high = Table::OrderLine.key(order_line_key(w, d, o_id, MAX_ORDER_LINES - 1));
            let mut lines = Vec::new();
            txn.range(&ol_low, &ol_high, &mut lines);
            let _ol_sum: u64 = lines.iter().map(|(_, row)| *row).sum();
            txn.remove(&oldest_key);
            match txn.commit() {
                Ok(_) => {
                    let mut orders = self.orders.lock();
                    if let Some(o) = orders.get_mut(order_row as usize) {
                        o.carrier_id = Some(carrier);
                    }
                    // window peek + confirm + line scan + delete
                    return 4;
                }
                Err(TxnAborted) => continue,
            }
        }
    }

    /// Execute one transaction of the paper's mix.
    pub fn run_txn(
        &self,
        tid: usize,
        rng: &mut SmallRng,
        scratch: &mut Vec<(u64, u64)>,
    ) -> TxnKind {
        let kind = TxnKind::sample(rng);
        match kind {
            TxnKind::NewOrder => self.new_order(tid, rng),
            TxnKind::Payment => self.payment(tid, rng, scratch),
            TxnKind::Delivery => self.delivery(tid, rng, scratch),
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundle::TwoPhase;
    use rand::SeedableRng;
    use skiplist::BundledSkipList;

    fn small_cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            customers_per_district: 30,
            items: 50,
            initial_orders_per_district: 20,
        }
    }

    fn make_db(threads: usize) -> TpccDb {
        let factory = |t: usize| -> DynIndex { Arc::new(BundledSkipList::<u64, u64>::new(t)) };
        TpccDb::new(small_cfg(), &factory, threads)
    }

    #[test]
    fn population_fills_all_indexes() {
        let db = make_db(1);
        let cfg = db.cfg;
        assert_eq!(db.item_index.len(0) as u64, cfg.items);
        assert_eq!(
            db.customer_index.len(0) as u64,
            cfg.warehouses * DISTRICTS_PER_WAREHOUSE * cfg.customers_per_district
        );
        assert_eq!(
            db.new_order_index.len(0) as u64,
            cfg.warehouses * DISTRICTS_PER_WAREHOUSE * cfg.initial_orders_per_district
        );
        assert_eq!(db.order_index.len(0), db.new_order_index.len(0));
    }

    #[test]
    fn new_order_grows_order_indexes() {
        let db = make_db(1);
        let before = db.order_index.len(0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            db.new_order(0, &mut rng);
        }
        assert_eq!(db.order_index.len(0), before + 20);
        assert_eq!(db.stats.new_order.load(Ordering::Relaxed), 20);
        assert!(db.stats.index_ops.load(Ordering::Relaxed) >= 20 * (2 + 2 * 5));
    }

    #[test]
    fn delivery_consumes_pending_orders() {
        let db = make_db(1);
        let before = db.new_order_index.len(0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut scratch = Vec::new();
        for _ in 0..5 {
            db.delivery(0, &mut rng, &mut scratch);
        }
        let after = db.new_order_index.len(0);
        assert!(after < before, "deliveries must remove pending orders");
        assert_eq!(db.stats.delivery.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn payment_updates_customer_balance() {
        let db = make_db(1);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = Vec::new();
        for _ in 0..50 {
            db.payment(0, &mut rng, &mut scratch);
        }
        assert_eq!(db.stats.payment.load(Ordering::Relaxed), 50);
        let touched = db
            .customers
            .iter()
            .filter(|c| c.lock().payment_cnt > 0)
            .count();
        assert!(touched > 0, "some customer must have received a payment");
    }

    #[test]
    fn store_backed_db_populates_and_runs_the_mix() {
        let db = Arc::new(TpccDb::store_backed(small_cfg(), 2));
        assert!(db.is_store_backed());
        let cfg = db.cfg;
        assert_eq!(db.item_index.len(0) as u64, cfg.items);
        assert_eq!(
            db.customer_index.len(0) as u64,
            cfg.warehouses * DISTRICTS_PER_WAREHOUSE * cfg.customers_per_district
        );
        assert_eq!(db.order_index.len(0), db.new_order_index.len(0));
        let mut rng = SmallRng::seed_from_u64(9);
        let mut scratch = Vec::new();
        let orders_before = db.order_index.len(0);
        let lines_before = db.order_line_index.len(0);
        for _ in 0..30 {
            db.run_txn(0, &mut rng, &mut scratch);
        }
        assert_eq!(db.committed(), 30);
        let new_orders = db.stats.new_order.load(Ordering::Relaxed) as usize;
        assert_eq!(db.order_index.len(0), orders_before + new_orders);
        // Every committed NEW_ORDER inserted 5-15 lines atomically.
        let lines = db.order_line_index.len(0) - lines_before;
        assert!(lines >= new_orders * 5 && lines <= new_orders * 15);
    }

    #[test]
    fn store_backed_new_order_is_atomic_across_indexes() {
        // The anomaly the store-backed path eliminates: with independent
        // per-index inserts a scan of the new-order index can observe an
        // order whose order-line entries are not inserted yet. Store-backed,
        // all three index writes share one commit timestamp, so any order
        // visible in the new-order index must have its order row and its
        // first order-line visible too.
        use crate::keys::order_line_key;
        const WRITERS: usize = 2;
        let db = Arc::new(TpccDb::store_backed(small_cfg(), WRITERS + 1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|tid| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(33 + tid as u64);
                    while !stop.load(Ordering::Relaxed) {
                        db.new_order(tid, &mut rng);
                    }
                })
            })
            .collect();
        let reader = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let tid = WRITERS;
                let cfg = db.cfg;
                let mut scratch = Vec::new();
                let mask = (1u64 << 40) - 1;
                for _ in 0..300 {
                    for w in 0..cfg.warehouses {
                        let d = 0;
                        let low = new_order_key(w, d, cfg.initial_orders_per_district);
                        let high = new_order_key(w, d, mask);
                        db.new_order_index
                            .range_query(tid, &low, &high, &mut scratch);
                        for (k, _) in &scratch {
                            let o_id = k & mask;
                            assert!(
                                db.order_index.contains(tid, &order_key(w, d, o_id)),
                                "new-order entry visible without its order row"
                            );
                            assert!(
                                db.order_line_index
                                    .contains(tid, &order_line_key(w, d, o_id, 0)),
                                "new-order entry visible without its order lines"
                            );
                        }
                    }
                }
            })
        };
        reader.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn store_backed_payments_never_lose_updates() {
        // PAYMENT's balance cell is a store-resident counter updated by a
        // serializable read-modify-write; the arena mirror is updated
        // under a per-customer mutex after each commit. A lost store
        // update (the anomaly unvalidated reads would allow) diverges the
        // two by at least one full payment (>= 100 cents); rounding
        // (`(amount * 100.0) as u64`) accounts for at most 1 cent per
        // payment.
        const WORKERS: usize = 3;
        const PAYMENTS: usize = 120;
        let db = Arc::new(TpccDb::store_backed(small_cfg(), WORKERS));
        let joins: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(77 + tid as u64);
                    let mut scratch = Vec::new();
                    for _ in 0..PAYMENTS {
                        db.payment(tid, &mut rng, &mut scratch);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            db.stats.payment.load(Ordering::Relaxed),
            (WORKERS * PAYMENTS) as u64
        );
        let mut paid_customers = 0usize;
        for (row, cust) in db.customers.iter().enumerate() {
            let cust = cust.lock();
            let store_cents = db
                .store_balance_cents(0, row as u64)
                .expect("store-backed balances exist for every customer");
            let arena_cents = (-cust.balance - 10.0) * 100.0;
            assert!(
                (store_cents as f64 - arena_cents).abs() <= cust.payment_cnt as f64 + 0.5,
                "row {row}: store={store_cents} arena={arena_cents} \
                 payments={} — a payment was lost",
                cust.payment_cnt
            );
            if cust.payment_cnt > 0 {
                paid_customers += 1;
            }
        }
        assert!(paid_customers > 0, "some customer must have been paid");
    }

    #[test]
    fn store_backed_deliveries_are_exactly_once() {
        // Two concurrent DELIVERYs racing for the same oldest pending
        // order: validation lets exactly one commit; the loser re-reads
        // and takes the next order. Every removed new-order entry must
        // therefore correspond to exactly one stamped order.
        const WORKERS: usize = 3;
        const DELIVERIES: usize = 12;
        let db = Arc::new(TpccDb::store_backed(small_cfg(), WORKERS));
        let initial = db.new_order_index.len(0);
        assert_eq!(db.delivered_orders(), 0);
        let joins: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(55 + tid as u64);
                    let mut scratch = Vec::new();
                    for _ in 0..DELIVERIES {
                        db.delivery(tid, &mut rng, &mut scratch);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let remaining = db.new_order_index.len(0);
        let delivered = db.delivered_orders();
        assert!(delivered > 0, "deliveries must make progress");
        assert_eq!(
            initial - remaining,
            delivered,
            "every consumed new-order entry delivered exactly one order"
        );
    }

    #[test]
    fn store_backed_full_mix_keeps_delivery_invariant() {
        // The whole store-backed TPC-C surface under concurrency: atomic
        // NEW_ORDER write txns, serializable PAYMENT RMWs and DELIVERY
        // scan-deletes. Afterwards, an order is pending (in the new-order
        // index) iff it has not been delivered.
        const WORKERS: usize = 3;
        let db = Arc::new(TpccDb::store_backed(small_cfg(), WORKERS));
        let joins: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(101 + tid as u64);
                    let mut scratch = Vec::new();
                    for _ in 0..150 {
                        db.run_txn(tid, &mut rng, &mut scratch);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(db.committed(), (WORKERS * 150) as u64);
        assert_eq!(
            db.new_order_index.len(0) + db.delivered_orders(),
            db.order_index.len(0),
            "pending + delivered must cover exactly the committed orders"
        );
    }

    #[test]
    fn mixed_transactions_run_concurrently() {
        let db = Arc::new(make_db(4));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(100 + tid as u64);
                    let mut scratch = Vec::new();
                    for _ in 0..200 {
                        db.run_txn(tid, &mut rng, &mut scratch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.committed(), 800);
        assert!(db.stats.index_ops.load(Ordering::Relaxed) > 800);
    }
}
