//! A DBx1000-style in-memory database substrate running the TPC-C subset
//! used in §8.2 of the paper.
//!
//! The paper integrates its bundled skip list and Citrus tree as *indexes*
//! in the DBx1000 in-memory database and measures index-operation
//! throughput under TPC-C with 10 warehouses and the transaction mix
//! NEW_ORDER 50% / PAYMENT 45% / DELIVERY 5%:
//!
//! * **DELIVERY** performs a range query over the new-order index (ordered
//!   by `order_id`) to select the oldest order among the last 100, then
//!   deletes it so later deliveries do not re-deliver it.
//! * **PAYMENT** looks a customer up by last name with 60% probability —
//!   a range query over the customer-name index.
//! * **NEW_ORDER** inserts into the order, new-order and order-line
//!   indexes and reads the item and stock indexes.
//!
//! This crate rebuilds that substrate from scratch: relational tables held
//! in append-only row arenas, secondary indexes backed by *any*
//! [`bundle::api::RangeQuerySet`] implementation (bundled or baseline), the
//! three transaction profiles, and a workload driver reporting
//! index-operation throughput (what Figure 4 plots). It is intentionally a
//! substitution for the original C++ DBx1000 engine — see DESIGN.md — that
//! preserves the index access pattern the paper measures.
//!
//! Beyond the paper's configuration, [`TpccDb::store_backed`] plugs the
//! sharded `store::BundledStore` in as the index substrate: every index is
//! a tagged view over one store (one shard per table, one shared clock),
//! and NEW_ORDER's three-index insert (order, new-order, order-line)
//! commits as a single cross-shard `txn::WriteTxn` — atomic with respect
//! to every index range query. The `fig4` binary compares it against the
//! single-structure indexes.

mod keys;
mod store_backed;
mod tpcc;
mod workload;

pub use keys::{
    customer_key, customer_name_key, new_order_key, order_key, order_line_key, stock_key,
    DISTRICTS_PER_WAREHOUSE, MAX_ORDER_LINES,
};
pub use store_backed::{build_tpcc_store, StoreIndexView, Table, TpccStore, TABLE_SHIFT};
pub use tpcc::{
    Customer, DynIndex, IndexFactory, Order, TpccConfig, TpccDb, TpccTxnStats, TxnKind,
};
pub use workload::{run_tpcc, run_tpcc_db, TpccThroughput};
