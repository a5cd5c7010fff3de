//! # Bundled references
//!
//! This crate is the core contribution of the PPoPP 2021 paper *"Bundled
//! References: An Abstraction for Highly-Concurrent Linearizable Range
//! Queries"* (Nelson, Hassan, Palmieri), reproduced in Rust.
//!
//! A **bundle** augments a link between two data structure nodes with the
//! history of the values that link has held, each entry tagged with the
//! (logical) time at which the link was installed. Update operations
//! totally order themselves through a [`GlobalTimestamp`]; a range query
//! reads the timestamp once at its outset (its linearization point) and then
//! traverses the structure strictly through bundle entries whose timestamp
//! does not exceed that snapshot — visiting exactly the nodes that belong to
//! its atomic snapshot and nothing else.
//!
//! The building blocks exported here are data-structure agnostic and are the
//! pieces named in the paper's pseudocode:
//!
//! * [`GlobalTimestamp`] — `globalTs`, including the relaxed (threshold-`T`)
//!   variant evaluated in Appendix A,
//! * [`Bundle`] / `BundleEntry` — Listing 1, with the *pending entry*
//!   protocol of Algorithm 2 and the `DereferenceBundle` operation; the
//!   newest entry is stored inline in the bundle, older ones on a chain,
//! * [`linearize_update`] — Algorithm 1 (`LinearizeUpdateOperation`),
//! * [`RqContext`] — the reclamation domain: one clock and one
//!   [`ebr::Collector`] that several structures can *share*, extending the
//!   paper's per-structure guarantee to linearizable range queries
//!   **across** structures (the basis of the sharded `store` crate). A
//!   thread's announced snapshot (its `activeRqTsArray` entry, Appendix B)
//!   lives in its collector slot, and [`RqContext::announce_rq`] pins
//!   before it reads the clock,
//! * [`Recycler`] — a background cleanup thread with a configurable delay,
//!   matching the Table 1 experiment,
//! * [`api`] — the `ConcurrentSet` / `RangeQuerySet` traits implemented by
//!   every data structure (bundled or competitor) in this workspace,
//! * [`TwoPhase`] / [`ShardTxn`] — the **two-phase kernel**: the store's
//!   begin / lock / snapshot-read / validate / finalize / abort protocol
//!   (stage pending entries under [`NodeLock`]s, which name their holder,
//!   validate reads, one clock advance, finalize or abort), the paper's
//!   range-query loop and bundle cleanup, written once over a small hook
//!   trait whose rustdoc is the "how to add a backend" page; with
//!   [`TwoPhaseState`], [`StagedOutcomes`], [`validate_chain`] /
//!   [`walk_chain_at`] (the two chains' shared walks) and the
//!   [`PrepareCursor`] protocol as its parts.
//!
//! The concrete bundled data structures live in the `lazylist`, `skiplist`
//! and `citrus` crates of this workspace; each implements [`TwoPhase`]'s
//! hooks next to its own traversals and the paper's primitive operations.
//!
//! ## Example
//!
//! ```
//! use bundle::{Bundle, GlobalTimestamp, linearize_update};
//! use ebr::{Collector, ReclaimMode, Shared};
//!
//! // A toy "structure": one link protected by a bundle.
//! let collector = Collector::new(1, ReclaimMode::Reclaim);
//! let guard = collector.pin(0);
//! let ts = GlobalTimestamp::new(1);
//! let bundle: Bundle<u64> = Bundle::new();
//! let a = Shared::boxed(1u64, &guard);
//! bundle.init(a, ts.read());
//!
//! // An update installs a new target for the link.
//! let b = Shared::boxed(2u64, &guard);
//! let when = linearize_update(&ts, 0, &[(&bundle, b)], || {
//!     // linearization point of the update (e.g. a pointer store)
//! });
//!
//! // A range query that started before the update keeps seeing `a`,
//! // one that starts now sees `b`.
//! assert_eq!(bundle.dereference(when - 1, &guard), Some(a));
//! assert_eq!(bundle.dereference(when, &guard), Some(b));
//! ```

pub mod api;
mod bundle_impl;
mod ctx;
mod cursor;
mod inline;
mod kernel;
mod linearize;
mod lock;
mod prefetch;
mod recycler;
mod ts;
mod twophase;

pub use bundle_impl::{Bundle, BundleIter, PENDING_TS, TOMBSTONE_TS};
/// The workspace's one cache-line padding wrapper (the `crossbeam-utils`
/// shim), re-exported so crates above the kernel pad shared words with
/// the same type instead of growing a dependency edge each.
pub use crossbeam_utils::CachePadded;
pub use ctx::{ActiveRq, ReadLease, RqContext};
pub use cursor::{CursorStats, PrepareCursor};
pub use inline::InlineStack;
pub use kernel::{
    key_value, walk_chain_at, ShardTxn, TokenPool, TwoPhase, MAX_OPTIMISTIC_ATTEMPTS,
};
pub use linearize::{linearize_update, Conflict, TxnValidateError};
pub use lock::{BundledNode, NodeLock, NodeLockGuard};
pub use prefetch::prefetch_read;
pub use recycler::Recycler;
pub use ts::GlobalTimestamp;
pub use twophase::{
    validate_chain, StagedOutcomes, TwoPhaseState, MAX_VALIDATE_ATTEMPTS, TXN_LOCK_SPINS,
};
