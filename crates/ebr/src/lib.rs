//! Epoch-based memory reclamation (EBR) in the style of DEBRA.
//!
//! The bundled-references paper (§7 and Appendix B) relies on epoch-based
//! reclamation both to free physically-removed data structure nodes and to
//! recycle bundle entries that are no longer needed by any active range
//! query. This crate is that substrate, implemented from scratch:
//!
//! * a [`Collector`] owns a global epoch counter and one cache-padded slot
//!   per registered thread; the slot also holds the thread's announced
//!   range-query snapshot (the paper's `activeRqTsArray`), so one
//!   collector is the whole reclamation domain of every structure that
//!   shares a clock (`bundle::RqContext` owns it); constructors and drops
//!   pin through a reserved slot ([`Collector::pin_exclusive`]),
//! * a thread *pins* the collector around every data structure operation,
//!   producing a [`Guard`]; while pinned, no object retired during the
//!   thread's observed epoch (or later) will be freed,
//! * removed objects are *retired* into a per-thread limbo list (as in
//!   DEBRA, limbo lists are thread-local to avoid contention on shared
//!   free-lists) and freed once two epoch advances have passed,
//! * a [`ReclaimMode::Leaky`] mode disables freeing entirely, matching the
//!   configuration the paper uses for its primary experiments ("the
//!   experiments in Section 8 were performed without enabling memory
//!   reclamation").
//!
//! # The invariant, and its two unsafe entry points
//!
//! Nodes are reached only through [`Link`]s, and a [`Link::load`] under a
//! [`Guard`] yields a [`Shared`] that dereferences safely for as long as
//! that guard lives: **a node is freed only after it is unreachable from
//! every link and every guard that could have loaded it is gone.** Two
//! operations set that invariant up, and they are the only `unsafe` a
//! structure built on this crate needs for its traversals:
//!
//! * [`Guard::retire`] — the caller promises the node is unreachable from
//!   every `Link`, and that any bundle entry still pointing at it is older
//!   than its removal timestamp (so only snapshots that pinned before the
//!   removal can follow it — which the collector waits out);
//! * [`Shared::from_raw`] — re-admits a raw pointer kept across calls (a
//!   node a transaction holds locked, a cursor frontier, an undo record)
//!   under a guard the caller proves it is still covered by.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::Ordering;
//! use ebr::{Collector, Link, ReclaimMode, Shared};
//!
//! let collector = Collector::new(2, ReclaimMode::Reclaim);
//! let guard = collector.pin(0);
//! let link = Link::new(Shared::boxed(42u64, &guard));
//! let node = link.load(Ordering::Acquire, &guard);
//! assert_eq!(*node, 42);
//! // Unlink, then retire: freed once no guard pinned before can see it.
//! link.store(Shared::null(), Ordering::Release);
//! unsafe { guard.retire(node.as_raw()) };
//! drop(guard);
//! collector.try_advance();
//! collector.try_advance();
//! assert!(collector.stats().freed() <= collector.stats().retired());
//! ```

mod collector;
mod link;
mod retired;
mod stats;

pub use collector::{Collector, Guard, ReclaimMode};
pub use link::{Link, Shared};
pub use stats::Stats;
