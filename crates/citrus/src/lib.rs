//! Citrus-style unbalanced binary search tree implementations (§6).
//!
//! The base algorithm follows Arbel & Attiya's Citrus tree: an internal
//! (unbalanced) BST with wait-free traversals, per-node locks for updates,
//! logical deletion flags, and an RCU-style *copy* of the successor when a
//! node with two children is removed (so traversals never observe a
//! half-moved key). In this reproduction the RCU read-side protection is
//! provided by the same epoch-based reclamation (`ebr` crate) every other
//! structure uses.
//!
//! * [`BundledCitrusTree`] — every child link is a bundled reference; range
//!   queries perform an in-order traversal of the snapshot subtree using
//!   only bundle dereferences (§6), so results come out in key order.
//!   Ahead of that traversal a hint-only pass (the private `warm` module)
//!   prefetches the range's subtree breadth-first, so the walk's cache
//!   misses overlap instead of queueing up one behind the other.
//! * [`UnsafeCitrusTree`] — the `Unsafe` baseline: same primitive
//!   operations, non-linearizable in-order range scan.

mod bundled;
mod unsafe_rq;
mod warm;

pub use bundled::{BundledCitrusTree, ShardCursor};
pub use unsafe_rq::UnsafeCitrusTree;

/// Child direction: left.
pub(crate) const LEFT: usize = 0;
/// Child direction: right.
pub(crate) const RIGHT: usize = 1;
