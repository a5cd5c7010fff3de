//! Lazy skip list implementations (§5 of the paper).
//!
//! The base algorithm is the optimistic lazy skip list of Herlihy, Lev,
//! Luchangco and Shavit (SIROCCO 2007): wait-free `contains`, fine-grained
//! locking updates, logical deletion, and a `fullyLinked` flag that marks
//! the linearization point of insertions.
//!
//! * [`BundledSkipList`] applies bundled references to the bottom (data)
//!   layer only — the paper's optimization: index layers are used to reach
//!   the range quickly, bundles are used to traverse it consistently.
//! * [`UnsafeSkipList`] is the paper's `Unsafe` baseline: identical
//!   primitive operations, non-linearizable range scans over the data
//!   layer.

mod bundled;
mod unsafe_rq;

pub use bundled::{BundledSkipList, ShardCursor};
pub use unsafe_rq::UnsafeSkipList;

/// Number of levels in every tower array (level 0 is the data layer).
pub const MAX_LEVEL: usize = 20;
