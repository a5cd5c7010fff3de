//! The lazy list (§4 of the paper) as the lazy skip list at one level.
//!
//! The skip list bundles only its data-layer link (§5), so a tower of
//! height 1 has the bundled lazy list's shape: one `next`, one
//! [`bundle::Bundle`], one [`bundle::NodeLock`] and the mark. This crate
//! compiles the `skiplist` crate's source with [`MAX_LEVEL`] = 1:
//!
//! * [`BundledLazyList`] — bundled references on the list's one link:
//!   updates run through `LinearizeUpdateOperation` (Algorithm 1/4), range
//!   queries traverse the snapshot path defined by their starting
//!   timestamp (Algorithm 3).
//! * [`UnsafeLazyList`] — the paper's *Unsafe* reference point: the same
//!   primitives (with a `parking_lot` lock), range queries over the current
//!   pointers with no consistency guarantee.
//!
//! At one level the skip list's algorithms are Heller et al.'s (OPODIS
//! 2005): lock the predecessor, validate that it is unmarked and still
//! links to the successor, link; mark, then unlink. What the lazy skip
//! list adds is `fully_linked`, set once an insert has linked its node:
//! `contains`, the validations and the cursor's frontier also require it.
//! At one level that only moves an insert's linearization point from its
//! link store to the flag store that follows it (inside
//! `linearize_update` for a primitive insert). With the flag and the
//! tower height the node of a `u64` / `u64` list grows from 80 to 88
//! bytes; glibc's malloc gives both sizes a 96-byte chunk. Every tower
//! height is clamped to 0, and [`bundle::PrepareCursor::plan`] is a
//! no-op: with no index to descend, a plan could only repeat the cursor's
//! frontier walk.
//!
//! Both types implement [`bundle::api::ConcurrentSet`] and
//! [`bundle::api::RangeQuerySet`] so the benchmark harness can drive them
//! interchangeably.

#[path = "../../skiplist/src/bundled.rs"]
mod bundled;
#[path = "../../skiplist/src/unsafe_rq.rs"]
mod unsafe_rq;

pub use bundled::ShardCursor;

/// Number of levels in every tower array: the data layer alone.
pub const MAX_LEVEL: usize = 1;

/// The bundled lazy list: the bundled skip list at one level.
pub type BundledLazyList<K, V> = bundled::BundledSkipList<K, V>;

/// The *Unsafe* lazy list baseline: the Unsafe skip list at one level.
pub type UnsafeLazyList<K, V> = unsafe_rq::UnsafeSkipList<K, V>;
