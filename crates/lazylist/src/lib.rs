//! Lazy sorted linked list implementations (§4 of the paper).
//!
//! The lazy list [Heller et al., OPODIS 2005] is the paper's illustrative
//! data structure: wait-free `contains`, fine-grained locking updates. This
//! crate provides:
//!
//! * [`BundledLazyList`] — the paper's contribution applied to the lazy
//!   list: every `next` link is backed by a [`bundle::Bundle`], updates run
//!   through `LinearizeUpdateOperation` (Algorithm 1/4), and range queries
//!   traverse the snapshot path defined by their starting timestamp
//!   (Algorithm 3).
//! * [`UnsafeLazyList`] — the paper's *Unsafe* reference point: identical
//!   primitive operations, but range queries traverse the current pointers
//!   with no consistency guarantee.
//!
//! All variants implement [`bundle::api::ConcurrentSet`] and
//! [`bundle::api::RangeQuerySet`] so the benchmark harness can drive them
//! interchangeably. The EBR-RQ and RLU competitor variants live in their
//! respective modules and are gated on those substrates.

mod bundled;
mod unsafe_rq;

pub use bundled::{BundledLazyList, ShardCursor};
pub use unsafe_rq::UnsafeLazyList;
