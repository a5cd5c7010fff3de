//! The prepare-cursor protocol: positional batch staging for two-phase
//! transactional writes.
//!
//! A group commit hands each structure its staged operations in ascending
//! key order, yet a point prepare (one throwaway cursor per op — the
//! pre-cursor API) rediscovers every key's position from the structure
//! root. A [`PrepareCursor`] finds positions from **hints** instead, and
//! has two sources of them:
//!
//! * **The frontier.** After each staged operation the cursor retains
//!   where the operation ended up (the locked predecessor chain in a
//!   linked list, a per-level predecessor frontier in a skip list, the
//!   last-visited ancestor spine in a tree), and the next seek resumes
//!   the search from it whenever the target key is at or beyond the
//!   current position. That turns a batch of `k` sorted keys into one
//!   root descent plus `k` forward walks, which are short when the keys
//!   are dense.
//! * **The plan.** [`PrepareCursor::plan`] tells the cursor the ascending
//!   keys its next seeks will target, before the first of them. A cursor
//!   may locate all of them at once (the skip list runs their descents in
//!   lockstep, so their cache misses overlap instead of queueing) and
//!   retain each key's position; a seek whose key is planned then resumes
//!   from its planned position instead of the frontier. This is what
//!   pays when the keys are sparse, and the frontier's forward walks
//!   are as long as a root descent. A cursor may also ignore the plan
//!   (the default, which Citrus keeps): a plan decides nothing, it is
//!   only a hint. The skip list ignores it at one level, as the lazy
//!   list: with no index to descend, a plan could only repeat the
//!   frontier's walk.
//!
//! ## Hint retention rules
//!
//! What a cursor may retain and when it must give a hint up is the
//! heart of the protocol:
//!
//! * **Lifetime.** The cursor holds one EBR pin on its structure for its
//!   whole lifetime, and both hint sources are loaded under it (a plan
//!   runs inside the cursor), so every retained raw pointer stays
//!   allocated (a node observed under the pin cannot be reclaimed while
//!   the pin is held). Retained pointers are positions, not truths — a
//!   retained node may be concurrently *unlinked*, never freed.
//! * **Locked frontier entries** (nodes whose locks the cursor's
//!   transaction holds: created nodes, no-op pins, staged predecessors)
//!   can never move or die — every structural change to a node requires
//!   its lock, and a locked node is never retired. Resuming from them
//!   needs no validation.
//! * **Unlocked entries** (upper skip-list levels, tree ancestors,
//!   positions retained by [`PrepareCursor::seek_read`], and every
//!   planned position) are *hints*: before resuming from one the cursor
//!   re-checks that it is still unmarked; a seek resumed through a hint
//!   that turns out stale is caught by the same under-lock validation
//!   every prepare already performs, and the retry **falls back to a root
//!   descent** (counted in [`CursorStats::descents`]). A planned position
//!   goes stale in the same ways a frontier does — a concurrent writer,
//!   or one of the cursor's own earlier seeks, may change the structure
//!   between the plan and the seek — and gets exactly the same checks.
//! * **Backward seeks.** A frontier only helps for targets at or beyond
//!   the retained position; a seek for a smaller key falls back to a
//!   root descent (the frontier is key-monotone, not a general index).
//!   A planned key is matched by value, so a seek for a key the plan
//!   skipped, or did not name, simply resumes from the frontier.
//!
//! ## Lock-merging invariant
//!
//! The frontier shares the transaction's lock bookkeeping
//! ([`crate::TwoPhaseState`]): a seek that reaches a node the
//! transaction already holds locked must *merge* with that lock (the
//! `holds` check) rather than re-acquire it, and the reverse-order undo
//! of `txn_abort` stays correct because retained positions never add
//! undo entries of their own — only staged operations do. Several
//! staged operations may therefore share one locked predecessor (two
//! adjacent inserts, a remove following a put) without double-locking or
//! double-unlocking it. A plan takes no locks.
//!
//! ## When a fallback descent occurs
//!
//! 1. the cursor has no hint for the key yet (first seek of an unplanned
//!    cursor),
//! 2. the target key is *behind* the frontier (backward seek) and not
//!    planned,
//! 3. a hint fails its pre-use validation (the retained node is
//!    marked), or
//! 4. an optimistic attempt resumed from a hint fails its under-lock
//!    validation (the position went stale between the walk and the
//!    lock) — the retry within the same seek restarts from the root.
//!
//! Everything else — the eager structural change, the pending bundle
//! entry, the no-op outcome pinning — is exactly the point-prepare
//! protocol; a cursor only changes how positions are *found*.

use crate::linearize::Conflict;

/// Monotonic counters of one [`PrepareCursor`]'s seek behaviour: how
/// often a hint (the retained frontier or a planned position) was actually
/// resumed versus how often a full root descent ran (first seeks, backward seeks, invalidated
/// frontiers, and validation-failure retries all count as descents).
///
/// `hinted + descents` can exceed the number of seeks: a seek that
/// resumes from a hint but loses its under-lock validation retries
/// with a root descent and contributes to both counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CursorStats {
    /// Seek attempts that resumed the search from a hint: the retained
    /// frontier or a planned position.
    pub hinted: u64,
    /// Seek attempts that performed a full root descent.
    pub descents: u64,
}

impl CursorStats {
    /// Fraction of seek attempts that resumed from a hint
    /// (`0.0` when nothing was sought).
    #[must_use]
    pub fn hint_rate(&self) -> f64 {
        let total = self.hinted + self.descents;
        if total == 0 {
            0.0
        } else {
            self.hinted as f64 / total as f64
        }
    }
}

/// A prepare cursor over one transaction token: the positional batch
/// staging surface of the two-phase commit protocol (see the module
/// docs for the hint retention rules).
///
/// A cursor is obtained from a structure's `txn_cursor(txn)` (or through
/// the store's `ShardBackend::txn_cursor`), consumes seeks for keys in
/// (ideally) ascending order, and gives the accumulated transaction
/// token back through [`PrepareCursor::finish`] — which the caller then
/// commits (`txn_finalize`) or rolls back (`txn_abort`) exactly as
/// before. Seeks in *descending* order are legal but pay a root descent
/// each.
///
/// On [`Conflict`] from any seek the whole transaction must be aborted
/// (finish the cursor, then `txn_abort` the token), exactly like a
/// conflicting point prepare.
pub trait PrepareCursor<K, V> {
    /// The transaction token type this cursor accumulates into.
    type Txn;

    /// Stage an insert at the sought position; `Ok(false)` = key already
    /// present (no-op, present node pinned until commit). Identical
    /// semantics to a one-op point prepare, minus the root descent when
    /// a hint reaches the key.
    fn seek_prepare_put(&mut self, key: K, value: V) -> Result<bool, Conflict>;

    /// Stage a remove; `Ok(false)` = key absent (no-op, gap pinned until
    /// commit). Identical semantics to a one-op point prepare.
    fn seek_prepare_remove(&mut self, key: &K) -> Result<bool, Conflict>;

    /// Tell the cursor that its next seeks target `keys` (ascending). It
    /// may locate them now, all at once, and resume each planned seek from
    /// its planned position; it takes no lock and stages nothing, and a
    /// planned key that is never sought, or a sought key missing from the
    /// plan, changes no outcome. A new plan replaces the previous one. The
    /// default ignores the plan.
    fn plan(&mut self, keys: &[K]) {
        let _ = keys;
    }

    /// Read `key`'s current value through the frontier, over the newest
    /// pointers — the transaction's own eager writes are visible. Takes
    /// no locks and stages nothing; the located position is retained as
    /// an *unlocked* frontier hint for subsequent seeks.
    fn seek_read(&mut self, key: &K) -> Option<V>;

    /// Hinted-resume vs root-descent counters accumulated so far.
    #[must_use]
    fn stats(&self) -> CursorStats;

    /// Give the transaction token back (releasing the cursor's EBR pin
    /// and dropping the frontier); the token still holds every lock and
    /// pending entry and must be consumed by exactly one of
    /// `txn_finalize` / `txn_abort`.
    #[must_use]
    fn finish(self) -> Self::Txn;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_rate_is_resumed_fraction() {
        let mut s = CursorStats::default();
        assert_eq!(s.hint_rate(), 0.0, "no seeks yet");
        s.hinted = 3;
        s.descents = 1;
        assert!((s.hint_rate() - 0.75).abs() < 1e-12);
    }
}
