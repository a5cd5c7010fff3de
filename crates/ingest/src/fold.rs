//! Same-key coalescing: folding the queue-ordered operations of one group
//! into a single *effective* store op per key, and replaying the queue
//! order afterwards to recover every submission's individual outcome.
//!
//! A group may contain several operations on the same key, submitted by
//! different sessions. The committer serializes them in queue order, but
//! the store's grouped-apply path stages **one** op per key (two prepares
//! of one key inside one shard token would contend on the transaction's
//! own node locks). The fold exploits that the whole sequence's final
//! state — and every individual outcome — is a function of just one
//! unknown: whether the key was present when the group committed
//! (`present₀`).
//!
//! Tracking both hypothetical branches (`present₀ = true` starts from the
//! key's *original* value, `present₀ = false` from absent) through the op
//! sequence shows only three shapes survive:
//!
//! * **all `Put`s** — the true-branch keeps the original value, the
//!   false-branch holds the first put's value: exactly the semantics of a
//!   single `Put(first value)`;
//! * otherwise the branches converge at the first `Set`/`Remove` and stay
//!   converged, so simulating the absent-start branch yields the common
//!   final state: **present with `v`** ⇒ effective `Set(v)`, **absent** ⇒
//!   effective `Remove`.
//!
//! In every shape the staged effective op's result bit reveals
//! `present₀` (`Put` reports `inserted = !present₀`; `Set` reports
//! `existed = present₀`; `Remove` reports `removed = present₀`), after which
//! [`replay_outcomes`] walks the queue order once to produce each
//! submission's result. Intermediate states are never observable: the
//! whole group publishes at one timestamp, so the fold changes nothing a
//! snapshot could distinguish.

use store::TxnOp;

/// Fold a non-empty queue-ordered same-key op sequence into the single
/// effective op the store stages for this key (see the module docs).
/// One pass, no allocation: the committer calls this per duplicated key.
pub(crate) fn effective_op<'a, K: Copy + Ord + 'a, V: Clone + 'a>(
    key: K,
    seq: impl Iterator<Item = &'a TxnOp<K, V>>,
) -> TxnOp<K, V> {
    // Simulate the absent-start branch. With at least one Set/Remove
    // both presence branches converge there, so it yields the common
    // final state; with puts only it ends holding the *first* put's
    // value — the only put that can take effect, and only if the key is
    // absent, which is exactly a single Put's contract.
    let mut all_puts = true;
    let mut state: Option<&V> = None;
    for op in seq {
        debug_assert!(*op.key() == key);
        match op {
            TxnOp::Put(_, v) => {
                if state.is_none() {
                    state = Some(v);
                }
            }
            TxnOp::Set(_, v) => {
                all_puts = false;
                state = Some(v);
            }
            TxnOp::Remove(_) => {
                all_puts = false;
                state = None;
            }
        }
    }
    debug_assert!(
        state.is_some() || !all_puts,
        "an empty sequence has no effective op"
    );
    match state {
        Some(v) if all_puts => TxnOp::Put(key, v.clone()),
        Some(v) => TxnOp::Set(key, v.clone()),
        None => TxnOp::Remove(key),
    }
}

/// Recover `present₀` (was the key present when the group committed?)
/// from the effective op that was staged and the result bit the store
/// reported for it.
pub(crate) fn initial_presence<K, V>(effective: &TxnOp<K, V>, result: bool) -> bool {
    match effective {
        TxnOp::Put(_, _) => !result, // inserted ⇔ was absent
        TxnOp::Set(_, _) => result,  // reports "existed"
        TxnOp::Remove(_) => result,  // removed ⇔ was present
    }
}

/// Replay one key's queue-ordered op sequence against the recovered
/// initial presence, yielding each op's individual outcome bit (`true` =
/// the put inserted / the remove removed / the set replaced) in queue
/// order.
pub(crate) fn replay_outcomes<'a, K: 'a, V: 'a>(
    present0: bool,
    seq: impl Iterator<Item = &'a TxnOp<K, V>> + 'a,
) -> impl Iterator<Item = bool> + 'a {
    let mut present = present0;
    seq.map(move |op| match op {
        TxnOp::Put(_, _) => {
            let applied = !present;
            present = true;
            applied
        }
        TxnOp::Set(_, _) => {
            let existed = present;
            present = true;
            existed
        }
        TxnOp::Remove(_) => {
            let removed = present;
            present = false;
            removed
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: apply the sequence literally against an optional value and
    /// collect outcomes + final state.
    fn oracle(start: Option<u64>, seq: &[&TxnOp<u64, u64>]) -> (Vec<bool>, Option<u64>) {
        let mut state = start;
        let outcomes = seq
            .iter()
            .map(|op| match op {
                TxnOp::Put(_, v) => {
                    if state.is_none() {
                        state = Some(*v);
                        true
                    } else {
                        false
                    }
                }
                TxnOp::Set(_, v) => {
                    let existed = state.is_some();
                    state = Some(*v);
                    existed
                }
                TxnOp::Remove(_) => state.take().is_some(),
            })
            .collect();
        (outcomes, state)
    }

    /// What the staged effective op leaves behind, given the start state.
    fn apply_effective(start: Option<u64>, effective: &TxnOp<u64, u64>) -> (bool, Option<u64>) {
        match effective {
            TxnOp::Put(_, v) => match start {
                None => (true, Some(*v)),
                Some(old) => (false, Some(old)),
            },
            TxnOp::Set(_, v) => (start.is_some(), Some(*v)),
            TxnOp::Remove(_) => (start.is_some(), None),
        }
    }

    #[test]
    fn fold_matches_literal_replay_on_every_short_sequence() {
        // Exhaustively check every op sequence up to length 3 (op kinds
        // Put/Set/Remove with distinct values), against both start states.
        let kinds = |i: usize, v: u64| -> TxnOp<u64, u64> {
            match i {
                0 => TxnOp::Put(5, 100 + v),
                1 => TxnOp::Set(5, 200 + v),
                _ => TxnOp::Remove(5),
            }
        };
        for len in 1..=3usize {
            let mut idx = vec![0usize; len];
            loop {
                let ops: Vec<TxnOp<u64, u64>> = idx
                    .iter()
                    .enumerate()
                    .map(|(pos, &k)| kinds(k, pos as u64))
                    .collect();
                let seq: Vec<&TxnOp<u64, u64>> = ops.iter().collect();
                let effective = effective_op(5, seq.iter().copied());
                for start in [None, Some(77u64)] {
                    let (want_outcomes, want_state) = oracle(start, &seq);
                    let (result, got_state) = apply_effective(start, &effective);
                    // The staged effective op must leave the key exactly
                    // as the literal replay would...
                    assert_eq!(
                        got_state, want_state,
                        "seq {ops:?} from {start:?}: folded final state diverged"
                    );
                    // ...and its result bit must recover the start state...
                    assert_eq!(
                        initial_presence(&effective, result),
                        start.is_some(),
                        "seq {ops:?} from {start:?}: presence recovery"
                    );
                    // ...from which the replay reproduces every outcome.
                    assert_eq!(
                        replay_outcomes(start.is_some(), seq.iter().copied()).collect::<Vec<_>>(),
                        want_outcomes,
                        "seq {ops:?} from {start:?}: replayed outcomes"
                    );
                }
                // Next index vector.
                let mut c = 0;
                while c < len {
                    idx[c] += 1;
                    if idx[c] < 3 {
                        break;
                    }
                    idx[c] = 0;
                    c += 1;
                }
                if c == len {
                    break;
                }
            }
        }
    }
}
