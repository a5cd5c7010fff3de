//! Structure-agnostic core of a two-phase (transactional) update: the
//! bookkeeping inside every [`crate::ShardTxn`].
//!
//! A multi-key transaction on one structure accumulates three kinds of
//! state while it prepares: the **node locks** it holds (until commit or
//! abort), the **pending bundle entries** it has installed (all finalized
//! with one commit timestamp, or neutralized on abort), and the nodes it
//! has created or unlinked (retired through EBR by the winning path).
//! That bookkeeping — plus the bounded `try_lock` discipline that keeps
//! transactions deadlock-free against each structure's own lock order,
//! and the merge-on-own-pending rule that prevents self-deadlock when one
//! transaction updates the same link twice — is identical across the lazy
//! list, skip list, and Citrus tree. [`TwoPhaseState`] implements it
//! once; the structure crates layer their traversal, validation, and undo
//! logs on top.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use parking_lot::{Mutex, MutexGuard};

use crate::bundle_impl::{Bundle, PendingEntry};
use crate::kernel::TwoPhase;
use crate::linearize::{Conflict, TxnValidateError};

/// `try_lock` attempts a two-phase prepare makes on a contended node lock
/// before declaring [`Conflict`] (the whole transaction then aborts and
/// retries, which is what keeps mixed transactional/primitive traffic
/// deadlock-free: the per-structure lock orders cannot be made globally
/// consistent with key-ordered two-phase locking).
pub const TXN_LOCK_SPINS: usize = 64;

/// Multiplicative hasher for node/bundle *addresses* (already
/// well-distributed), replacing SipHash in the per-transaction lock and
/// pending maps: those maps are probed once per staged op, on the
/// committer thread that serializes every group, so shaving the hash
/// matters at super-batch sizes.
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0 ^ i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_right(17);
    }
}

type AddrSet = HashSet<usize, BuildHasherDefault<AddrHasher>>;
type AddrMap = HashMap<usize, usize, BuildHasherDefault<AddrHasher>>;

/// Shared two-phase bookkeeping over nodes of type `N`.
///
/// The state is **reusable**: [`TwoPhaseState::finalize`] and
/// [`TwoPhaseState::abort`] leave it empty with every buffer's capacity
/// kept, which is what lets the kernel keep one warm token per thread
/// ([`crate::TokenPool`]) instead of rebuilding four vectors and two hash
/// tables for a transaction that locks a handful of nodes.
///
/// Raw-pointer soundness contract (upheld by the structure crates): every
/// pointer pushed into the state refers to a node that stays allocated
/// while the state holds its lock — a locked node can never be retired,
/// because every remover must acquire its victim's lock first.
pub struct TwoPhaseState<N> {
    tid: usize,
    /// Held node locks in acquisition order. The guards borrow through
    /// raw node pointers, so their lifetime is unconstrained; see the
    /// soundness contract above.
    locks: Vec<(*mut N, MutexGuard<'static, ()>)>,
    /// Addresses of the held locks, for O(1) [`TwoPhaseState::holds`]
    /// checks — a group-commit super-batch stages hundreds of ops into
    /// one state, and every prepare probes lock ownership, so a linear
    /// scan here made batch prepares quadratic.
    lock_set: AddrSet,
    /// Pending bundle entries in installation order, so a second write
    /// to the same link merges instead of self-deadlocking on its own
    /// pending head.
    pendings: Vec<(usize, PendingEntry<N>)>,
    /// Bundle address -> index into `pendings` (O(1) merge lookups; same
    /// quadratic-batch story as `lock_set`).
    pending_idx: AddrMap,
    /// Nodes unlinked by staged removes; retired on commit.
    victims: Vec<*mut N>,
    /// Nodes created by staged inserts; retired on abort.
    created: Vec<*mut N>,
}

impl<N> TwoPhaseState<N> {
    /// Empty state for thread `tid`.
    pub fn new(tid: usize) -> Self {
        TwoPhaseState {
            tid,
            locks: Vec::new(),
            lock_set: AddrSet::default(),
            pendings: Vec::new(),
            pending_idx: AddrMap::default(),
            victims: Vec::new(),
            created: Vec::new(),
        }
    }

    /// The dense thread id the transaction runs as.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// `true` if the transaction already holds `node`'s lock.
    #[must_use]
    pub fn holds(&self, node: *mut N) -> bool {
        self.lock_set.contains(&(node as usize))
    }

    /// Record a lock acquired out-of-band (e.g. the uncontended `lock()`
    /// of a node the transaction just created).
    pub fn push_lock(&mut self, node: *mut N, guard: MutexGuard<'static, ()>) {
        self.lock_set.insert(node as usize);
        self.locks.push((node, guard));
    }

    /// Release the `n` most recently acquired locks (failed-validation
    /// rewind; the popped guards unlock on drop).
    pub fn unlock_latest(&mut self, n: usize) {
        for _ in 0..n {
            if let Some((node, _)) = self.locks.pop() {
                self.lock_set.remove(&(node as usize));
            }
        }
    }

    /// Acquire `node`'s lock for the transaction unless already held;
    /// `Ok(true)` = newly acquired (and pushed, so an abort releases it).
    /// Bounded `try_lock`: contention surfaces as [`Conflict`] instead of
    /// risking a deadlock cycle with a primitive operation blocked on one
    /// of our locks.
    ///
    /// # Safety
    ///
    /// `mutex` must be the lock embedded in `*node`, and `node` must obey
    /// the state's soundness contract (alive while locked).
    pub unsafe fn lock(&mut self, node: *mut N, mutex: *const Mutex<()>) -> Result<bool, Conflict> {
        if self.holds(node) {
            return Ok(false);
        }
        let mutex: &'static Mutex<()> = &*mutex;
        for _ in 0..TXN_LOCK_SPINS {
            if let Some(guard) = mutex.try_lock() {
                self.push_lock(node, guard);
                return Ok(true);
            }
            std::hint::spin_loop();
        }
        Err(Conflict)
    }

    /// Install (or merge into) the transaction's pending entry on
    /// `bundle`. The caller must hold the lock of the node owning
    /// `bundle`, which guarantees any pending head already present is this
    /// transaction's own (primitive updates only touch a bundle under its
    /// node's lock).
    pub fn prepare_bundle(&mut self, bundle: &Bundle<N>, ptr: *mut N) {
        let addr = bundle as *const _ as usize;
        match self.pending_idx.entry(addr) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.pendings[*e.get()].1.set_ptr(ptr);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.pendings.len());
                self.pendings.push((addr, bundle.prepare(ptr)));
            }
        }
    }

    /// Record a node unlinked by a staged remove (retire on commit).
    pub fn add_victim(&mut self, node: *mut N) {
        self.victims.push(node);
    }

    /// Record a node created by a staged insert (retire on abort).
    pub fn add_created(&mut self, node: *mut N) {
        self.created.push(node);
    }

    /// `true` when nothing has been staged or locked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty() && self.pendings.is_empty()
    }

    /// Commit half: finalize every pending entry with the transaction's
    /// single timestamp, release the locks, then hand each victim to
    /// `retire` (the caller retires them under its EBR guard). Leaves the
    /// state empty and reusable.
    pub fn finalize(&mut self, ts: u64, retire: impl FnMut(*mut N)) {
        for (_, pe) in self.pendings.drain(..) {
            pe.finalize(ts);
        }
        self.release_locks();
        self.victims.drain(..).for_each(retire);
        self.created.clear();
    }

    /// Abort half: neutralize every pending entry (entries with history
    /// become invisible duplicates, first entries of created nodes become
    /// tombstones), release the locks, then hand each created node to
    /// `retire`. The caller must have reverted its structural changes
    /// *before* calling this — neutralization is what releases snapshot
    /// readers spinning on the pendings, and they must observe the
    /// restored physical state. Leaves the state empty and reusable.
    pub fn abort(&mut self, retire: impl FnMut(*mut N)) {
        for (_, pe) in self.pendings.drain(..) {
            pe.abort();
        }
        self.release_locks();
        self.created.drain(..).for_each(retire);
        self.victims.clear();
    }

    /// Unlock in acquisition order and forget the index tables (after the
    /// pendings are resolved: a waiter on one of these locks must find the
    /// entries final).
    fn release_locks(&mut self) {
        self.locks.clear();
        self.lock_set.clear();
        self.pending_idx.clear();
    }
}

/// Per-key pre/post images of one transaction's *staged writes* on one
/// structure, recorded by the prepare phase and consumed by the validate
/// phase of a read-write transaction.
///
/// Each entry maps a written key to the node that held it just before the
/// transaction staged anything for it (`pre`, `None` = absent) and the
/// node that holds it in the *current, eagerly modified* structure (`now`,
/// `None` = structurally removed). Node addresses are opaque `usize`s so
/// the bookkeeping is node-type agnostic; the structure crates own the
/// pointers and keep them alive (prepared nodes are locked until commit,
/// and the transaction layer holds an EBR guard across its lifetime).
///
/// Why validation needs this: reads are answered at a leased snapshot
/// timestamp *before* the writes prepare, but the validate pass walks the
/// structure *after* the eager structural changes. `expected_now` bridges
/// the two views — it projects what the walk should find given that the
/// recorded read was current, so any difference is a genuine intervening
/// commit (a stale read), not the transaction tripping over its own
/// writes. Nodes are immutable once created (updates are staged as
/// remove-then-insert), so node identity doubles as value identity.
#[derive(Debug)]
pub struct StagedOutcomes<K> {
    /// `(key, pre-txn node, current node)`, ascending by key, at most one
    /// entry per key (later stagings of the same key update `now`, keep
    /// the first `pre`). A sorted vector, not a map: stagings arrive in
    /// key order (the commit pipeline sorts its ops, and a cursor stages
    /// them in that order), so recording is a push — the one exception, a
    /// Citrus two-children remove recording the relocated successor ahead
    /// of later keys, pays a binary-search insert — and a warm token
    /// records without allocating.
    entries: Vec<(K, Option<usize>, Option<usize>)>,
    /// The last [`StagedOutcomes::expected_now`] projection — one buffer
    /// reused by every validate call of the transaction on this
    /// structure.
    projected: Vec<(K, usize)>,
    /// `false` for write-only pipelines (no read set, no validate phase):
    /// [`StagedOutcomes::record`] becomes a no-op, sparing every staged
    /// op a record that nothing will ever read. Group commits and
    /// `multi_put`-style batches run in this mode.
    recording: bool,
}

impl<K: Copy + Ord> Default for StagedOutcomes<K> {
    /// Same as [`StagedOutcomes::new`]: records images.
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> StagedOutcomes<K> {
    /// Empty outcome set that records images (read-write transactions).
    pub fn new() -> Self {
        StagedOutcomes {
            entries: Vec::new(),
            projected: Vec::new(),
            recording: true,
        }
    }

    /// Outcome set for a **write-only** pipeline: nothing will validate,
    /// so nothing is recorded. [`StagedOutcomes::expected_now`] must not
    /// be called on it (debug-asserted).
    pub fn disabled() -> Self {
        StagedOutcomes {
            recording: false,
            ..Self::new()
        }
    }

    /// Forget every image, keep the buffers, and set the mode of the next
    /// transaction (`recording = false` is [`StagedOutcomes::disabled`]).
    pub fn reset(&mut self, recording: bool) {
        self.entries.clear();
        self.projected.clear();
        self.recording = recording;
    }

    /// Index of `key`'s entry, or where it would be inserted.
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.0.cmp(key))
    }

    /// Record one staged write's images. A second staging of the same key
    /// (e.g. the insert half of an upsert after its remove half) keeps the
    /// original `pre` and replaces `now`. No-op for a
    /// [`StagedOutcomes::disabled`] set.
    pub fn record(&mut self, key: K, pre: Option<usize>, now: Option<usize>) {
        if !self.recording {
            return;
        }
        match self.entries.last_mut() {
            Some(last) if last.0 == key => last.2 = now,
            Some(last) if last.0 > key => match self.position(&key) {
                Ok(i) => self.entries[i].2 = now,
                Err(i) => self.entries.insert(i, (key, pre, now)),
            },
            _ => self.entries.push((key, pre, now)),
        }
    }

    /// Number of distinct staged keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The validate-phase verdict for a **single-key** read (`low == high`)
    /// of a key this transaction also staged a write for, decided from
    /// the staged images alone — `None` when the read is a range or the
    /// key was not written (the caller walks and locks as usual).
    ///
    /// Sound without a walk because the prepare already holds the lock
    /// that pins the key until finalize/abort (no-op outcome pinning): the
    /// present node for an insert that found the key, the victim and its
    /// predecessor for a remove, the gap parent for a remove that missed
    /// or an insert that linked a new node. So the only thing left to
    /// check is the window *before* the prepare: the read is current iff
    /// the node it recorded is the prepare's `pre` image (both absent, or
    /// the same immutable node); anything else is a foreign commit to the
    /// key between the leased read and the prepare —
    /// [`TxnValidateError::Invalidated`]. This is exactly the per-key
    /// check [`StagedOutcomes::expected_now`] makes; the walk it would
    /// feed could only re-find the transaction's own locked `now` image.
    pub fn covered_read(
        &self,
        low: &K,
        high: &K,
        recorded: &[(K, usize)],
    ) -> Option<Result<(), TxnValidateError>> {
        if low != high {
            return None;
        }
        let pre = self.entries[self.position(low).ok()?].1;
        debug_assert!(recorded.len() <= 1 && recorded.iter().all(|e| e.0 == *low));
        Some(if recorded.first().map(|e| e.1) == pre {
            Ok(())
        } else {
            Err(TxnValidateError::Invalidated)
        })
    }

    /// Project the `(key, node)` list a validate-phase walk of the current
    /// (eagerly modified) structure should find in `low..=high`, given
    /// that `recorded` — the committed content of that range at the
    /// transaction's read timestamp, in ascending key order — is still
    /// current.
    ///
    /// For every staged key inside the range, the recorded read and the
    /// prepare's `pre` image must agree (both saw the key absent, or both
    /// saw the *same* node); a disagreement means a foreign update
    /// committed between the read and the prepare, so the read set is
    /// stale ([`TxnValidateError::Invalidated`]). Agreeing entries are
    /// substituted by their `now` image. One merge pass over the two
    /// sorted inputs into a buffer the outcome set keeps and reuses; the
    /// returned slice is valid until the next call.
    pub fn expected_now(
        &mut self,
        low: &K,
        high: &K,
        recorded: &[(K, usize)],
    ) -> Result<&[(K, usize)], TxnValidateError> {
        debug_assert!(
            self.recording,
            "a write-only (disabled) outcome set recorded nothing to project"
        );
        let out = &mut self.projected;
        out.clear();
        let mut rec = recorded.iter().copied().peekable();
        let from = self.entries.partition_point(|e| e.0 < *low);
        let staged = self.entries[from..].iter().take_while(|e| e.0 <= *high);
        for (key, pre, now) in staged {
            while let Some(e) = rec.next_if(|e| e.0 < *key) {
                out.push(e);
            }
            if rec.next_if(|e| e.0 == *key).map(|e| e.1) != *pre {
                return Err(TxnValidateError::Invalidated);
            }
            if let Some(n) = now {
                out.push((*key, *n));
            }
        }
        out.extend(rec);
        Ok(out)
    }
}

/// Walk attempts a validation pass makes before conceding a conflict
/// (each retry re-traverses after a torn observation, e.g. a node removed
/// between the walk reaching it and locking it).
pub const MAX_VALIDATE_ATTEMPTS: usize = 8;

/// Shared validate-phase walk over a *chain-shaped* level of a structure
/// (the lazy list; the skip list's data layer): re-locate the range's gap
/// predecessor, lock it and every in-range node (bounded `try_lock`
/// through `core`, so contention surfaces as
/// [`TxnValidateError::Conflict`]), re-checking linkage under each lock,
/// and compare the found `(key, node)` list against `expected` (the
/// recorded read projected through the transaction's [`StagedOutcomes`]).
/// Torn observations retry up to [`MAX_VALIDATE_ATTEMPTS`] times; a
/// stable mismatch is a foreign commit inside the range —
/// [`TxnValidateError::Invalidated`]. On success the acquired locks stay
/// in `core` (held until finalize/abort), which is what pins the
/// validated range at the commit timestamp.
///
/// Node locks and keys come from the structure's [`TwoPhase`] hooks; the
/// rest of its specifics are closures: `locate` returns `(gap predecessor,
/// first candidate)` for the range's lower bound; `pred_valid`
/// re-validates the located pair; `step` checks `curr` is validly linked
/// after `prev` under the just-acquired lock and yields its successor —
/// or `None` for a torn observation.
///
/// # Safety
///
/// Every pointer produced by `locate`/`step` (and `tail`) is reachable
/// while the caller's EBR pin is live (a locked node is never retired).
pub unsafe fn validate_chain<S: TwoPhase>(
    core: &mut TwoPhaseState<S::Node>,
    expected: &[(S::Key, usize)],
    high: &S::Key,
    tail: *mut S::Node,
    mut locate: impl FnMut() -> (*mut S::Node, *mut S::Node),
    mut pred_valid: impl FnMut(*mut S::Node, *mut S::Node) -> bool,
    mut step: impl FnMut(*mut S::Node, *mut S::Node) -> Option<*mut S::Node>,
) -> Result<(), TxnValidateError> {
    let lock =
        |core: &mut TwoPhaseState<S::Node>, node: *mut S::Node| core.lock(node, S::lock_of(&*node));
    'attempt: for _ in 0..MAX_VALIDATE_ATTEMPTS {
        let mut newly = 0usize;
        let (pred, first) = locate();
        match lock(core, pred) {
            Ok(true) => newly += 1,
            Ok(false) => {}
            Err(Conflict) => return Err(TxnValidateError::Conflict),
        }
        if !pred_valid(pred, first) {
            core.unlock_latest(newly);
            if newly == 0 {
                // A node the transaction already holds cannot be
                // invalidated by others; surface the impossible as a
                // conflict instead of spinning.
                return Err(TxnValidateError::Conflict);
            }
            continue;
        }
        // Compared against `expected` in place (no per-attempt buffer);
        // the verdict still waits for the walk to finish, because a torn
        // observation further on must retry rather than invalidate.
        let (mut found, mut same) = (0usize, true);
        let mut prev = pred;
        let mut curr = first;
        while curr != tail && S::entry(&*curr).0 <= *high {
            match lock(core, curr) {
                Ok(true) => newly += 1,
                Ok(false) => {}
                Err(Conflict) => {
                    core.unlock_latest(newly);
                    return Err(TxnValidateError::Conflict);
                }
            }
            // Re-check linkage under the lock: a node that got removed
            // (or whose predecessor link moved) between the walk reaching
            // it and locking it is a torn observation, not a verdict.
            let Some(next) = step(prev, curr) else {
                core.unlock_latest(newly);
                continue 'attempt;
            };
            same &= expected.get(found) == Some(&(S::entry(&*curr).0, curr as usize));
            found += 1;
            prev = curr;
            curr = next;
        }
        if !same || found != expected.len() {
            core.unlock_latest(newly);
            return Err(TxnValidateError::Invalidated);
        }
        return Ok(());
    }
    Err(TxnValidateError::Conflict)
}

impl<N> std::fmt::Debug for TwoPhaseState<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoPhaseState")
            .field("tid", &self.tid)
            .field("locks", &self.locks.len())
            .field("pendings", &self.pendings.len())
            .field("victims", &self.victims.len())
            .field("created", &self.created.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cell {
        lock: Mutex<()>,
        bundle: Bundle<Cell>,
    }

    #[test]
    fn lock_tracking_and_merge() {
        let a = Box::into_raw(Box::new(Cell {
            lock: Mutex::new(()),
            bundle: Bundle::new(),
        }));
        let b = Box::into_raw(Box::new(Cell {
            lock: Mutex::new(()),
            bundle: Bundle::new(),
        }));
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(3);
        assert_eq!(st.tid(), 3);
        assert!(st.is_empty());
        unsafe {
            assert_eq!(st.lock(a, &(*a).lock), Ok(true));
            assert_eq!(st.lock(a, &(*a).lock), Ok(false), "re-lock is a no-op");
            // A contended lock conflicts instead of blocking.
            let held = (*b).lock.lock();
            assert_eq!(st.lock(b, &(*b).lock), Err(Conflict));
            drop(held);
            assert_eq!(st.lock(b, &(*b).lock), Ok(true));
        }
        // Same-bundle prepare merges; distinct bundles stack.
        let bundle = unsafe { &(*a).bundle };
        bundle.init(std::ptr::null_mut(), 0);
        st.prepare_bundle(bundle, a);
        st.prepare_bundle(bundle, b);
        assert_eq!(bundle.len(), 2, "merged: init entry + one pending");
        st.unlock_latest(1);
        assert!(!st.holds(b));
        assert!(st.holds(a));
        st.finalize(7, |_| panic!("nothing was unlinked"));
        assert!(st.is_empty() && !st.holds(a), "finalize leaves it reusable");
        assert_eq!(bundle.dereference(7), Some(b), "merged value wins");
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn staged_outcomes_project_and_detect_stale_reads() {
        let mut st: StagedOutcomes<u64> = StagedOutcomes::new();
        assert!(st.is_empty());
        // A put of an absent key (created node 100), a remove of node 200
        // at key 20, and an upsert of key 30 (remove node 300, insert 301
        // — two recordings merge into one entry).
        st.record(10, None, Some(100));
        st.record(20, Some(200), None);
        st.record(30, Some(300), None);
        st.record(30, None, Some(301));
        assert_eq!(st.len(), 3);

        // Recorded read agrees with every pre image: the projection swaps
        // in the now images.
        let recorded = vec![(5, 50), (20, 200), (30, 300), (40, 400)];
        let expected = st.expected_now(&0, &50, &recorded).unwrap();
        assert_eq!(expected, [(5, 50), (10, 100), (30, 301), (40, 400)]);

        // Staged keys outside the validated range are ignored (and the
        // reused buffer holds only the latest projection).
        let narrow = st.expected_now(&35, &50, &[(40, 400)]).unwrap();
        assert_eq!(narrow, [(40, 400)]);

        // The read saw a *different* node for key 20 than the prepare
        // removed: a foreign update slipped in between — stale.
        let stale = vec![(20, 999), (30, 300)];
        assert_eq!(
            st.expected_now(&0, &50, &stale).map(<[_]>::to_vec),
            Err(TxnValidateError::Invalidated)
        );
        // The read saw key 10 present but the prepare created it: stale.
        assert_eq!(
            st.expected_now(&0, &50, &[(10, 100), (20, 200), (30, 300)])
                .map(<[_]>::to_vec),
            Err(TxnValidateError::Invalidated)
        );
    }

    #[test]
    fn staged_outcomes_stay_sorted_when_recorded_out_of_order_and_reset_reuses() {
        let mut st: StagedOutcomes<u64> = StagedOutcomes::new();
        // A Citrus two-children remove of 10 records its relocated
        // successor 30 at once; the re-insert of 10 and a write of 20
        // arrive afterwards, behind it.
        st.record(10, Some(100), None);
        st.record(30, Some(300), Some(301));
        st.record(10, None, Some(101));
        st.record(20, None, Some(200));
        st.record(30, Some(999), Some(302));
        assert_eq!(st.len(), 3);
        let recorded = [(10, 100), (30, 300)];
        let expected = st.expected_now(&0, &50, &recorded).unwrap();
        assert_eq!(
            expected,
            [(10, 101), (20, 200), (30, 302)],
            "first pre kept"
        );
        st.reset(false);
        assert!(st.is_empty());
        st.record(10, None, Some(1));
        assert!(st.is_empty(), "reset(false) is the disabled mode");
        st.reset(true);
        st.record(10, None, Some(1));
        assert_eq!(st.covered_read(&10, &10, &[]), Some(Ok(())));
    }

    #[test]
    fn covered_read_decides_single_key_reads_of_written_keys() {
        let mut st: StagedOutcomes<u64> = StagedOutcomes::new();
        st.record(10, None, Some(100)); // insert of an absent key
        st.record(20, Some(200), None); // upsert: remove 200 ...
        st.record(20, None, Some(201)); // ... insert 201 (keeps pre = 200)
        st.record(30, None, None); // remove that missed

        // Not covered: ranges, and keys the transaction did not write.
        assert_eq!(st.covered_read(&10, &20, &[]), None);
        assert_eq!(st.covered_read(&15, &15, &[]), None);
        // Covered and current: the read saw what the prepare found.
        assert_eq!(st.covered_read(&10, &10, &[]), Some(Ok(())));
        assert_eq!(st.covered_read(&20, &20, &[(20, 200)]), Some(Ok(())));
        assert_eq!(st.covered_read(&30, &30, &[]), Some(Ok(())));
        // Covered and stale: a foreign commit between read and prepare.
        let stale = Some(Err(TxnValidateError::Invalidated));
        assert_eq!(st.covered_read(&10, &10, &[(10, 999)]), stale);
        assert_eq!(st.covered_read(&20, &20, &[(20, 199)]), stale);
        assert_eq!(st.covered_read(&20, &20, &[]), stale);
        // A write-only set recorded nothing, so nothing is covered.
        let mut off: StagedOutcomes<u64> = StagedOutcomes::disabled();
        off.record(10, None, Some(100));
        assert_eq!(off.covered_read(&10, &10, &[]), None);
    }

    #[test]
    fn abort_returns_created_and_neutralizes() {
        let a = Box::into_raw(Box::new(Cell {
            lock: Mutex::new(()),
            bundle: Bundle::new(),
        }));
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(0);
        let bundle = unsafe { &(*a).bundle };
        bundle.init(a, 2);
        st.prepare_bundle(bundle, std::ptr::null_mut());
        st.add_created(a);
        let mut created = Vec::new();
        st.abort(|n| created.push(n));
        assert_eq!(created, vec![a]);
        assert!(st.is_empty());
        assert_eq!(bundle.dereference(5), Some(a), "abort restored history");
        unsafe { drop(Box::from_raw(a)) };
    }
}
