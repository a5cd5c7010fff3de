//! Structure-agnostic core of a two-phase (transactional) update: the
//! bookkeeping inside every [`crate::ShardTxn`].
//!
//! A transaction on one structure holds **node locks** until commit or
//! abort, installs **pending bundle entries** under them (finalized with
//! one commit timestamp, or neutralized on abort), and creates or unlinks
//! nodes (retired through EBR by the winning path). [`TwoPhaseState`]
//! keeps the locks and the nodes; the locks are the pending entries' books
//! too, since every prepare holds its owner node's [`crate::NodeLock`],
//! which names its holder. A torn attempt hands back its locks through a
//! [`TwoPhaseState::savepoint`]. That, and the bounded `try_lock`
//! discipline that keeps transactions deadlock-free against each
//! structure's own lock order, is the same for the lazy list, skip list,
//! and Citrus tree; the structure crates layer their traversal,
//! validation, and undo logs on top.

use ebr::Shared;

use crate::bundle_impl::Bundle;
use crate::kernel::TwoPhase;
use crate::linearize::{Conflict, TxnValidateError};
use crate::lock::BundledNode;

/// `try_lock` attempts a two-phase prepare makes on a contended node lock
/// before declaring [`Conflict`] (the whole transaction then aborts and
/// retries, which is what keeps mixed transactional/primitive traffic
/// deadlock-free: the per-structure lock orders cannot be made globally
/// consistent with key-ordered two-phase locking). Also the spin count of
/// a blocking [`crate::NodeLock::lock`] between yields.
pub const TXN_LOCK_SPINS: usize = 64;

/// Shared two-phase bookkeeping over nodes of type `N`.
///
/// The state is **reusable**: [`TwoPhaseState::finalize`] and
/// [`TwoPhaseState::abort`] leave it empty with every buffer's capacity
/// kept, which is what lets the kernel keep one warm token per thread
/// ([`crate::TokenPool`]) instead of rebuilding three vectors for a
/// transaction that locks a handful of nodes.
///
/// Nodes come in as [`Shared`] pointers and are kept as raw addresses
/// across calls. What keeps them allocated is the locking contract of
/// [`TwoPhase`]: a locked node can never be retired, because every remover
/// must acquire its victim's lock first.
pub struct TwoPhaseState<N> {
    tid: usize,
    /// Nodes whose lock the token holds, in acquisition order (a
    /// savepoint is a length of it).
    locks: Vec<*mut N>,
    /// Nodes unlinked by staged removes; retired on commit.
    victims: Vec<*mut N>,
    /// Nodes created by staged inserts; retired on abort.
    created: Vec<*mut N>,
}

impl<N: BundledNode> TwoPhaseState<N> {
    /// Empty state for thread `tid`.
    pub fn new(tid: usize) -> Self {
        TwoPhaseState {
            tid,
            locks: Vec::new(),
            victims: Vec::new(),
            created: Vec::new(),
        }
    }

    /// The dense thread id the transaction runs as.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// `true` when nothing has been staged or locked (every prepare holds
    /// a lock).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The nodes locked since `savepoint`, in acquisition order.
    fn held(&self, savepoint: usize) -> impl Iterator<Item = &N> {
        // SAFETY: a locked node is never retired (the `TwoPhase` locking
        // contract), so every address in `locks` is allocated.
        self.locks[savepoint..]
            .iter()
            .map(|&node| unsafe { &*node })
    }

    /// Acquire `node`'s lock for the transaction unless already held;
    /// held locks are kept until finalize or abort, or a
    /// [`TwoPhaseState::release_since`] of an earlier savepoint. Bounded
    /// `try_lock`: contention surfaces as [`Conflict`] instead of risking
    /// a deadlock cycle with a primitive operation blocked on one of our
    /// locks.
    pub fn lock(&mut self, node: Shared<'_, N>) -> Result<(), Conflict> {
        let lock = node.lock();
        if lock.held_by(self.tid) {
            return Ok(());
        }
        for _ in 0..TXN_LOCK_SPINS {
            if lock.acquire(self.tid) {
                self.locks.push(node.as_raw());
                return Ok(());
            }
            std::hint::spin_loop();
        }
        Err(Conflict)
    }

    /// A mark of the locks held now, for [`TwoPhaseState::release_since`]:
    /// taken at the start of an attempt that may turn out torn.
    #[must_use]
    pub fn savepoint(&self) -> usize {
        self.locks.len()
    }

    /// Release every lock acquired since `savepoint` (a torn attempt hands
    /// back what it took before it retries). `false` = there was none: the
    /// attempt only met locks the token already held, so a retry would
    /// find the same picture. An attempt releases before it prepares
    /// anything, so no released node carries a pending head
    /// (debug-asserted).
    pub fn release_since(&mut self, savepoint: usize) -> bool {
        for node in self.held(savepoint) {
            debug_assert!(
                !node.bundles().iter().any(Bundle::is_pending),
                "released a node that carries a pending head"
            );
            node.lock().release();
        }
        let released = self.locks.len() > savepoint;
        self.locks.truncate(savepoint);
        released
    }

    /// The torn attempt's verdict: release as [`Self::release_since`]
    /// does and retry, or [`Conflict`] if nothing was released (a node
    /// the token already holds cannot be invalidated by others, so the
    /// impossible surfaces as a conflict instead of a spin).
    pub fn retry_since(&mut self, savepoint: usize) -> Result<(), Conflict> {
        self.release_since(savepoint).then_some(()).ok_or(Conflict)
    }

    /// Install the transaction's pending entry on `bundle`, a bundle of
    /// node `owner`, or restage it if the transaction already has one
    /// there (a second write through the same link). The caller must hold
    /// `owner`'s lock (debug-asserted), so a pending head found there is
    /// this transaction's own (see the module docs).
    pub fn prepare_bundle(&mut self, owner: Shared<'_, N>, bundle: &Bundle<N>, ptr: Shared<'_, N>) {
        debug_assert!(
            owner.lock().held_by(self.tid),
            "a token prepares only under its own lock"
        );
        debug_assert!(
            owner.bundles().iter().any(|b| std::ptr::eq(b, bundle)),
            "a bundle of `owner`"
        );
        if !bundle.restage(ptr) {
            bundle.prepare(ptr);
        }
    }

    /// Record a node unlinked by a staged remove (retire on commit).
    pub fn add_victim(&mut self, node: Shared<'_, N>) {
        self.victims.push(node.as_raw());
    }

    /// Record a node created by a staged insert (retire on abort).
    pub fn add_created(&mut self, node: Shared<'_, N>) {
        self.created.push(node.as_raw());
    }

    /// Commit half: finalize every pending head on the held nodes' bundles
    /// with the transaction's single timestamp, release the locks, then
    /// hand each victim to `retire` (the caller retires them under its EBR
    /// guard). Leaves the state empty and reusable.
    pub fn finalize(&mut self, ts: u64, retire: impl FnMut(*mut N)) {
        self.resolve_and_unlock(|b| b.finalize(ts));
        self.victims.drain(..).for_each(retire);
        self.created.clear();
    }

    /// Abort half: neutralize every pending head on the held nodes'
    /// bundles (entries with history become invisible duplicates, first
    /// entries of created nodes become tombstones), release the locks,
    /// then hand each created node to `retire`. The caller must have
    /// reverted its structural changes *before* calling this —
    /// neutralization is what releases snapshot readers spinning on the
    /// pendings, and they must observe the restored physical state.
    /// Leaves the state empty and reusable.
    pub fn abort(&mut self, retire: impl FnMut(*mut N)) {
        self.resolve_and_unlock(Bundle::abort);
        self.created.drain(..).for_each(retire);
        self.victims.clear();
    }

    /// Two passes over the held nodes: `resolve` every pending head, then
    /// unlock (a waiter on a lock must find the entries resolved).
    fn resolve_and_unlock(&mut self, resolve: impl Fn(&Bundle<N>)) {
        for node in self.held(0) {
            node.bundles()
                .iter()
                .filter(|b| b.is_pending())
                .for_each(&resolve);
        }
        for node in self.held(0) {
            node.lock().release();
        }
        self.locks.clear();
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
///
/// Every token records, also one that will never validate (a write-only
/// batch or group): recording is a push per staged op, too cheap to be
/// worth a second staging mode.
#[derive(Debug, Default)]
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
}

impl<K: Copy + Ord> StagedOutcomes<K> {
    /// Forget every image and keep the buffers (a warm token's next
    /// transaction).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.projected.clear();
    }

    /// Index of `key`'s entry, or where it would be inserted.
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.0.cmp(key))
    }

    /// Record one staged write's images. A second staging of the same key
    /// (e.g. the insert half of an upsert after its remove half) keeps the
    /// original `pre` and replaces `now`.
    pub fn record(&mut self, key: K, pre: Option<usize>, now: Option<usize>) {
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
/// Torn observations hand back the attempt's locks and retry up to
/// [`MAX_VALIDATE_ATTEMPTS`] times; a stable mismatch is a foreign commit
/// inside the range — [`TxnValidateError::Invalidated`]. The locks stay in
/// `core` in every outcome: on success they pin the validated range at
/// the commit timestamp, and an `Err` leaves them to the abort.
///
/// Keys come from [`TwoPhase::entry`], locks from [`BundledNode::lock`];
/// the rest of the structure's specifics are closures: `locate` returns
/// `(gap predecessor, first candidate)` for the range's lower bound;
/// `pred_valid` re-validates the located pair; `step` checks `curr` is
/// validly linked after `prev` under the just-acquired lock and yields its
/// successor — or `None` for a torn observation.
pub fn validate_chain<'g, S: TwoPhase>(
    core: &mut TwoPhaseState<S::Node>,
    expected: &[(S::Key, usize)],
    high: &S::Key,
    tail: Shared<'g, S::Node>,
    mut locate: impl FnMut() -> (Shared<'g, S::Node>, Shared<'g, S::Node>),
    mut pred_valid: impl FnMut(Shared<'g, S::Node>, Shared<'g, S::Node>) -> bool,
    mut step: impl FnMut(Shared<'g, S::Node>, Shared<'g, S::Node>) -> Option<Shared<'g, S::Node>>,
) -> Result<(), TxnValidateError> {
    'attempt: for _ in 0..MAX_VALIDATE_ATTEMPTS {
        let sp = core.savepoint();
        let (pred, first) = locate();
        core.lock(pred)?;
        if !pred_valid(pred, first) {
            core.retry_since(sp)?;
            continue;
        }
        // Compared against `expected` in place (no per-attempt buffer);
        // the verdict still waits for the walk to finish, because a torn
        // observation further on must retry rather than invalidate.
        let (mut found, mut same) = (0usize, true);
        let mut prev = pred;
        let mut curr = first;
        while curr != tail && S::entry(&curr).0 <= *high {
            core.lock(curr)?;
            // Re-check linkage under the lock: a node that got removed
            // (or whose predecessor link moved) between the walk reaching
            // it and locking it is a torn observation, not a verdict.
            let Some(next) = step(prev, curr) else {
                core.release_since(sp);
                continue 'attempt;
            };
            same &= expected.get(found) == Some(&(S::entry(&curr).0, curr.as_raw() as usize));
            found += 1;
            prev = curr;
            curr = next;
        }
        if !same || found != expected.len() {
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
            .field("victims", &self.victims.len())
            .field("created", &self.created.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeLock;
    use ebr::{Collector, ReclaimMode};

    struct Cell {
        lock: NodeLock,
        bundle: Bundle<Cell>,
    }

    impl BundledNode for Cell {
        fn lock(&self) -> &NodeLock {
            &self.lock
        }
        fn bundles(&self) -> &[Bundle<Cell>] {
            std::slice::from_ref(&self.bundle)
        }
    }

    fn cell<'g>(g: &'g ebr::Guard<'_>) -> Shared<'g, Cell> {
        let (lock, bundle) = (NodeLock::default(), Bundle::new());
        Shared::boxed(Cell { lock, bundle }, g)
    }

    #[test]
    fn lock_tracking_and_merge() {
        let collector = Collector::new(1, ReclaimMode::Leaky);
        let g = collector.pin(0);
        let (a, b) = (cell(&g), cell(&g));
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(3);
        assert_eq!(st.tid(), 3);
        assert!(st.is_empty());
        assert_eq!(st.lock(a), Ok(()));
        assert_eq!(st.lock(a), Ok(()), "re-lock is a no-op");
        assert!(a.lock.held_by(3), "the lock names the token's tid");
        // A contended lock conflicts instead of blocking.
        let held = b.lock.lock(0);
        assert_eq!(st.lock(b), Err(Conflict));
        drop(held);
        assert_eq!(st.lock(b), Ok(()));
        // A second prepare of one bundle restages the token's own pending
        // head; distinct bundles stack.
        a.bundle.init(Shared::null(), 0);
        st.prepare_bundle(a, &a.bundle, a);
        st.prepare_bundle(a, &a.bundle, b);
        assert_eq!(a.bundle.len(), 2, "merged: init entry + one pending");
        // `b` was locked only to pin it: finalize leaves its bundle alone.
        st.finalize(7, |_| panic!("nothing was unlinked"));
        assert!(
            st.is_empty() && !a.lock.held_by(3),
            "finalize leaves it reusable"
        );
        assert!(b.lock.try_lock(0).is_some(), "finalize unlocked");
        assert!(b.bundle.is_empty(), "a lock-only node keeps its bundle");
        assert_eq!(a.bundle.dereference(7, &g), Some(b), "merged value wins");
    }

    #[test]
    fn release_since_hands_back_exactly_the_attempts_locks() {
        let collector = Collector::new(1, ReclaimMode::Leaky);
        let g = collector.pin(0);
        let (a, b, c) = (cell(&g), cell(&g), cell(&g));
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(0);
        st.lock(a).unwrap();
        // An attempt that only re-takes a held lock has nothing to hand
        // back, and keeps what it held.
        let sp = st.savepoint();
        st.lock(a).unwrap();
        assert!(!st.release_since(sp));
        assert!(a.lock.held_by(0));
        // An attempt that takes new locks hands back those, not older ones.
        let sp = st.savepoint();
        for node in [b, a, c] {
            st.lock(node).unwrap();
        }
        assert!(st.release_since(sp));
        assert!(a.lock.held_by(0) && !b.lock.held_by(0) && !c.lock.held_by(0));
        assert!(b.lock.try_lock(1).is_some() && c.lock.try_lock(1).is_some());
        assert!(a.lock.try_lock(1).is_none(), "the older lock is still held");
        st.abort(|_| panic!("nothing was created"));
        assert!(a.lock.try_lock(1).is_some(), "abort releases the rest");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released a node that carries a pending head")]
    fn release_since_refuses_to_release_a_pending_head() {
        let collector = Collector::new(1, ReclaimMode::Leaky);
        let g = collector.pin(0);
        let a = cell(&g);
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(0);
        st.lock(a).unwrap();
        st.prepare_bundle(a, &a.bundle, a);
        st.release_since(0);
    }

    #[test]
    fn staged_outcomes_project_and_detect_stale_reads() {
        let mut st: StagedOutcomes<u64> = StagedOutcomes::default();
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
        let mut st: StagedOutcomes<u64> = StagedOutcomes::default();
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
        st.clear();
        assert!(st.is_empty());
        st.record(10, None, Some(1));
        assert_eq!(st.covered_read(&10, &10, &[]), Some(Ok(())));
    }

    #[test]
    fn covered_read_decides_single_key_reads_of_written_keys() {
        let mut st: StagedOutcomes<u64> = StagedOutcomes::default();
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
    }

    #[test]
    fn abort_returns_created_and_neutralizes() {
        let collector = Collector::new(1, ReclaimMode::Leaky);
        let g = collector.pin(0);
        let a = cell(&g);
        let mut st: TwoPhaseState<Cell> = TwoPhaseState::new(0);
        a.bundle.init(a, 2);
        st.lock(a).unwrap();
        st.prepare_bundle(a, &a.bundle, Shared::null());
        st.add_created(a);
        let mut created = Vec::new();
        st.abort(|n| created.push(n));
        assert_eq!(created, vec![a.as_raw()]);
        assert!(st.is_empty());
        assert_eq!(
            a.bundle.dereference(5, &g),
            Some(a),
            "abort restored history"
        );
    }
}
