//! Read-write transactions share their shards' intents (the mode table
//! on `BundledStore`'s `intents` field): what that allows, what it still
//! excludes, how a commit that keeps losing lock races gets through, and
//! that the result is still serializable.
//!
//! The first two tests force their interleavings with a commit log whose
//! `log_group` parks the calling commit — between its clock advance and
//! its finalize, with every intent and node lock held — until the test
//! lets it go. The third is a multi-writer stress with exact accounting.
//! CI also runs this file in release mode: same-shard commit
//! interleavings only get tight in optimized code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use bundled_refs::prelude::*;
use bundled_refs::store::{BundledStore, CommitLog, ReadSet, ShardBackend, TxnOp};
use bundled_refs::txn::StoreTxnExt;

/// Long enough that only a bug (a lost wake-up, an exclusion that should
/// not be there) reaches it, even on an oversubscribed two-core box.
const DEADLINE: Duration = Duration::from_secs(20);

/// A commit log that parks the first `hold` commits inside `log_group`
/// until [`Gate::open`], and records how many were still parked whenever
/// a later commit logged.
struct Gate {
    hold: usize,
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    inside: usize,
    open: bool,
    timed_out: bool,
    /// `inside` as seen by each commit that logged past the gate.
    inside_seen_by_later: Vec<usize>,
}

impl Gate {
    fn new(hold: usize) -> Arc<Self> {
        Arc::new(Gate {
            hold,
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        })
    }

    /// Block until `n` commits are parked inside `log_group` at once.
    fn wait_inside(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, DEADLINE, |s| s.inside < n)
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "only {} of {n} commits ever got inside the pipeline together",
            state.inside
        );
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.changed.notify_all();
    }
}

impl CommitLog<u64, u64> for Gate {
    fn log_group(
        &self,
        _: usize,
        _: u64,
        _: &[TxnOp<u64, u64>],
        _: &[usize],
        _: &[bool],
        _: &[usize],
    ) {
        let mut state = self.state.lock().unwrap();
        state.arrived += 1;
        if state.arrived > self.hold {
            let inside = state.inside;
            state.inside_seen_by_later.push(inside);
            return;
        }
        state.inside += 1;
        self.changed.notify_all();
        let (mut state, timeout) = self
            .changed
            .wait_timeout_while(state, DEADLINE, |s| !s.open)
            .unwrap();
        state.timed_out |= timeout.timed_out();
        state.inside -= 1;
    }

    fn sync(&self) {}
}

fn gated_store<S: ShardBackend<u64, u64>>(
    gate: &Arc<Gate>,
    threads: usize,
) -> BundledStore<u64, u64, S> {
    // One shard: everything below happens inside a single intent.
    let mut store = BundledStore::<u64, u64, S>::new(threads, vec![]);
    for k in (0..100).step_by(10) {
        store.insert(0, k, k);
    }
    store.attach_commit_log(Arc::clone(gate) as Arc<dyn CommitLog<u64, u64>>);
    store
}

/// One read-modify-write of `key` through the store-level API, meeting
/// `read_done` between its read and its commit: a snapshot read waits on
/// the pending entries of a commit parked in the gate, so every read of a
/// test must be over before its first commit stages.
fn bump<S: ShardBackend<u64, u64>>(
    store: &BundledStore<u64, u64, S>,
    tid: usize,
    key: u64,
    read_done: &Barrier,
) -> Vec<bool> {
    let mut reads = ReadSet::new();
    let snap = store.snapshot(tid);
    let v = snap.get_recorded(&key, &mut reads).expect("prefilled");
    read_done.wait();
    let done = store.apply_rw_txn(tid, &[TxnOp::Set(key, v + 1)], &reads);
    drop(snap);
    done.expect("nobody else touches this key")
}

/// Two read-write commits on disjoint keys of one shard are inside the
/// pipeline at the same time; a group commit on that shard waits for both.
fn rw_commits_overlap_and_groups_exclude_them<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync,
{
    let gate = Gate::new(2);
    let store = gated_store::<S>(&gate, 4);
    let read_done = Barrier::new(2);
    std::thread::scope(|scope| {
        let a = scope.spawn(|| bump(&store, 1, 10, &read_done));
        let b = scope.spawn(|| bump(&store, 2, 80, &read_done));
        // Both commits parked between advance and finalize — under the
        // exclusive intents of old, the second could not have begun.
        gate.wait_inside(2);
        let group = scope.spawn(|| store.apply_grouped(3, &[TxnOp::Put(45, 4)]));
        // A negative needs a wait: the group must still be outside.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !group.is_finished(),
            "{label}: a group got into a shared shard"
        );
        assert!(!store.contains(0, &45), "{label}: the group staged already");
        gate.open();
        assert_eq!(a.join().unwrap(), vec![true], "{label}");
        assert_eq!(b.join().unwrap(), vec![true], "{label}");
        assert_eq!(group.join().unwrap().applied, vec![true], "{label}");
    });
    let state = gate.state.lock().unwrap();
    assert!(
        !state.timed_out,
        "{label}: a parked commit was never let go"
    );
    assert_eq!(
        state.inside_seen_by_later,
        [0],
        "{label}: the group logged while a transaction was mid-commit"
    );
    assert_eq!(store.get(0, &10), Some(11), "{label}");
    assert_eq!(store.get(0, &80), Some(81), "{label}");
    assert_eq!(store.txn_stats().intent_escalations, 0, "{label}");
}

#[test]
fn rw_commits_share_a_shard_and_group_commits_still_exclude_them() {
    rw_commits_overlap_and_groups_exclude_them::<BundledSkipList<u64, u64>>("skiplist");
    rw_commits_overlap_and_groups_exclude_them::<BundledCitrusTree<u64, u64>>("citrus");
    rw_commits_overlap_and_groups_exclude_them::<BundledLazyList<u64, u64>>("lazylist");
}

/// A commit that keeps conflicting with a long neighbour on one key stops
/// retrying: it escalates, parks on the exclusive intent, and commits as
/// soon as the neighbour is done.
fn a_conflicting_commit_escalates_and_waits<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync,
{
    let gate = Gate::new(1);
    let store = gated_store::<S>(&gate, 3);
    let (read_done, wait_read) = mpsc::channel::<()>();
    let (go, wait_go) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let store = &store;
        // B reads a key the neighbour leaves alone — before the neighbour
        // stages anything, or the snapshot read would wait on its pending
        // entries — and blind-writes the contended key.
        let b = scope.spawn(move || {
            let mut reads = ReadSet::new();
            let snap = store.snapshot(2);
            assert_eq!(snap.get_recorded(&90, &mut reads), Some(90));
            read_done.send(()).unwrap();
            wait_go.recv().unwrap();
            let done = store.apply_rw_txn(2, &[TxnOp::Set(50, 777)], &reads);
            drop(snap);
            done
        });
        wait_read.recv_timeout(DEADLINE).expect("B never read");
        let a = scope.spawn(|| bump(store, 1, 50, &Barrier::new(1)));
        gate.wait_inside(1);
        go.send(()).unwrap();
        // B loses the race for key 50's node until it escalates ...
        let start = Instant::now();
        while store.txn_stats().intent_escalations == 0 {
            assert!(start.elapsed() < DEADLINE, "{label}: B never escalated");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ... and then waits instead of burning retries.
        let parked_at = store.txn_stats().conflicts;
        std::thread::sleep(Duration::from_millis(100));
        assert!(!b.is_finished(), "{label}: B got past a held node lock");
        assert_eq!(
            store.txn_stats().conflicts,
            parked_at,
            "{label}: B kept retrying behind the exclusive intent it asked for"
        );
        gate.open();
        assert_eq!(a.join().unwrap(), vec![true], "{label}");
        assert_eq!(b.join().unwrap(), Ok(vec![true]), "{label}: B must commit");
    });
    assert!(!gate.state.lock().unwrap().timed_out, "{label}");
    let stats = store.txn_stats();
    assert_eq!(stats.intent_escalations, 1, "{label}");
    assert_eq!(stats.validation_failures, 0, "{label}");
    assert_eq!(
        store.get(0, &50),
        Some(777),
        "{label}: B serialized after A"
    );
}

#[test]
fn a_commit_that_keeps_conflicting_escalates_to_an_exclusive_intent() {
    a_conflicting_commit_escalates_and_waits::<BundledSkipList<u64, u64>>("skiplist");
    a_conflicting_commit_escalates_and_waits::<BundledCitrusTree<u64, u64>>("citrus");
    a_conflicting_commit_escalates_and_waits::<BundledLazyList<u64, u64>>("lazylist");
}

/// Four threads of bank transfers on one shard — two validated balance
/// reads, a validated 16-key range read, two writes — next to read-only
/// audit transactions. Serializability, checked exactly: every committed
/// audit saw the full total, and every account ends at its initial
/// balance plus what the committed transfers say went in and out.
fn concurrent_transfers_are_serializable<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    const WRITERS: usize = 4;
    const ACCOUNTS: u64 = 48;
    const STRIDE: u64 = 5;
    const INITIAL: u64 = 1_000;
    const TRANSFERS: usize = 250;
    let store = Arc::new(BundledStore::<u64, u64, S>::new(WRITERS + 1, vec![]));
    {
        let h = store.register();
        for a in 0..ACCOUNTS {
            h.insert(a * STRIDE, INITIAL);
        }
    }
    let running = AtomicUsize::new(WRITERS);
    let deltas: Vec<Vec<i64>> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS as u64)
            .map(|w| {
                let (store, running) = (&store, &running);
                scope.spawn(move || {
                    let h = store.register();
                    let mut delta = vec![0i64; ACCOUNTS as usize];
                    let mut seed = (w + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut next = move || {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed
                    };
                    let mut window = Vec::new();
                    for _ in 0..TRANSFERS {
                        let from = next() % ACCOUNTS;
                        let to = (from + 1 + next() % (ACCOUNTS - 1)) % ACCOUNTS;
                        let low = next() % (ACCOUNTS * STRIDE);
                        h.run_rw(|txn| {
                            let a = txn.get(&(from * STRIDE)).expect("account");
                            let b = txn.get(&(to * STRIDE)).expect("account");
                            txn.range(&low, &(low + 16 * STRIDE - 1), &mut window);
                            assert!(window.len() <= 17, "{label}: phantom accounts");
                            txn.set(from * STRIDE, a.wrapping_sub(1))
                                .set(to * STRIDE, b.wrapping_add(1));
                        });
                        delta[from as usize] -= 1;
                        delta[to as usize] += 1;
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    delta
                })
            })
            .collect();
        let auditor = scope.spawn(|| {
            let h = store.register();
            let (mut all, mut audits) = (Vec::new(), 0u64);
            while running.load(Ordering::SeqCst) > 0 || audits == 0 {
                let mut txn = h.rw_txn();
                txn.range(&0, &(ACCOUNTS * STRIDE), &mut all);
                if txn.commit().is_ok() {
                    audits += 1;
                    assert_eq!(all.len() as u64, ACCOUNTS, "{label}");
                    let sum: u64 = all.iter().map(|(_, v)| v).sum();
                    assert_eq!(
                        sum,
                        ACCOUNTS * INITIAL,
                        "{label}: audit saw a torn transfer"
                    );
                }
            }
            audits
        });
        let deltas = writers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(auditor.join().unwrap() > 0);
        deltas
    });
    let h = store.register();
    let end = h.range_query_vec(&0, &u64::MAX);
    assert_eq!(end.len() as u64, ACCOUNTS, "{label}");
    for (key, balance) in end {
        let account = (key / STRIDE) as usize;
        let moved: i64 = deltas.iter().map(|d| d[account]).sum();
        assert_eq!(
            balance as i64,
            INITIAL as i64 + moved,
            "{label}: account {account} lost or gained an update"
        );
    }
    let stats = store.txn_stats();
    assert!(stats.commits >= (WRITERS * TRANSFERS) as u64, "{label}");
}

#[test]
fn concurrent_transfers_on_one_shard_are_serializable_on_every_backend() {
    concurrent_transfers_are_serializable::<BundledSkipList<u64, u64>>("skiplist");
    concurrent_transfers_are_serializable::<BundledCitrusTree<u64, u64>>("citrus");
    concurrent_transfers_are_serializable::<BundledLazyList<u64, u64>>("lazylist");
}
