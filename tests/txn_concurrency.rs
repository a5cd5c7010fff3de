//! Commit pipelines of every kind — read-write transactions, write-only
//! batches, groups — share a shard with each other and with the
//! primitive operations, and node locks are the only arbiter between
//! them: what that allows, how a commit that keeps losing a lock race
//! gets through, and that the result is still serializable.
//!
//! The first two tests force their interleavings with a commit log whose
//! `log_group` parks the calling commit — between its clock advance and
//! its finalize, with every node lock held — until the test lets it go.
//! The third is a multi-writer stress with exact accounting. CI also runs
//! this file in release mode: same-shard commit interleavings only get
//! tight in optimized code.

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
    // One shard: every commit below meets the others in one structure.
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
/// pipeline at the same time, and a group commit on a third key of that
/// shard stages, commits and logs while both are still parked.
fn commits_of_every_kind_overlap<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync,
{
    let gate = Gate::new(2);
    let store = gated_store::<S>(&gate, 4);
    let read_done = Barrier::new(2);
    std::thread::scope(|scope| {
        let a = scope.spawn(|| bump(&store, 1, 10, &read_done));
        let b = scope.spawn(|| bump(&store, 2, 80, &read_done));
        gate.wait_inside(2);
        let group = store.apply_grouped(3, &[TxnOp::Put(45, 4)]);
        assert_eq!(group.applied, vec![true], "{label}");
        assert!(
            !a.is_finished() && !b.is_finished(),
            "{label}: a parked commit was let go early"
        );
        gate.open();
        assert_eq!(a.join().unwrap(), vec![true], "{label}");
        assert_eq!(b.join().unwrap(), vec![true], "{label}");
    });
    let state = gate.state.lock().unwrap();
    assert!(
        !state.timed_out,
        "{label}: a parked commit was never let go"
    );
    assert_eq!(
        state.inside_seen_by_later,
        [2],
        "{label}: the group logged while both transactions were mid-commit"
    );
    assert_eq!(store.get(0, &10), Some(11), "{label}");
    assert_eq!(store.get(0, &80), Some(81), "{label}");
    assert_eq!(store.get(0, &45), Some(4), "{label}");
    assert_eq!(store.txn_stats().conflicts, 0, "{label}: disjoint keys");
}

#[test]
fn a_group_commits_beside_two_parked_rw_commits_on_one_shard() {
    commits_of_every_kind_overlap::<BundledSkipList<u64, u64>>("skiplist");
    commits_of_every_kind_overlap::<BundledCitrusTree<u64, u64>>("citrus");
    commits_of_every_kind_overlap::<BundledLazyList<u64, u64>>("lazylist");
}

/// A commit that keeps losing the race for one node to a long neighbour —
/// parked across its log call for 100 ms — backs off into sleeps instead
/// of spinning against it, and commits as soon as the neighbour is done.
fn a_blocked_commit_sleeps_until_its_neighbour_is_done<S>(label: &str)
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
        // B meets A's locks ...
        let start = Instant::now();
        while store.txn_stats().conflicts == 0 {
            assert!(start.elapsed() < DEADLINE, "{label}: B never met A");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ... and from then on retries at most about once a millisecond.
        let met_at = store.txn_stats().conflicts;
        std::thread::sleep(Duration::from_millis(100));
        let retries = store.txn_stats().conflicts - met_at;
        assert!(!b.is_finished(), "{label}: B got past a held node lock");
        assert!(
            retries < 200,
            "{label}: B retried {retries} times in 100 ms against a parked neighbour"
        );
        gate.open();
        assert_eq!(a.join().unwrap(), vec![true], "{label}");
        assert_eq!(b.join().unwrap(), Ok(vec![true]), "{label}: B must commit");
    });
    assert!(!gate.state.lock().unwrap().timed_out, "{label}");
    assert_eq!(store.txn_stats().validation_failures, 0, "{label}");
    assert_eq!(
        store.get(0, &50),
        Some(777),
        "{label}: B serialized after A"
    );
}

#[test]
fn a_commit_behind_a_parked_neighbour_backs_off_into_sleeps() {
    a_blocked_commit_sleeps_until_its_neighbour_is_done::<BundledSkipList<u64, u64>>("skiplist");
    a_blocked_commit_sleeps_until_its_neighbour_is_done::<BundledCitrusTree<u64, u64>>("citrus");
    a_blocked_commit_sleeps_until_its_neighbour_is_done::<BundledLazyList<u64, u64>>("lazylist");
}

/// xorshift64 from a per-thread seed.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A short on-core pause between a writer's rounds (a `yield_now` costs a
/// scheduler quantum when the box is oversubscribed).
fn pace() {
    for _ in 0..2_000 {
        std::hint::spin_loop();
    }
}

/// Every pipeline kind and the primitives on one shard at once, on
/// interleaved keys so that each kind's neighbours in the structure are
/// the other kinds' keys: read-write transfers between the accounts
/// (key `4a`: two validated balance reads, a validated range read over
/// 16 accounts and every kind's keys between them, two writes), groups
/// rewriting every group key (`4a + 1`), write-only batches rewriting
/// every batch key (`4a + 2`), and primitive insert / remove churn
/// (`4a + 3`), next to read-only audits. Serializability, checked
/// exactly: every range read found exactly the accounts in its window,
/// every audit saw the full total and each group and batch whole; every
/// account ends at its initial balance plus what the committed transfers
/// moved; every group and batch found its keys in the state the last one
/// left and leaves its value; each churn call returns what its key's
/// history says; and the commit counters match the commits the threads
/// made.
fn every_kind_shares_one_shard<S>(label: &str)
where
    S: ShardBackend<u64, u64> + Send + Sync + 'static,
{
    const ACCOUNTS: u64 = 48;
    const INITIAL: u64 = 1_000;
    const TRANSFERRERS: usize = 4;
    const TRANSFERS: usize = 250;
    const ROUNDS: u64 = 150;
    const CHURN: u64 = 1_500;
    let store = Arc::new(BundledStore::<u64, u64, S>::new(TRANSFERRERS + 4, vec![]));
    // Writer threads still running: the audits go on until all are done.
    let running = AtomicUsize::new(TRANSFERRERS + 3);
    let done = || running.fetch_sub(1, Ordering::SeqCst);
    let account = |a: u64| 4 * a;
    for a in 0..ACCOUNTS {
        store.insert(0, account(a), INITIAL);
    }
    // Rewrite key `4a + kind` of every account with `value`, as one
    // commit of the given kind.
    let rewrite = |kind: u64, value: u64| -> Vec<TxnOp<u64, u64>> {
        (0..ACCOUNTS)
            .map(|a| TxnOp::Set(4 * a + kind, value))
            .collect()
    };
    let deltas: Vec<Vec<i64>> = std::thread::scope(|scope| {
        let transferrers: Vec<_> = (0..TRANSFERRERS as u64)
            .map(|w| {
                let store = &store;
                scope.spawn(move || {
                    let h = store.register();
                    let mut delta = vec![0i64; ACCOUNTS as usize];
                    let mut next = rng(w + 7);
                    let mut window = Vec::new();
                    for _ in 0..TRANSFERS {
                        let from = next() % ACCOUNTS;
                        let to = (from + 1 + next() % (ACCOUNTS - 1)) % ACCOUNTS;
                        let low = next() % (4 * ACCOUNTS);
                        let high = low + 16 * 4 - 1;
                        let in_window = (low..=high)
                            .filter(|&k| k % 4 == 0 && k < 4 * ACCOUNTS)
                            .count();
                        h.run_rw(|txn| {
                            let a = txn.get(&account(from)).expect("account");
                            let b = txn.get(&account(to)).expect("account");
                            txn.range(&low, &high, &mut window);
                            let accounts = window.iter().filter(|(k, _)| k % 4 == 0);
                            assert_eq!(accounts.count(), in_window, "{label}: phantom");
                            txn.set(account(from), a.wrapping_sub(1))
                                .set(account(to), b.wrapping_add(1));
                        });
                        delta[from as usize] -= 1;
                        delta[to as usize] += 1;
                    }
                    done();
                    delta
                })
            })
            .collect();
        let auditor = scope.spawn(|| {
            let h = store.register();
            let (mut all, mut audits) = (Vec::new(), 0u64);
            while running.load(Ordering::SeqCst) > 0 || audits == 0 {
                let mut txn = h.rw_txn();
                txn.range(&0, &(4 * ACCOUNTS), &mut all);
                txn.commit().expect("a read-only commit never aborts");
                audits += 1;
                let kind = |k: u64| all.iter().filter(move |(key, _)| key % 4 == k);
                let (n, sum) = kind(0).fold((0, 0), |(n, s), (_, v)| (n + 1, s + v));
                assert_eq!((n, sum), (ACCOUNTS, ACCOUNTS * INITIAL), "{label}: torn");
                for k in [1, 2] {
                    let mut values = kind(k).map(|(_, v)| *v);
                    let first = values.next();
                    assert!(values.all(|v| Some(v) == first), "{label}: torn commit");
                }
            }
            audits
        });
        let groups = scope.spawn(|| {
            let h = store.register();
            for round in 1..=ROUNDS {
                let receipt = store.apply_grouped(h.tid(), &rewrite(1, round));
                assert!(
                    receipt.applied.iter().all(|&b| b == (round > 1)),
                    "{label}: group {round} found a key in the wrong state"
                );
                pace();
            }
            done();
        });
        let batches = scope.spawn(|| {
            let h = store.register();
            for round in 1..=ROUNDS {
                let applied = store.apply_txn(h.tid(), &rewrite(2, 1_000 + round));
                assert!(
                    applied.iter().all(|&b| b == (round > 1)),
                    "{label}: batch {round} found a key in the wrong state"
                );
                pace();
            }
            done();
        });
        let churn = scope.spawn(|| {
            let h = store.register();
            for i in 0..CHURN {
                let key = 4 * (i % ACCOUNTS) + 3;
                // Each key is inserted on even passes, removed on odd ones.
                if (i / ACCOUNTS).is_multiple_of(2) {
                    assert!(h.insert(key, i), "{label}: churn insert {key}");
                } else {
                    assert!(h.remove(&key), "{label}: churn remove {key}");
                }
            }
            done();
        });
        groups.join().unwrap();
        batches.join().unwrap();
        churn.join().unwrap();
        assert!(auditor.join().unwrap() > 0);
        transferrers
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    let h = store.register();
    for a in 0..ACCOUNTS {
        let moved: i64 = deltas.iter().map(|d| d[a as usize]).sum();
        let balance = h.snapshot_get(&account(a)).expect("account") as i64;
        assert_eq!(balance, INITIAL as i64 + moved, "{label}: account {a}");
        assert_eq!(h.snapshot_get(&(4 * a + 1)), Some(ROUNDS), "{label}");
        assert_eq!(
            h.snapshot_get(&(4 * a + 2)),
            Some(1_000 + ROUNDS),
            "{label}"
        );
        // The last pass decides whether a churn key is present.
        let passes = CHURN / ACCOUNTS + u64::from(a < CHURN % ACCOUNTS);
        assert_eq!(
            h.contains(&(4 * a + 3)),
            passes % 2 == 1,
            "{label}: churn key {a}"
        );
    }
    let stats = store.txn_stats();
    let transfers = (TRANSFERRERS * TRANSFERS) as u64;
    assert_eq!(stats.commits, transfers + 2 * ROUNDS, "{label}");
    assert_eq!(stats.group_commits, ROUNDS, "{label}");
    assert_eq!(stats.grouped_ops, ROUNDS * ACCOUNTS, "{label}");
}

#[test]
fn every_pipeline_kind_and_the_primitives_share_one_shard() {
    every_kind_shares_one_shard::<BundledSkipList<u64, u64>>("skiplist");
    every_kind_shares_one_shard::<BundledCitrusTree<u64, u64>>("citrus");
    every_kind_shares_one_shard::<BundledLazyList<u64, u64>>("lazylist");
}
