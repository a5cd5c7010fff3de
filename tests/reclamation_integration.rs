//! End-to-end reclamation: background bundle recycling and EBR node
//! reclamation running underneath a live mixed workload (Appendix B).

use std::sync::Arc;
use std::time::Duration;

use bundled_refs::prelude::*;

#[test]
fn recycler_reclaims_while_workload_runs() {
    const THREADS: usize = 2;
    let list = Arc::new(BundledSkipList::<u64, u64>::with_mode(
        THREADS + 1,
        ReclaimMode::Reclaim,
    ));
    for k in 0..400u64 {
        list.insert(0, k, k);
    }
    let recycler = list.spawn_recycler(THREADS, Duration::from_millis(1));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let list = Arc::clone(&list);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..30u64 {
                    for k in 0..400u64 {
                        if (k + round) % 3 == 0 {
                            list.remove(tid, &k);
                            list.insert(tid, k, k + round);
                        }
                    }
                    list.range_query(tid, &0, &400, &mut out);
                    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Give the recycler a few more passes in quiescence, then verify the
    // bundles have been pruned down and memory has actually been freed.
    std::thread::sleep(Duration::from_millis(50));
    let passes = recycler.passes();
    recycler.stop();
    assert!(passes > 0, "recycler must have run");
    let entries = list.bundle_entries(0);
    // In quiescence each reachable bundle needs at most one entry, plus the
    // head sentinel's. Allow slack for the last unreclaimed round.
    assert!(
        entries <= list.len(0) * 2 + 2,
        "bundles not pruned: {entries} entries for {} nodes",
        list.len(0)
    );
    assert!(
        list.collector().stats().freed() > 0,
        "EBR should have freed retired nodes"
    );
    assert_eq!(list.len(0), 400);
}

#[test]
fn leaky_mode_matches_paper_default_and_counts_retires() {
    let list = BundledLazyList::<u64, u64>::with_mode(1, ReclaimMode::Leaky);
    for k in 0..100u64 {
        list.insert(0, k, k);
    }
    for k in 0..100u64 {
        assert!(list.remove(0, &k));
    }
    assert_eq!(list.context().collector().stats().retired(), 100);
    assert_eq!(list.context().collector().stats().freed(), 0);
    assert!(list.is_empty(0));
}

#[test]
fn relaxed_structures_remain_correct_sets() {
    // Appendix A: relaxation weakens range query freshness, not set
    // correctness. Run a quick mixed workload on a heavily relaxed clock.
    let s = Arc::new(BundledCitrusTree::<u64, u64>::with_relaxation(3, 50));
    let handles: Vec<_> = (0..2)
        .map(|tid| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for k in 0..2_000u64 {
                    let key = k * 2 + tid as u64;
                    s.insert(tid, key, key);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(s.len(0), 4_000);
    let mut out = Vec::new();
    s.range_query(2, &0, &4_000, &mut out);
    assert_eq!(out.len(), 4_000 - 1 + 1);
}

/// One reclamation domain per store: a snapshot on tid 1 reads the keys
/// tid 0 removed from every shard after it, and holds back their frees.
fn a_snapshot_holds_the_frees_of_every_shard<S: ShardBackend<u64, u64>>() {
    let s = BundledStore::<u64, u64, S>::new(2, uniform_splits(4, 400));
    let keys = [50u64, 150, 250, 350];
    keys.iter().for_each(|&k| assert!(s.insert(0, k, k)));
    let stats = s.shard(0).reclaim_stats();
    let advance_and_collect = || {
        (0..3).for_each(|_| _ = s.context().collector().try_advance());
        s.shard(0).pin(0).flush()
    };
    let snap = s.snapshot(1);
    keys.iter().for_each(|&k| assert!(s.remove(0, &k)));
    let retired = stats.retired();
    assert!(retired >= 4 && stats.freed() == 0);
    advance_and_collect();
    for k in keys {
        assert_eq!(snap.get(&k), Some(k), "shard {}", s.shard_of(&k));
    }
    assert_eq!(stats.freed(), 0, "the snapshot's one pin holds every shard");
    drop(snap);
    advance_and_collect();
    assert!(stats.freed() >= retired, "{} of {retired}", stats.freed());
}

#[test]
fn a_store_snapshot_holds_the_frees_of_every_shard() {
    a_snapshot_holds_the_frees_of_every_shard::<BundledSkipList<u64, u64>>();
    a_snapshot_holds_the_frees_of_every_shard::<BundledLazyList<u64, u64>>();
    a_snapshot_holds_the_frees_of_every_shard::<BundledCitrusTree<u64, u64>>();
}
