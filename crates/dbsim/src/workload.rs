//! The TPC-C workload driver used by the Figure 4 experiment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::tpcc::{IndexFactory, TpccConfig, TpccDb};

/// Result of a timed TPC-C run.
#[derive(Debug, Clone, Copy)]
pub struct TpccThroughput {
    /// Committed transactions.
    pub transactions: u64,
    /// Operations issued against the indexes (what Figure 4 plots).
    pub index_ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl TpccThroughput {
    /// Index operations per second, in millions (the y-axis of Figure 4).
    pub fn index_mops(&self) -> f64 {
        self.index_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        self.transactions as f64 / self.elapsed.as_secs_f64()
    }
}

/// Populate a database with indexes built by `factory` and run the TPC-C
/// mix on `threads` worker threads for `duration_ms` milliseconds.
pub fn run_tpcc(
    cfg: TpccConfig,
    factory: &IndexFactory,
    threads: usize,
    duration_ms: u64,
) -> TpccThroughput {
    run_tpcc_db(
        Arc::new(TpccDb::new(cfg, factory, threads)),
        threads,
        duration_ms,
    )
}

/// Run the TPC-C mix against an already-built database (e.g.
/// [`TpccDb::store_backed`], where NEW_ORDER commits as one cross-shard
/// write transaction).
pub fn run_tpcc_db(db: Arc<TpccDb>, threads: usize, duration_ms: u64) -> TpccThroughput {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(threads);
    for tid in 0..threads {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0x79cc ^ (tid as u64 + 1));
            let mut scratch = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..16 {
                    db.run_txn(tid, &mut rng, &mut scratch);
                }
            }
        }));
    }
    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("TPC-C worker panicked");
    }
    let elapsed = start.elapsed();
    TpccThroughput {
        transactions: db.committed(),
        index_ops: db.stats.index_ops.load(Ordering::Relaxed),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::DynIndex;
    use bundle::TwoPhase;
    use citrus::BundledCitrusTree;
    use skiplist::BundledSkipList;
    use std::sync::Arc;

    #[test]
    fn tpcc_runs_on_skiplist_and_citrus_indexes() {
        let cfg = TpccConfig {
            warehouses: 1,
            customers_per_district: 20,
            items: 30,
            initial_orders_per_district: 10,
        };
        let skiplist_factory =
            |t: usize| -> DynIndex { Arc::new(BundledSkipList::<u64, u64>::new(t)) };
        let citrus_factory =
            |t: usize| -> DynIndex { Arc::new(BundledCitrusTree::<u64, u64>::new(t)) };
        for factory in [
            &skiplist_factory as &IndexFactory,
            &citrus_factory as &IndexFactory,
        ] {
            let t = run_tpcc(cfg, factory, 2, 50);
            assert!(t.transactions > 0);
            assert!(t.index_ops > t.transactions);
            assert!(t.index_mops() > 0.0);
            assert!(t.tps() > 0.0);
        }
    }
}
