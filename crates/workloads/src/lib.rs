//! Benchmark harness reproducing the paper's evaluation (§8 + appendices).
//!
//! The harness mirrors the methodology of the paper's C++ framework:
//!
//! * structures are prefilled with half of the keys in their key range,
//! * worker threads run a `U − C − RQ` operation mix (update / contains /
//!   range-query percentages) for a fixed duration,
//! * updates are split evenly between inserts and removes so the structure
//!   size stays stable,
//! * target keys are drawn uniformly from the key range,
//! * throughput is reported in Mops/s.
//!
//! Every figure/table of the paper has a corresponding binary in
//! `src/bin/` (fig2, fig3, fig4, fig5, table1, list_relative), and
//! `store_scaling` sweeps the sharded store's shard count against the
//! unsharded structure. Thread counts and run duration are configurable
//! through `BUNDLE_THREADS` (comma-separated) and `BUNDLE_DURATION_MS` so
//! the same harness scales from this repository's CI-sized runs to a large
//! multicore machine. Performance is *measured* by `benchmark/run.sh`, not
//! here: these binaries only regenerate the paper's figures.

pub mod config;
pub mod driver;
pub mod registry;
pub mod report;

pub use config::{RunConfig, WorkloadMix};
pub use driver::{run_workload, Throughput};
pub use registry::{make_store_structure, make_structure, StructureKind, ALL_KINDS};
pub use report::{print_series_table, write_csv, Point};

/// A comma-separated list of positive counts from the environment variable
/// `var`; `default` when it is unset or holds no valid count.
pub fn counts_from_env(var: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(var)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Thread counts to sweep, from `BUNDLE_THREADS` (default "1,2,4").
pub fn thread_counts() -> Vec<usize> {
    counts_from_env("BUNDLE_THREADS", &[1, 2, 4])
}

/// Per-configuration run duration in milliseconds, from
/// `BUNDLE_DURATION_MS` (default 200 ms; the paper uses 3 s × 3 runs).
pub fn duration_ms() -> u64 {
    std::env::var("BUNDLE_DURATION_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}
