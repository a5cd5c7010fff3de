//! Sharded-store scenario: throughput of the `BundledStore` as a function
//! of shard count, against the unsharded bundled structure baseline
//! (shards = 1 is the store wrapper around a single structure; `baseline`
//! is the raw structure with no store layer at all).
//!
//! Every configuration keeps the paper's update-heavy `50-40-10` mix plus
//! a pure-scan `0-0-100` mix, so the table shows both where sharding wins
//! (update traffic spread over independent lock domains) and what the
//! cross-shard snapshot machinery costs on scans.
//!
//! Usage: `cargo run --release -p workloads --bin store_scaling [-- skiplist|citrus|list]`
//! Thread counts come from `BUNDLE_THREADS`, duration from
//! `BUNDLE_DURATION_MS`, shard counts from `BUNDLE_SHARDS`
//! (comma-separated, default "1,2,4,8,16").

use workloads::{
    counts_from_env, duration_ms, make_store_structure, make_structure, print_series_table,
    run_workload, thread_counts, write_csv, Point, RunConfig, StructureKind, WorkloadMix,
};

fn sweep(label: &str, store_kind: StructureKind, baseline: StructureKind) {
    let key_range = store_kind.default_key_range();
    for mix in [WorkloadMix::new(50, 40, 10), WorkloadMix::new(0, 0, 100)] {
        let mut points = Vec::new();
        for &threads in &thread_counts() {
            let cfg = RunConfig::new(threads, duration_ms(), key_range, mix);
            // Unsharded structure, no store layer: the reference line.
            let t = run_workload(&make_structure(baseline, threads), &cfg);
            points.push(Point {
                series: "baseline".into(),
                x: threads.to_string(),
                y: t.mops(),
            });
            for shards in counts_from_env("BUNDLE_SHARDS", &[1, 2, 4, 8, 16]) {
                let s = make_store_structure(store_kind, threads, shards, key_range);
                let t = run_workload(&s, &cfg);
                points.push(Point {
                    series: format!("{shards}-shard"),
                    x: threads.to_string(),
                    y: t.mops(),
                });
            }
        }
        let title = format!("Store scaling [{label}] workload {}", mix.label());
        print_series_table(&title, "threads", "Mops/s", &points);
        write_csv(
            &format!("store_scaling_{label}_{}", mix.label()),
            "threads",
            "mops",
            &points,
        );
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "skiplist".into());
    match which.as_str() {
        "skiplist" => sweep(
            "skiplist",
            StructureKind::StoreSkipList,
            StructureKind::SkipListBundle,
        ),
        "citrus" => sweep(
            "citrus",
            StructureKind::StoreCitrus,
            StructureKind::CitrusBundle,
        ),
        "list" => sweep("list", StructureKind::StoreList, StructureKind::ListBundle),
        other => {
            eprintln!("unknown backend {other:?}; expected skiplist|citrus|list");
            std::process::exit(2);
        }
    }
}
