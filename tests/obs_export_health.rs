//! Integration tests for the obs v3 live introspection endpoint and the
//! health/SLO monitor over the real store pipeline.
//!
//! Two properties, end to end:
//!
//! * an [`obs::ExportServer`] wired to a live multi-threaded store
//!   answers a raw-`TcpStream` scrape **while workers hammer the
//!   store**: `/metrics` is valid Prometheus text exposition (shard
//!   labels lifted out of metric names, cumulative histogram buckets),
//!   the JSON endpoints answer, and an unknown path 404s;
//! * a deliberately skewed workload (every put routed to shard 0)
//!   driven through a sampler + [`obs::HealthMonitor`] sustains a
//!   `hot_shard` **critical** finding naming shard 0 — the resharding
//!   trigger the ROADMAP's skew handoff contract consumes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bundled_refs::obs;
use bundled_refs::prelude::*;

const SHARDS: usize = 4;
const KEY_RANGE: u64 = 1_000;

fn obs_store(slots: usize) -> BundledStore<u64, u64, BundledSkipList<u64, u64>> {
    BundledStore::with_obs(
        slots,
        ReclaimMode::Reclaim,
        uniform_splits(SHARDS, KEY_RANGE),
        &MetricsRegistry::new(),
    )
}

/// One raw HTTP/1.0 GET against `addr`; returns (status line, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to export server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or_default().to_string(),
        body.to_string(),
    )
}

/// Every `<name>_bucket` family in a Prometheus body must be cumulative:
/// within one label set, counts never decrease as `le` grows, and the
/// `+Inf` bucket equals the family's `_count`.
fn assert_cumulative_buckets(body: &str, family: &str) {
    let mut prev: Option<u64> = None;
    let mut inf: Option<u64> = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{le=\"")) {
            let (le, count) = rest.split_once("\"}").expect("bucket line shape");
            let count: u64 = count.trim().parse().expect("bucket count");
            if let Some(p) = prev {
                assert!(
                    count >= p,
                    "{family}: bucket counts must be cumulative ({count} < {p} at le={le})"
                );
            }
            prev = Some(count);
            if le == "+Inf" {
                inf = Some(count);
            }
        }
    }
    let inf = inf.unwrap_or_else(|| panic!("{family}: missing +Inf bucket"));
    let count_line = format!("{family}_count ");
    let count: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix(&count_line))
        .unwrap_or_else(|| panic!("{family}: missing _count"))
        .trim()
        .parse()
        .expect("_count value");
    assert_eq!(inf, count, "{family}: +Inf bucket must equal _count");
}

#[test]
fn live_scrape_answers_while_store_is_hammered() {
    const THREADS: usize = 2;
    // Reserved slots beyond the workers: tid THREADS for the export
    // server's snapshot closure.
    let store = Arc::new(obs_store(THREADS + 1));
    let st = Arc::clone(&store);
    let monitor = obs::HealthMonitor::new(
        obs::SloPolicy::default(),
        store.obs_registry().expect("store built with obs"),
        None,
    );
    let sources = obs::ExportSources::new()
        .with_snapshot(move || st.obs_snapshot(THREADS).expect("store built with obs"))
        .with_health(move || monitor.report().json())
        .with_build_info(vec![
            ("schema".into(), "5".into()),
            ("bench".into(), "integration".into()),
        ]);
    let server = obs::ExportServer::spawn("127.0.0.1:0", sources).expect("bind loopback");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let handle = store.register();
                let mut k = w as u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = handle.apply_txn(&[TxnOp::Put(k % KEY_RANGE, k)]);
                    let _ = handle.get(&((k + 7) % KEY_RANGE));
                    k = k.wrapping_add(13);
                }
            })
        })
        .collect();
    // Let the pipeline histograms fill before the scrape.
    std::thread::sleep(Duration::from_millis(50));

    // Mid-flight scrapes: repeat a few to exercise concurrent conns.
    for _ in 0..3 {
        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "scrape status {status:?}");
        assert!(
            body.contains("store_shard_ops{shard=\"0\"}"),
            "shard index must be lifted into a label:\n{body}"
        );
        assert!(
            body.contains("# TYPE store_pipeline_finalize_ns histogram"),
            "pipeline histograms must be exposed"
        );
        assert!(body.contains("store_pipeline_finalize_ns_bucket{le="));
        assert_cumulative_buckets(&body, "store_pipeline_finalize_ns");
        assert_cumulative_buckets(&body, "store_pipeline_intents_ns");
        assert!(
            body.contains("store_build_info{") && body.contains("schema=\"5\""),
            "build info must render as an info metric"
        );
        assert!(body.contains("obs_uptime_ns"), "uptime gauge");
        assert!(body.contains("obs_export_scrapes"), "scrape counter");
    }

    // The JSON endpoints answer mid-flight too; unwired ones degrade.
    let (status, body) = get(addr, "/snapshot.json");
    assert!(status.contains("200"));
    assert!(body.contains("\"store.txn.commits\""));
    let (status, body) = get(addr, "/windows.json");
    assert!(status.contains("200"));
    assert_eq!(body, "{\"disabled\":true}", "no sampler wired");
    let (status, body) = get(addr, "/health.json");
    assert!(status.contains("200"));
    assert!(body.contains("\"checks\""), "wired monitor reports: {body}");
    let (status, _) = get(addr, "/nope");
    assert!(
        status.contains("404"),
        "unknown path must 404, got {status}"
    );

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }
    assert!(server.scrapes() >= 7, "every GET above counts as a scrape");
}

#[test]
fn skewed_load_sustains_a_hot_shard_finding() {
    const THREADS: usize = 2;
    // Reserved slot THREADS is the sampler's dedicated tid.
    let store = Arc::new(obs_store(THREADS + 1));
    let registry = store.obs_registry().expect("store built with obs").clone();
    let policy = obs::SloPolicy::parse("max_skew_share=0.5,sustain=2,recover=2,min_window_ops=50")
        .expect("valid spec");
    let monitor = Arc::new(obs::HealthMonitor::new(
        policy,
        &registry,
        store.obs_trace().cloned(),
    ));
    let st = Arc::clone(&store);
    let m = Arc::clone(&monitor);
    let sampler = obs::TimeseriesSampler::spawn_with(
        Duration::from_millis(10),
        512,
        move || st.obs_snapshot(THREADS).expect("store built with obs"),
        Some(Box::new(move |w: &obs::Window| {
            let _ = m.observe(w);
        })),
        None,
    );

    // Every put lands below the first split: shard 0 takes ~all traffic.
    let hot_span = (KEY_RANGE / SHARDS as u64).max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let handle = store.register();
                let mut k = w as u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = handle.apply_txn(&[TxnOp::Put(k % hot_span, k)]);
                    k = k.wrapping_add(13);
                }
            })
        })
        .collect();

    // Wait until the monitor escalates instead of sleeping a fixed time;
    // 2 sustained 10ms windows suffice, 5s is the hang backstop.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && monitor.report().worst_level() < obs::HealthLevel::Critical {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }
    let _ = sampler.stop();

    let report = monitor.report();
    assert!(
        report.windows_observed >= 2,
        "the sampler must have fed the monitor, saw {}",
        report.windows_observed
    );
    let finding = report
        .findings
        .iter()
        .find(|f| f.check == obs::HealthCheck::HotShard)
        .unwrap_or_else(|| {
            panic!(
                "sustained skew must escalate hot_shard to critical; report: {}",
                report.json()
            )
        });
    assert_eq!(finding.level, obs::HealthLevel::Critical);
    assert_eq!(finding.shard, 0, "the finding must name the hot shard");
    assert!(finding.value > 0.5, "observed share above the threshold");
    // The escalation is cross-checked in the registry and the recorder.
    let snap = store.obs_snapshot(0).expect("store built with obs");
    match snap.get("obs.health.transitions.critical") {
        Some(&obs::SnapshotValue::Counter(n)) => assert!(n >= 1, "critical transition counted"),
        other => panic!("obs.health.transitions.critical missing: {other:?}"),
    }
    let trace = store.obs_trace().expect("with_obs attaches a recorder");
    assert!(
        trace
            .anomalies()
            .iter()
            .any(|a| matches!(a.cause, obs::AnomalyCause::SloViolation)),
        "a critical escalation must snapshot an slo_violation anomaly"
    );
    // The report's JSON (what `/health.json` serves) embeds the finding.
    let json = report.json();
    assert!(json.contains("\"check\":\"hot_shard\""), "{json}");
    assert!(json.contains("\"level\":\"critical\""), "{json}");
}
