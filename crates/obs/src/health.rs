//! Health/SLO monitoring over time-series [`Window`]s.
//!
//! The [`timeseries`](crate::timeseries) sampler turns raw counters into
//! per-window rates and shares; this module is the **judgment layer** on
//! top: a [`HealthMonitor`] consumes consecutive windows against a
//! declarative [`SloPolicy`] and produces a [`HealthReport`] of typed
//! findings. Five checks run per window:
//!
//! * [`HealthCheck::HotShard`] — one shard's share of the window's ops
//!   (`skew.max_share`) sustained above the policy bound. This is the
//!   **resharding trigger** the ROADMAP's skew→resharding handoff
//!   contract names: a splitter consumes the finding's shard index.
//! * [`HealthCheck::ConflictStorm`] — conflicts per commit above bound.
//! * [`HealthCheck::QueueSaturation`] — the ingest queue depth at or
//!   above the policy bound (compare against the front-end's configured
//!   `max_queue_depth`, exported as the `ingest.max_queue_depth` gauge).
//! * [`HealthCheck::LatencyBurn`] — the commit pipeline's finalize-stage
//!   p99 above the latency target.
//! * [`HealthCheck::CommitStall`] — commit throughput collapsed below
//!   the policy floor.
//!
//! ## Hysteresis
//!
//! A single noisy window must not page anyone. Each check runs a small
//! state machine: the **first** breached window moves it `ok → warn`;
//! only [`SloPolicy::sustain`] *consecutive* breached windows escalate
//! `warn → critical` (the point a [`Finding`] is recorded and — when a
//! flight recorder is attached — an anomaly snapshot captures the
//! surrounding event history); [`SloPolicy::recover`] consecutive clean
//! windows return it to `ok` in **one** transition. Transitions are
//! counted in the registry (`obs.health.transitions.*`), the current
//! level of each check is a gauge (`obs.health.<check>.level`), and
//! every transition is traced as a
//! [`TraceKind::HealthTransition`](crate::TraceKind::HealthTransition)
//! flight-recorder event.

use std::sync::{Arc, Mutex};

use crate::timeseries::Window;
use crate::trace::{AnomalyCause, TraceKind, TraceRecorder};
use crate::{Counter, Gauge, MetricsRegistry};

/// The typed conditions a [`HealthMonitor`] watches, in fixed order
/// (the index doubles as the trace `shard` discriminator and the
/// transition-counter thread id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthCheck {
    /// Sustained single-shard key skew (`skew.max_share`) — the
    /// resharding trigger signal.
    HotShard = 0,
    /// Sustained conflict-per-commit rate.
    ConflictStorm = 1,
    /// Sustained ingest submission-queue depth.
    QueueSaturation = 2,
    /// Sustained finalize-stage p99 latency.
    LatencyBurn = 3,
    /// Sustained commit-throughput collapse.
    CommitStall = 4,
}

/// Every check, in index order ([`HealthCheck`] as `usize` indexes it).
pub const HEALTH_CHECKS: [HealthCheck; 5] = [
    HealthCheck::HotShard,
    HealthCheck::ConflictStorm,
    HealthCheck::QueueSaturation,
    HealthCheck::LatencyBurn,
    HealthCheck::CommitStall,
];

impl HealthCheck {
    /// Stable lowercase name (JSON `check` field, metric name segment).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthCheck::HotShard => "hot_shard",
            HealthCheck::ConflictStorm => "conflict_storm",
            HealthCheck::QueueSaturation => "queue_saturation",
            HealthCheck::LatencyBurn => "latency_burn",
            HealthCheck::CommitStall => "commit_stall",
        }
    }
}

/// A check's current severity. Ordered: `Ok < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthLevel {
    /// Within policy.
    Ok = 0,
    /// Breached, but not yet for [`SloPolicy::sustain`] windows.
    Warn = 1,
    /// Breached for at least [`SloPolicy::sustain`] consecutive windows.
    Critical = 2,
}

impl HealthLevel {
    /// Stable lowercase name (JSON `level` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthLevel::Ok => "ok",
            HealthLevel::Warn => "warn",
            HealthLevel::Critical => "critical",
        }
    }
}

/// Declarative SLO thresholds plus the hysteresis windows. Every
/// threshold has a disabled state so a policy can watch one signal
/// without faking bounds for the rest; [`SloPolicy::parse`] overlays
/// `key=value` pairs on these defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// [`HealthCheck::HotShard`]: breach when `skew.max_share` exceeds
    /// this (default 0.8; set above 1.0 to disable — a share never
    /// exceeds 1.0).
    pub max_skew_share: f64,
    /// Skew/conflict noise guard: windows with fewer total shard ops
    /// than this are treated as clean (default 100 — a near-empty
    /// window's shares are meaningless).
    pub min_window_ops: u64,
    /// [`HealthCheck::ConflictStorm`]: breach when conflicts per commit
    /// exceed this (default 0.5; negative never triggers since the rate
    /// is ≥ 0 — but there is no reason to disable it).
    pub max_conflict_rate: f64,
    /// [`HealthCheck::QueueSaturation`]: breach when the `ingest.depth`
    /// gauge is at or above this (default 0 = disabled; set it to the
    /// front-end's `max_queue_depth` — or a fraction of it — to alert
    /// before producers block).
    pub max_queue_depth: i64,
    /// [`HealthCheck::LatencyBurn`]: breach when the window's
    /// finalize-stage p99 exceeds this many nanoseconds (default 0 =
    /// disabled).
    pub max_finalize_p99_ns: u64,
    /// [`HealthCheck::CommitStall`]: breach when the window's commit
    /// throughput falls below this (default 0.0 = disabled; the check
    /// uses a strict `<`, so a zero floor never triggers).
    pub min_commits_per_s: f64,
    /// Consecutive breached windows before `warn` escalates to
    /// `critical` (default 3; clamped to ≥ 1).
    pub sustain: u32,
    /// Consecutive clean windows before a breached check returns to
    /// `ok` (default 2; clamped to ≥ 1).
    pub recover: u32,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            max_skew_share: 0.8,
            min_window_ops: 100,
            max_conflict_rate: 0.5,
            max_queue_depth: 0,
            max_finalize_p99_ns: 0,
            min_commits_per_s: 0.0,
            sustain: 3,
            recover: 2,
        }
    }
}

impl SloPolicy {
    /// Parse a comma-separated `key=value` spec over the defaults, e.g.
    /// `max_skew_share=0.9,sustain=5,max_queue_depth=512`. Keys are the
    /// field names; an empty spec yields the defaults.
    ///
    /// # Errors
    ///
    /// An unknown key, a missing `=`, or an unparsable value returns a
    /// human-readable message naming the offending pair.
    pub fn parse(spec: &str) -> Result<SloPolicy, String> {
        let mut p = SloPolicy::default();
        for pair in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("SLO spec {pair:?}: expected key=value"))?;
            let bad = |what: &str| format!("SLO spec {pair:?}: {what}");
            match key.trim() {
                "max_skew_share" => {
                    p.max_skew_share = value.parse().map_err(|_| bad("not a float"))?;
                }
                "min_window_ops" => {
                    p.min_window_ops = value.parse().map_err(|_| bad("not an integer"))?;
                }
                "max_conflict_rate" => {
                    p.max_conflict_rate = value.parse().map_err(|_| bad("not a float"))?;
                }
                "max_queue_depth" => {
                    p.max_queue_depth = value.parse().map_err(|_| bad("not an integer"))?;
                }
                "max_finalize_p99_ns" => {
                    p.max_finalize_p99_ns = value.parse().map_err(|_| bad("not an integer"))?;
                }
                "min_commits_per_s" => {
                    p.min_commits_per_s = value.parse().map_err(|_| bad("not a float"))?;
                }
                "sustain" => p.sustain = value.parse().map_err(|_| bad("not an integer"))?,
                "recover" => p.recover = value.parse().map_err(|_| bad("not an integer"))?,
                other => return Err(format!("SLO spec: unknown key {other:?}")),
            }
        }
        p.sustain = p.sustain.max(1);
        p.recover = p.recover.max(1);
        Ok(p)
    }

    /// Whether `check` has a live threshold under this policy (disabled
    /// checks never leave `ok`).
    #[must_use]
    pub fn enabled(&self, check: HealthCheck) -> bool {
        match check {
            HealthCheck::HotShard => self.max_skew_share <= 1.0,
            HealthCheck::ConflictStorm => true,
            HealthCheck::QueueSaturation => self.max_queue_depth > 0,
            HealthCheck::LatencyBurn => self.max_finalize_p99_ns > 0,
            HealthCheck::CommitStall => self.min_commits_per_s > 0.0,
        }
    }

    /// One check's verdict on one window: `(breached, observed value,
    /// threshold, shard)` — `shard` is the implicated shard index for
    /// [`HealthCheck::HotShard`], `-1` otherwise.
    fn judge(&self, check: HealthCheck, w: &Window) -> (bool, f64, f64, i64) {
        match check {
            HealthCheck::HotShard => {
                let guarded = w.skew.total_ops >= self.min_window_ops;
                (
                    guarded && w.skew.max_share > self.max_skew_share,
                    w.skew.max_share,
                    self.max_skew_share,
                    w.skew.hottest_shard.map_or(-1, |s| s as i64),
                )
            }
            HealthCheck::ConflictStorm => {
                // conflict_rate is 0.0 on a commit-free window, so empty
                // windows are clean by construction.
                let guarded = w.skew.total_ops >= self.min_window_ops;
                (
                    guarded && w.conflict_rate > self.max_conflict_rate,
                    w.conflict_rate,
                    self.max_conflict_rate,
                    -1,
                )
            }
            HealthCheck::QueueSaturation => (
                self.max_queue_depth > 0 && w.queue_depth >= self.max_queue_depth,
                w.queue_depth as f64,
                self.max_queue_depth as f64,
                -1,
            ),
            HealthCheck::LatencyBurn => (
                self.max_finalize_p99_ns > 0 && w.finalize_p99_ns > self.max_finalize_p99_ns,
                w.finalize_p99_ns as f64,
                self.max_finalize_p99_ns as f64,
                -1,
            ),
            HealthCheck::CommitStall => (
                w.commits_per_s < self.min_commits_per_s,
                w.commits_per_s,
                self.min_commits_per_s,
                -1,
            ),
        }
    }
}

/// One level change of one check, as returned by
/// [`HealthMonitor::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The check that changed level.
    pub check: HealthCheck,
    /// The level it changed **to**.
    pub level: HealthLevel,
    /// Index of the window that caused the change.
    pub window: u64,
    /// The observed value that window (share, rate, depth, ns, /s —
    /// per the check).
    pub value: f64,
    /// The policy threshold the value was compared against.
    pub threshold: f64,
    /// Implicated shard ([`HealthCheck::HotShard`] names the hottest
    /// shard — the one a resharding policy would split); `-1` otherwise.
    pub shard: i64,
}

/// A retained `critical` escalation — what [`HealthReport::findings`]
/// carries and [`HealthReport::json`] embeds.
/// Same shape as the [`Transition`] that produced it.
pub type Finding = Transition;

/// Escalations retained per monitor; later ones only count in the
/// transition counters (an alert storm must not become an allocation
/// loop — the flight recorder caps its anomaly snapshots the same way).
const MAX_FINDINGS: usize = 64;

/// One check's state in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Which check.
    pub check: HealthCheck,
    /// Current level.
    pub level: HealthLevel,
    /// Whether the policy gives this check a live threshold.
    pub enabled: bool,
    /// Consecutive breached windows ending at the latest one.
    pub breach_streak: u32,
    /// Consecutive clean windows ending at the latest one.
    pub ok_streak: u32,
    /// The latest window's observed value for this check.
    pub value: f64,
    /// The policy threshold.
    pub threshold: f64,
}

/// Point-in-time output of a [`HealthMonitor`]: every check's state plus
/// the retained `critical` findings, renderable as the `/health.json`
/// body ([`HealthReport::json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Windows consumed so far.
    pub windows_observed: u64,
    /// Per-check state, in [`HEALTH_CHECKS`] order.
    pub checks: Vec<CheckReport>,
    /// Retained `critical` escalations, oldest first (capped; the
    /// `obs.health.transitions.critical` counter is the full total).
    pub findings: Vec<Finding>,
}

/// Zero non-finite floats so hand-rolled JSON stays valid.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Render one finding/transition as a JSON object (shared by the report
/// body and the run-record writer).
#[must_use]
pub fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"check\":\"{}\",\"level\":\"{}\",\"window\":{},\"value\":{},\"threshold\":{},\
         \"shard\":{}}}",
        f.check.as_str(),
        f.level.as_str(),
        f.window,
        finite(f.value),
        finite(f.threshold),
        f.shard,
    )
}

impl HealthReport {
    /// The worst level across every check (`ok` when all clear).
    #[must_use]
    pub fn worst_level(&self) -> HealthLevel {
        self.checks
            .iter()
            .map(|c| c.level)
            .max()
            .unwrap_or(HealthLevel::Ok)
    }

    /// Render as one JSON object (hand-rolled like the rest of the
    /// crate; all names are fixed identifiers, all values numeric or
    /// fixed strings).
    #[must_use]
    pub fn json(&self) -> String {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"check\":\"{}\",\"level\":\"{}\",\"enabled\":{},\"breach_streak\":{},\
                     \"ok_streak\":{},\"value\":{},\"threshold\":{}}}",
                    c.check.as_str(),
                    c.level.as_str(),
                    c.enabled,
                    c.breach_streak,
                    c.ok_streak,
                    finite(c.value),
                    finite(c.threshold),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let findings = self
            .findings
            .iter()
            .map(finding_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"level\":\"{}\",\"windows_observed\":{},\"checks\":[{checks}],\
             \"findings\":[{findings}]}}",
            self.worst_level().as_str(),
            self.windows_observed,
        )
    }
}

/// One check's hysteresis state.
struct CheckState {
    level: HealthLevel,
    breach_streak: u32,
    ok_streak: u32,
    value: f64,
    threshold: f64,
}

struct MonitorState {
    windows_observed: u64,
    checks: [CheckState; 5],
    findings: Vec<Finding>,
}

/// Consumes consecutive [`Window`]s against an [`SloPolicy`] and keeps
/// per-check hysteresis state. Feed it from the time-series sampler's
/// window observer ([`TimeseriesSampler::spawn_with`]) or call
/// [`HealthMonitor::observe`] directly; read [`HealthMonitor::report`]
/// any time from any thread (internal mutex — observation is cold-path,
/// once per sampling window).
///
/// [`TimeseriesSampler::spawn_with`]: crate::TimeseriesSampler::spawn_with
pub struct HealthMonitor {
    policy: SloPolicy,
    state: Mutex<MonitorState>,
    transitions_warn: Counter,
    transitions_critical: Counter,
    transitions_ok: Counter,
    level_gauges: [Gauge; 5],
    trace: Option<Arc<TraceRecorder>>,
}

impl HealthMonitor {
    /// A monitor over `policy`, counting transitions in `registry`
    /// (`obs.health.transitions.{warn,critical,ok}` counters, one
    /// `obs.health.<check>.level` gauge per check) and — when `trace` is
    /// attached — recording every transition as a
    /// [`TraceKind::HealthTransition`] event plus one
    /// [`AnomalyCause::SloViolation`] anomaly snapshot per `critical`
    /// escalation, so the alert's surrounding history lands in the
    /// flight recorder's anomaly buffer.
    #[must_use]
    pub fn new(
        policy: SloPolicy,
        registry: &MetricsRegistry,
        trace: Option<Arc<TraceRecorder>>,
    ) -> Self {
        let mut policy = policy;
        policy.sustain = policy.sustain.max(1);
        policy.recover = policy.recover.max(1);
        HealthMonitor {
            state: Mutex::new(MonitorState {
                windows_observed: 0,
                checks: HEALTH_CHECKS.map(|c| CheckState {
                    level: HealthLevel::Ok,
                    breach_streak: 0,
                    ok_streak: 0,
                    value: 0.0,
                    threshold: match c {
                        HealthCheck::HotShard => policy.max_skew_share,
                        HealthCheck::ConflictStorm => policy.max_conflict_rate,
                        HealthCheck::QueueSaturation => policy.max_queue_depth as f64,
                        HealthCheck::LatencyBurn => policy.max_finalize_p99_ns as f64,
                        HealthCheck::CommitStall => policy.min_commits_per_s,
                    },
                }),
                findings: Vec::new(),
            }),
            transitions_warn: registry.counter("obs.health.transitions.warn"),
            transitions_critical: registry.counter("obs.health.transitions.critical"),
            transitions_ok: registry.counter("obs.health.transitions.ok"),
            level_gauges: HEALTH_CHECKS
                .map(|c| registry.gauge(&format!("obs.health.{}.level", c.as_str()))),
            trace,
            policy,
        }
    }

    /// The policy this monitor enforces.
    #[must_use]
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Consume one window and return the transitions it caused (usually
    /// none). See the module docs for the hysteresis contract; a check
    /// the policy disables never transitions.
    pub fn observe(&self, w: &Window) -> Vec<Transition> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.windows_observed += 1;
        let mut out = Vec::new();
        for (i, check) in HEALTH_CHECKS.into_iter().enumerate() {
            let (breached, value, threshold, shard) = self.policy.judge(check, w);
            let enabled = self.policy.enabled(check);
            let cs = &mut st.checks[i];
            cs.value = value;
            cs.threshold = threshold;
            if !enabled {
                continue;
            }
            let mut to = None;
            if breached {
                cs.breach_streak += 1;
                cs.ok_streak = 0;
                if cs.level == HealthLevel::Ok {
                    cs.level = HealthLevel::Warn;
                    to = Some(HealthLevel::Warn);
                }
                if cs.breach_streak >= self.policy.sustain && cs.level == HealthLevel::Warn {
                    cs.level = HealthLevel::Critical;
                    to = Some(HealthLevel::Critical);
                }
            } else {
                cs.ok_streak += 1;
                cs.breach_streak = 0;
                if cs.level != HealthLevel::Ok && cs.ok_streak >= self.policy.recover {
                    cs.level = HealthLevel::Ok;
                    to = Some(HealthLevel::Ok);
                }
            }
            let Some(level) = to else { continue };
            self.level_gauges[i].set(level as i64);
            let t = Transition {
                check,
                level,
                window: w.index,
                value,
                threshold,
                shard,
            };
            // The check index is the recording "thread": transitions are
            // cold-path and each check's counter stripe is its own.
            match level {
                HealthLevel::Warn => self.transitions_warn.incr(i),
                HealthLevel::Critical => self.transitions_critical.incr(i),
                HealthLevel::Ok => self.transitions_ok.incr(i),
            }
            if let Some(tr) = &self.trace {
                tr.record(i, TraceKind::HealthTransition, i as u32, level as u64);
                if level == HealthLevel::Critical {
                    tr.note_anomaly(AnomalyCause::SloViolation, i);
                }
            }
            if level == HealthLevel::Critical && st.findings.len() < MAX_FINDINGS {
                st.findings.push(t.clone());
            }
            out.push(t);
        }
        out
    }

    /// Snapshot the monitor's state as a [`HealthReport`].
    #[must_use]
    pub fn report(&self) -> HealthReport {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        HealthReport {
            windows_observed: st.windows_observed,
            checks: HEALTH_CHECKS
                .into_iter()
                .enumerate()
                .map(|(i, check)| {
                    let cs = &st.checks[i];
                    CheckReport {
                        check,
                        level: cs.level,
                        enabled: self.policy.enabled(check),
                        breach_streak: cs.breach_streak,
                        ok_streak: cs.ok_streak,
                        value: cs.value,
                        threshold: cs.threshold,
                    }
                })
                .collect(),
            findings: st.findings.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SkewReport;

    /// A window with the given per-shard ops and otherwise-benign rates.
    fn skew_window(index: u64, shard_ops: &[u64]) -> Window {
        Window {
            index,
            start_ns: index * 1_000_000,
            dur_ns: 1_000_000,
            commits: shard_ops.iter().sum::<u64>().max(1),
            conflicts: 0,
            commits_per_s: 1000.0,
            conflict_rate: 0.0,
            queue_depth: 0,
            finalize_p99_ns: 1_000,
            skew: SkewReport::from_shard_ops(shard_ops),
            shard_ops: shard_ops.to_vec(),
        }
    }

    fn monitor(policy: SloPolicy) -> (HealthMonitor, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        (HealthMonitor::new(policy, &reg, None), reg)
    }

    #[test]
    fn policy_parse_overlays_defaults_and_rejects_junk() {
        let d = SloPolicy::default();
        assert_eq!(SloPolicy::parse("").unwrap(), d);
        let p = SloPolicy::parse("max_skew_share=0.9, sustain=5,max_queue_depth=512").unwrap();
        assert_eq!(p.max_skew_share, 0.9);
        assert_eq!(p.sustain, 5);
        assert_eq!(p.max_queue_depth, 512);
        assert_eq!(p.recover, d.recover, "untouched keys keep defaults");
        assert!(SloPolicy::parse("bogus=1").is_err());
        assert!(SloPolicy::parse("sustain").is_err(), "missing =");
        assert!(SloPolicy::parse("sustain=x").is_err());
        // Hysteresis windows are clamped to at least one window.
        assert_eq!(SloPolicy::parse("sustain=0,recover=0").unwrap().sustain, 1);
        assert_eq!(SloPolicy::parse("sustain=0,recover=0").unwrap().recover, 1);
    }

    #[test]
    fn default_policy_enables_skew_and_conflicts_only_where_meaningful() {
        let p = SloPolicy::default();
        assert!(p.enabled(HealthCheck::HotShard));
        assert!(p.enabled(HealthCheck::ConflictStorm));
        assert!(!p.enabled(HealthCheck::QueueSaturation), "0 disables");
        assert!(!p.enabled(HealthCheck::LatencyBurn), "0 disables");
        assert!(!p.enabled(HealthCheck::CommitStall), "0.0 disables");
        assert!(
            !SloPolicy::parse("max_skew_share=1.5")
                .unwrap()
                .enabled(HealthCheck::HotShard),
            "a share never exceeds 1.0, so >1.0 disables the check"
        );
    }

    /// Satellite: a one-window skew spike must NOT fire `HotShard`.
    #[test]
    fn one_window_spike_does_not_fire() {
        let (m, reg) = monitor(SloPolicy::parse("sustain=3").unwrap());
        // Spike: everything on shard 0 for one window...
        let t = m.observe(&skew_window(0, &[1000, 0, 0, 0]));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].level, HealthLevel::Warn, "first breach only warns");
        // ...then balanced again.
        for i in 1..10 {
            let t = m.observe(&skew_window(i, &[250, 250, 250, 250]));
            // Recovery back to ok after `recover` clean windows; never
            // critical.
            assert!(t.iter().all(|t| t.level != HealthLevel::Critical));
        }
        let r = m.report();
        assert_eq!(r.worst_level(), HealthLevel::Ok);
        assert!(r.findings.is_empty(), "no critical escalation retained");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("obs.health.transitions.critical"),
            Some(&crate::SnapshotValue::Counter(0))
        );
    }

    /// Satellite: N sustained breached windows must fire, and the
    /// finding names the hot shard.
    #[test]
    fn sustained_skew_fires_hot_shard() {
        let (m, reg) = monitor(SloPolicy::parse("sustain=3").unwrap());
        let mut fired_at = None;
        for i in 0..5 {
            for t in m.observe(&skew_window(i, &[0, 0, 900, 100])) {
                if t.level == HealthLevel::Critical {
                    assert_eq!(t.check, HealthCheck::HotShard);
                    fired_at = Some(i);
                }
            }
        }
        assert_eq!(fired_at, Some(2), "critical on the 3rd breached window");
        let r = m.report();
        assert_eq!(r.worst_level(), HealthLevel::Critical);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].check, HealthCheck::HotShard);
        assert_eq!(r.findings[0].shard, 2, "the finding names the hot shard");
        assert!(r.findings[0].value > 0.8);
        let json = r.json();
        assert!(json.contains("\"level\":\"critical\""), "{json}");
        assert!(json.contains("\"check\":\"hot_shard\""), "{json}");
        assert!(json.contains("\"shard\":2"), "{json}");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("obs.health.transitions.critical"),
            Some(&crate::SnapshotValue::Counter(1))
        );
        assert_eq!(
            snap.get("obs.health.hot_shard.level"),
            Some(&crate::SnapshotValue::Gauge(2))
        );
    }

    /// Satellite: recovery emits exactly one ok-transition.
    #[test]
    fn recovery_emits_exactly_one_ok_transition() {
        let (m, reg) = monitor(SloPolicy::parse("sustain=2,recover=2").unwrap());
        for i in 0..3 {
            let _ = m.observe(&skew_window(i, &[1000, 0]));
        }
        assert_eq!(m.report().worst_level(), HealthLevel::Critical);
        let mut ok_transitions = 0;
        for i in 3..10 {
            for t in m.observe(&skew_window(i, &[500, 500])) {
                assert_eq!(t.level, HealthLevel::Ok);
                assert_eq!(t.window, 4, "ok after `recover`=2 clean windows");
                ok_transitions += 1;
            }
        }
        assert_eq!(ok_transitions, 1, "exactly one ok-transition");
        assert_eq!(m.report().worst_level(), HealthLevel::Ok);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("obs.health.transitions.ok"),
            Some(&crate::SnapshotValue::Counter(1))
        );
        assert_eq!(
            snap.get("obs.health.hot_shard.level"),
            Some(&crate::SnapshotValue::Gauge(0))
        );
    }

    #[test]
    fn noise_guard_exempts_tiny_windows() {
        let (m, _reg) = monitor(SloPolicy::parse("sustain=1,min_window_ops=100").unwrap());
        // 10 ops all on one shard: under the guard, clean.
        for i in 0..5 {
            assert!(m.observe(&skew_window(i, &[10, 0])).is_empty());
        }
        assert_eq!(m.report().worst_level(), HealthLevel::Ok);
    }

    #[test]
    fn queue_latency_and_stall_checks_trigger_when_enabled() {
        let (m, _reg) = monitor(
            SloPolicy::parse(
                "sustain=1,max_queue_depth=64,max_finalize_p99_ns=1000000,min_commits_per_s=10",
            )
            .unwrap(),
        );
        let mut w = skew_window(0, &[300, 300]);
        w.queue_depth = 64;
        w.finalize_p99_ns = 2_000_000;
        w.commits_per_s = 1.0;
        let transitions = m.observe(&w);
        let critical: Vec<_> = transitions
            .iter()
            .filter(|t| t.level == HealthLevel::Critical)
            .map(|t| t.check)
            .collect();
        assert!(
            critical.contains(&HealthCheck::QueueSaturation),
            "{critical:?}"
        );
        assert!(critical.contains(&HealthCheck::LatencyBurn), "{critical:?}");
        assert!(critical.contains(&HealthCheck::CommitStall), "{critical:?}");
        let r = m.report();
        assert_eq!(r.findings.len(), 3);
        assert!(r.json().contains("\"check\":\"queue_saturation\""));
    }

    #[test]
    fn critical_escalation_snapshots_an_anomaly() {
        let reg = MetricsRegistry::new();
        let trace = Arc::new(TraceRecorder::new(8, 64));
        let m = HealthMonitor::new(
            SloPolicy::parse("sustain=2").unwrap(),
            &reg,
            Some(Arc::clone(&trace)),
        );
        for i in 0..2 {
            let _ = m.observe(&skew_window(i, &[1000, 0]));
        }
        assert_eq!(trace.anomaly_total(), 1, "critical noted one anomaly");
        let anomalies = trace.anomalies();
        assert_eq!(anomalies[0].cause, AnomalyCause::SloViolation);
        // Both the warn and the critical transition landed in the rings.
        let transitions: Vec<_> = trace
            .dump()
            .into_iter()
            .filter(|e| e.kind == TraceKind::HealthTransition)
            .collect();
        assert_eq!(transitions.len(), 2);
        assert_eq!(transitions[0].payload, HealthLevel::Warn as u64);
        assert_eq!(transitions[1].payload, HealthLevel::Critical as u64);
        assert_eq!(transitions[1].shard, HealthCheck::HotShard as u32);
    }

    #[test]
    fn report_json_is_well_formed_when_empty() {
        let (m, _reg) = monitor(SloPolicy::default());
        let json = m.report().json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"windows_observed\":0"), "{json}");
        assert!(json.contains("\"level\":\"ok\""), "{json}");
        assert!(json.contains("\"findings\":[]"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }
}
