//! What every workload shares: the run's timeline (warm-up, then equal
//! slices), the per-thread recorder, repeated timed set-up, and the
//! main thread's slice clock that alternates tracing in a traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::pace::Sent;
use crate::stats::SlicedSamples;
use crate::trace::{self, Linked};

pub struct RunCfg {
    pub seed: u64,
    /// The measured interval.
    pub seconds: f64,
    pub slices: usize,
    pub warmup_s: f64,
    pub setup_repeats: usize,
    /// Traced run: `Timed` adapters in place, spans on in every other
    /// slice, per-layer metrics out.
    pub trace: bool,
    /// Where `ingest_durable` puts its WAL; inside the checkout.
    pub scratch: PathBuf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Slice(usize),
    Done,
}

/// Warm-up from `start`, then `slices` slices of `slice_ns` each.
#[derive(Clone, Copy)]
pub struct Timeline {
    pub start: Instant,
    warmup_ns: u64,
    slice_ns: u64,
    slices: usize,
}

impl Timeline {
    pub fn starting_now(cfg: &RunCfg) -> Self {
        Timeline {
            start: Instant::now(),
            warmup_ns: (cfg.warmup_s * 1e9) as u64,
            slice_ns: (cfg.seconds * 1e9 / cfg.slices as f64) as u64,
            slices: cfg.slices,
        }
    }

    pub fn phase_at(&self, offset_ns: u64) -> Phase {
        if offset_ns < self.warmup_ns {
            return Phase::Warmup;
        }
        let slice = ((offset_ns - self.warmup_ns) / self.slice_ns) as usize;
        if slice < self.slices {
            Phase::Slice(slice)
        } else {
            Phase::Done
        }
    }

    pub fn phase(&self, now: Instant) -> Phase {
        self.phase_at(now.duration_since(self.start).as_nanos() as u64)
    }

    pub fn slices(&self) -> usize {
        self.slices
    }

    pub fn slice_s(&self) -> f64 {
        self.slice_ns as f64 / 1e9
    }

    fn slice_end(&self, slice: usize) -> Instant {
        self.start + Duration::from_nanos(self.warmup_ns + (slice as u64 + 1) * self.slice_ns)
    }
}

/// In a traced run spans are on in even slices and off in odd ones.
pub fn traced_slice(slice: usize) -> bool {
    slice.is_multiple_of(2)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// CPU seconds (user + system) of the whole process so far.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; Linux has
    // fixed USER_HZ at 100 for every architecture this runs on.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The main thread's part of a run, while the load threads work: wait
/// out the warm-up, then at each slice end call `at_slice_end`; in a
/// traced run switch spans on for even slices. Returns the CPU seconds
/// the process spent over the measured interval.
pub fn run_slices(timeline: &Timeline, trace: bool, mut at_slice_end: impl FnMut(usize)) -> f64 {
    sleep_until(timeline.start + Duration::from_nanos(timeline.warmup_ns));
    let cpu0 = process_cpu_s();
    for slice in 0..timeline.slices {
        trace::set_on(trace && traced_slice(slice));
        sleep_until(timeline.slice_end(slice));
        at_slice_end(slice);
    }
    trace::set_on(false);
    process_cpu_s() - cpu0
}

/// What one load thread saw. Counts cover the measured interval only.
pub struct Recorder {
    /// Completed main-stream operations per slice.
    pub main_ops: Vec<u64>,
    /// Main-stream and write-side operations completed since the
    /// warm-up began: the denominators of whole-run counter ratios.
    pub all_main_ops: u64,
    pub all_write_ops: u64,
    pub write: SlicedSamples,
    pub rq: SlicedSamples,
    pub attempted: u64,
    pub failed: u64,
    pub open_sends: u64,
    pub late_sends: u64,
    pub violations: Vec<String>,
}

impl Recorder {
    pub fn new(timeline: &Timeline, samples_per_slice: usize) -> Self {
        Recorder {
            main_ops: vec![0; timeline.slices()],
            all_main_ops: 0,
            all_write_ops: 0,
            write: SlicedSamples::new(timeline.slices(), samples_per_slice),
            rq: SlicedSamples::new(timeline.slices(), samples_per_slice),
            attempted: 0,
            failed: 0,
            open_sends: 0,
            late_sends: 0,
            violations: Vec::new(),
        }
    }

    /// Book one open-loop send of `slice`; returns its latency.
    pub fn open_loop(&mut self, sent: Sent) -> u64 {
        self.open_sends += 1;
        self.late_sends += u64::from(sent.generator_late());
        sent.latency_ns
    }

    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        // The first few say what went wrong; the count says how often.
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (a, b) in self.main_ops.iter_mut().zip(&other.main_ops) {
            *a += b;
        }
        self.all_main_ops += other.all_main_ops;
        self.all_write_ops += other.all_write_ops;
        self.write.merge(&other.write);
        self.rq.merge(&other.rq);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.open_sends += other.open_sends;
        self.late_sends += other.late_sends;
        self.violations.extend(other.violations);
    }
}

/// Everything a workload hands back.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rec: Recorder,
    pub slice_s: f64,
    pub cpu_s: f64,
    /// Workload-derived per-layer values (counters read around the run);
    /// span-derived ones are computed from `spans` by the caller.
    pub layer: Vec<(&'static str, f64)>,
    pub spans: Vec<Linked>,
}

impl Measured {
    /// Assemble a workload's result once its load threads (and any
    /// committer) have exited and flushed their spans.
    pub fn collect(
        timeline: &Timeline,
        rec: Recorder,
        cpu_s: f64,
        layer: Vec<(&'static str, f64)>,
        setup_s: Vec<f64>,
    ) -> Self {
        Measured {
            setup_s,
            rec,
            slice_s: timeline.slice_s(),
            cpu_s,
            layer,
            spans: trace::link_all(&trace::drain()),
        }
    }
}

/// Time one set-up. The first of a run builds the environment the run
/// measures, on the process's fresh heap, so the measured structure's
/// memory layout does not depend on what was freed before it.
pub fn timed_setup<E>(times: &mut Vec<f64>, setup: impl FnOnce() -> E) -> E {
    let t = Instant::now();
    let env = setup();
    times.push(t.elapsed().as_secs_f64());
    env
}

/// After the measured environment is gone, set up again until
/// `cfg.setup_repeats` set-ups are timed (each torn down untimed).
pub fn repeat_setups<E>(cfg: &RunCfg, times: &mut Vec<f64>, mut setup: impl FnMut() -> E) {
    while times.len() < cfg.setup_repeats {
        drop(timed_setup(times, &mut setup));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_cuts_warmup_then_equal_slices() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 10.0,
            slices: 5,
            warmup_s: 2.0,
            setup_repeats: 1,
            trace: false,
            scratch: PathBuf::new(),
        };
        let t = Timeline::starting_now(&cfg);
        assert_eq!(t.phase_at(0), Phase::Warmup);
        assert_eq!(t.phase_at(1_999_999_999), Phase::Warmup);
        assert_eq!(t.phase_at(2_000_000_000), Phase::Slice(0));
        assert_eq!(t.phase_at(5_999_999_999), Phase::Slice(1));
        assert_eq!(t.phase_at(11_999_999_999), Phase::Slice(4));
        assert_eq!(t.phase_at(12_000_000_000), Phase::Done);
        assert_eq!(t.slice_s(), 2.0);
    }

    #[test]
    fn proc_readings_parse() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
