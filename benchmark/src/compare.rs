//! `benchmark compare <parent.json> <change.json> [<parent.json>
//! <change.json> ...]`: result files in the order they were run,
//! alternating parent and change, judged per (workload, end-to-end
//! metric) row against the bounds the benchmark fixed.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own runs spread wider than the bound: the row can
    /// show neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A gain needs at least this many pairs, nine tenths of them won.
const MIN_PAIRS: usize = 10;

/// `parent[i]` and `change[i]` are the two sides of pair `i`.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some([q1, mp, q3]), Some(mc)) = (quartiles(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let spread = q3 - q1;
    if mp == 0.0 || spread / mp.abs() > bound {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Higher => mc - mp,
        Better::Lower => mp - mc,
    };
    if -gain / mp.abs() > bound {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Higher => c > p,
            Better::Lower => c < p,
        })
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

type Rows = BTreeMap<(usize, usize), Vec<f64>>;

/// Collect the untraced runs of one result file into `rows`, keyed by
/// (workload index, end-to-end metric index).
fn collect(file: &Json, rows: &mut Rows) -> Result<(), String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?;
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let name = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload")?;
        let w = WORKLOADS
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        for (m, spec) in END_TO_END.iter().enumerate() {
            let value = run
                .get("metrics")
                .and_then(|ms| ms.get(spec.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} lacks {}", spec.name))?;
            rows.entry((w, m)).or_default().push(value);
        }
    }
    Ok(())
}

fn quart(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:>12.3} [{q1:.3}, {q3:.3}]"),
        None => format!(
            "{:>12.3} [one run]",
            values.first().copied().unwrap_or(f64::NAN)
        ),
    }
}

/// Returns the printed report and whether any row regressed.
pub fn compare(files: &[(String, Json)]) -> Result<(String, bool), String> {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        return Err(
            "compare takes result files in pairs: parent change [parent change ...]".into(),
        );
    }
    let (mut parent, mut change) = (Rows::new(), Rows::new());
    for (i, (path, file)) in files.iter().enumerate() {
        let side = if i % 2 == 0 { &mut parent } else { &mut change };
        collect(file, side).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut out = format!(
        "{:<18} {:<18} {:<38} {:<38} {:>8}  verdict (bound)\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    let mut regressed = false;
    for (&(w, m), p) in &parent {
        let Some(c) = change.get(&(w, m)) else {
            continue;
        };
        let spec = &END_TO_END[m];
        let verdict = judge(p, c, spec.better, spec.bound);
        regressed |= verdict == Verdict::Regressed;
        let delta = match (median(p), median(c)) {
            (Some(mp), Some(mc)) if mp != 0.0 => format!("{:+.1}%", (mc - mp) / mp * 100.0),
            _ => "n/a".into(),
        };
        out.push_str(&format!(
            "{:<18} {:<18} {:<38} {:<38} {:>8}  {} ({}{:.0}%)\n",
            WORKLOADS[w].name,
            spec.name,
            quart(p),
            quart(c),
            delta,
            verdict.label(),
            if spec.better == Better::Higher {
                "-"
            } else {
                "+"
            },
            spec.bound * 100.0
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - (n - 1) as f64 / 2.0))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let parent = around(100.0, 0.2, 10);
        // Same numbers: unchanged.
        assert_eq!(
            judge(&parent, &parent, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // 15% slower against a 10% bound: regressed; 5% slower: within it.
        assert_eq!(
            judge(&parent, &around(115.0, 0.2, 10), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &around(105.0, 0.2, 10), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(&parent, &around(90.0, 0.2, 10), Better::Higher, 0.07),
            Verdict::Regressed
        );
        // Every pair won and the medians differ by more than the spread.
        assert_eq!(
            judge(&parent, &around(90.0, 0.2, 10), Better::Lower, 0.10),
            Verdict::Improved
        );
        // The same gain on five pairs is not yet a claim.
        assert_eq!(
            judge(&parent[..5], &around(90.0, 0.2, 5), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // A parent that swings 30% resolves nothing.
        assert_eq!(
            judge(
                &around(100.0, 6.0, 10),
                &around(150.0, 0.2, 10),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_gain_inside_the_parents_spread_is_no_gain() {
        let parent = around(100.0, 1.0, 10);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(
            judge(&parent, &change, Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }
}
