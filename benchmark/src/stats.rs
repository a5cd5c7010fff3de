//! Percentiles, slice medians and quartiles.

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile is reported only with at least ten samples beyond it.
pub fn supports(samples: usize, p: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 == 0.09999999999999998`.
    samples as f64 * (1.0 - p) + 1e-6 >= 10.0
}

/// The highest of the usual percentiles that `samples` supports.
pub fn highest_supported(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(samples, p))
}

pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Latency samples of one stream, kept apart per slice.
#[derive(Clone, Debug, Default)]
pub struct SlicedSamples {
    slices: Vec<Vec<u64>>,
}

impl SlicedSamples {
    pub fn new(slices: usize, capacity_per_slice: usize) -> Self {
        SlicedSamples {
            slices: (0..slices)
                .map(|_| Vec::with_capacity(capacity_per_slice))
                .collect(),
        }
    }

    #[inline]
    pub fn push(&mut self, slice: usize, ns: u64) {
        self.slices[slice].push(ns);
    }

    pub fn merge(&mut self, other: &SlicedSamples) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.extend_from_slice(theirs);
        }
    }

    pub fn total(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Keep only the slices `keep` accepts.
    pub fn retain_slices(&mut self, keep: impl Fn(usize) -> bool) {
        let mut i = 0;
        self.slices.retain(|_| {
            i += 1;
            keep(i - 1)
        });
    }

    /// Percentile `p` of each slice; `None` when any slice is empty (a
    /// stream that went silent for a whole slice has no latency).
    pub fn per_slice(&mut self, p: f64) -> Option<Vec<f64>> {
        self.slices
            .iter_mut()
            .map(|s| {
                s.sort_unstable();
                percentile(s, p).map(|ns| ns as f64)
            })
            .collect()
    }

    pub fn min_slice_samples(&self) -> usize {
        self.slices.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default, exclusive method), so `compare` and the driver agree.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v[..1], 0.99), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(5_000), Some(0.99));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Four quiet slices and one with a stall: the per-slice p99s are
        // 99, 99, 9900, 99, 99 and their median is the quiet value.
        let mut s = SlicedSamples::new(5, 0);
        for slice in 0..5 {
            let scale = if slice == 2 { 100 } else { 1 };
            for i in 1..=100 {
                s.push(slice, i * scale);
            }
        }
        let p99 = s.per_slice(0.99).unwrap();
        assert_eq!(p99, [99.0, 99.0, 9900.0, 99.0, 99.0]);
        assert_eq!(median(&p99), Some(99.0));
        assert_eq!(median(&s.per_slice(0.50).unwrap()), Some(50.0));
        assert_eq!((s.min_slice_samples(), s.total()), (100, 500));
    }

    #[test]
    fn an_empty_slice_has_no_latency() {
        let mut s = SlicedSamples::new(2, 0);
        s.push(0, 5);
        assert_eq!(s.per_slice(0.5), None);
        assert_eq!(s.min_slice_samples(), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
