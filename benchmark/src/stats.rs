//! Order statistics for timings: median, quartiles, and tail percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spread this benchmark reports for
//! `--repeat` is the same number an outside check computes from the same
//! values.

/// Median, first and third quartile, and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single measured value (counts, ratios, one-shot timings).
    pub fn single(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// `(q3 − q1) / median`, the run-to-run spread as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the two middle values when even).
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of an ascending slice by the exclusive method.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Summarizes `values`, or `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let (q1, q3) = quartiles_sorted(&v);
    Some(Summary {
        median: median_sorted(&v),
        q1,
        q3,
        n: v.len(),
    })
}

/// Samples that must lie beyond a tail percentile before it is reported:
/// with fewer, the "percentile" is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p ∈ (0, 1)` of `values`, refused (`None`)
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).map(|s| s.median), Some(2.0));
        assert_eq!(
            summarize(&[4.0, 1.0, 3.0, 2.0]).map(|s| s.median),
            Some(2.5)
        );
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).expect("nonempty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]).expect("nonempty");
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        // The exclusive method extrapolates past two values:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).expect("nonempty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]).expect("nonempty");
        assert_eq!((s.q1, s.q3), (7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = summarize(&[9.0, 10.0, 10.0, 10.0, 11.0]).expect("nonempty");
        assert_eq!(s.iqr_share(), (10.5 - 9.5) / 10.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // 99 samples leave only 9 beyond the p90 rank.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // p50 of 20 samples has exactly 10 beyond it.
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&hundred, 1.0), None);
    }
}
