//! The benchmark's own arithmetic: order statistics and error
//! accounting. Kept free of I/O so the unit tests below pin it exactly.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are `<=` it (rank `ceil(p/100 · n)`,
/// clamped to `1..=n`). Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Number of samples strictly above the nearest-rank `p`-th percentile:
/// the guide's "at least ten samples beyond it" test for a tail metric.
pub fn samples_beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(q) => samples.iter().filter(|&&s| s > q).count(),
        None => 0,
    }
}

/// Median: the middle sample, or the mean of the two middle samples for
/// an even count. `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile_inclusive(samples, 0.5)
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(data, n=4)` computes them (the default
/// "exclusive" method: position `q · (n + 1)`, linearly interpolated,
/// clamped to the extremes). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = pos.floor() as usize;
        let delta = pos - j as f64;
        if j == 0 {
            sorted[0]
        } else if j >= n {
            sorted[n - 1]
        } else {
            sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
        }
    };
    Some((at(0.25), at(0.75)))
}

fn quantile_inclusive(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Operations attempted and failed in one run. `error_rate` is
/// `failed / attempted`; an operation that failed in several ways (an
/// HTTP error on a job that also ended non-`Completed`) counts once per
/// recorded failure, so callers record each operation's outcome once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `n` operations of which `failed` failed.
    pub fn record_many(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; 1 when nothing was attempted (a run that
    /// did no work has failed).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − error_rate`: the never-zero form the end-to-end gate uses.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.error_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_sample_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&s, 90.0), 10);
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(samples_beyond(&s, 90.0), 9);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [1.0, 1.5, 2.0]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((1.0, 2.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn error_rate_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 1.0, "no work attempted is a failure");
        t.record(true);
        t.record(false);
        t.record_many(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((t.error_rate() - 0.2).abs() < 1e-12);
        assert!((t.success_rate() - 0.8).abs() < 1e-12);
        let mut u = Tally::default();
        u.record_many(3, 5); // more failures than operations clamps
        assert_eq!(u.failed, 3);
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 13,
                failed: 5
            }
        );
    }
}
