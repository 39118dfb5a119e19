//! Small streaming-statistics helpers used by the monitoring and report
//! layers (Table 1's avg/max runtimes, efficiency percentages, load
//! percentiles).

use serde::{Deserialize, Serialize};

/// Streaming summary: count, mean (Welford), min, max, sum.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// NaN-safe descending order on `f64` keys, for ranking closures.
///
/// Every "largest first" sort in the workspace (broker bandwidth
/// tie-breaks, demo site ranking, figure tables, per-user accounting)
/// wants the same total order: descending by value, never panicking and
/// never going unstable if a NaN sneaks in from an upstream division.
/// [`f64::total_cmp`] provides the total order among numbers; this
/// helper fixes the direction so call sites stop hand-rolling (and
/// occasionally flipping) the `b.total_cmp(&a)` idiom. NaN — of either
/// sign, unlike raw `total_cmp` — sorts *last* in descending order.
///
/// ```
/// use grid3_simkit::stats::cmp_f64_desc;
///
/// let mut xs = vec![1.0, f64::NAN, 3.0, 2.0];
/// xs.sort_by(|a, b| cmp_f64_desc(*a, *b));
/// assert_eq!(&xs[..3], &[3.0, 2.0, 1.0]);
/// assert!(xs[3].is_nan());
/// ```
pub fn cmp_f64_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// NaN-safe ascending order on `f64`, NaN (of either sign) last — the
/// ascending mirror of [`cmp_f64_desc`].
///
/// Raw [`f64::total_cmp`] puts `-NaN` *below* `-inf`, so a negatively
/// signed NaN from an upstream `0.0 / -0.0` would masquerade as the
/// sample minimum and leak into low percentiles. Here both NaN signs
/// rank after every number.
pub fn cmp_f64_asc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// Percentile of a sample (nearest-rank on a sorted copy). `p` in `[0,100]`.
///
/// NaN-safe: samples are ordered with [`cmp_f64_asc`], so a NaN that
/// sneaks in from an upstream division — of either sign — sorts to the
/// high end instead of panicking mid-report or posing as the minimum.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| cmp_f64_asc(*a, *b));
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A ratio expressed the way the paper reports it: `completed / attempted`,
/// guarded against empty denominators.
pub fn success_rate(completed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        completed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn cmp_f64_desc_is_a_descending_total_order() {
        use std::cmp::Ordering;
        assert_eq!(cmp_f64_desc(3.0, 1.0), Ordering::Less); // 3 ranks first
        assert_eq!(cmp_f64_desc(1.0, 3.0), Ordering::Greater);
        assert_eq!(cmp_f64_desc(2.0, 2.0), Ordering::Equal);
        // NaN lands at the end of a descending sort, not mid-sequence.
        let mut xs = [f64::NAN, 0.5, -1.0, f64::INFINITY];
        xs.sort_by(|a, b| cmp_f64_desc(*a, *b));
        assert_eq!(xs[0], f64::INFINITY);
        assert_eq!(xs[1], 0.5);
        assert_eq!(xs[2], -1.0);
        assert!(xs[3].is_nan());
    }

    #[test]
    fn percentile_puts_either_nan_sign_last() {
        // A negatively signed NaN (e.g. from 0.0 / -0.0) must not pose
        // as the minimum: low percentiles stay finite whenever finite
        // samples exist, and only the top rank can read out NaN.
        let neg_nan = f64::NAN.copysign(-1.0);
        let xs = [2.0, neg_nan, 1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!(percentile(&xs, 100.0).is_nan());
        use std::cmp::Ordering;
        assert_eq!(cmp_f64_asc(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_f64_asc(neg_nan, f64::NEG_INFINITY), Ordering::Greater);
        assert_eq!(cmp_f64_asc(f64::INFINITY, f64::NAN), Ordering::Less);
    }

    #[test]
    fn success_rate_guards_zero() {
        assert_eq!(success_rate(0, 0), 0.0);
        assert!((success_rate(7, 10) - 0.7).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn percentile_is_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     p in 0f64..100.0) {
                let v = percentile(&xs, p);
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo && v <= hi);
            }

            #[test]
            fn percentile_survives_nan_injection(
                xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                nan_at in proptest::collection::vec(0usize..100, 0..10),
                p in 0f64..100.0,
            ) {
                // Poison arbitrary positions with NaN; the call must not
                // panic, and finite percentiles must stay within the
                // finite sample range.
                let mut poisoned = xs.clone();
                for i in &nan_at {
                    let k = i % poisoned.len();
                    poisoned[k] = f64::NAN;
                }
                let v = percentile(&poisoned, p);
                let finite: Vec<f64> =
                    poisoned.iter().copied().filter(|x| x.is_finite()).collect();
                if v.is_finite() && !finite.is_empty() {
                    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(v >= lo && v <= hi);
                }
            }
        }
    }
}
