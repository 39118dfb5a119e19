//! Sampling distributions used to calibrate workloads and failures.
//!
//! Table 1 of the paper shows per-VO job populations whose mean and maximum
//! runtimes differ by two orders of magnitude (USCMS mean 41.85 h,
//! max 1238.93 h; Exerciser mean 0.13 h, max 36.45 h) — heavy-tailed shapes
//! that a log-normal with a hard cap reproduces well. Failure interarrivals
//! (§6: "a disk would fill up or a service would fail") are modelled as
//! Poisson processes, i.e. exponential gaps.

use crate::rng::SimRng;
use crate::time::SimDuration;
use rand_distr::{Distribution, Exp, LogNormal};
use serde::{Deserialize, Serialize};

/// A duration sampler: the shapes needed by the Grid3 workload generators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DurationDist {
    /// Always the same duration (e.g. the 15-minute exerciser cadence).
    Fixed(
        /// The constant duration returned by every sample.
        SimDuration,
    ),
    /// Uniform between two bounds.
    Uniform {
        /// Lower bound (inclusive).
        lo: SimDuration,
        /// Upper bound (exclusive).
        hi: SimDuration,
    },
    /// Exponential with the given mean — Poisson-process interarrivals.
    Exponential {
        /// Mean of the distribution.
        mean: SimDuration,
    },
    /// Log-normal parameterised by its median and the σ of the underlying
    /// normal, truncated at `cap`. This is the job-runtime workhorse.
    LogNormalCapped {
        /// Median duration (e^μ of the underlying normal).
        median: SimDuration,
        /// σ of the underlying normal; larger ⇒ heavier tail.
        sigma: f64,
        /// Hard upper truncation (batch queues impose max walltimes).
        cap: SimDuration,
    },
}

impl DurationDist {
    /// Draw a sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            DurationDist::Fixed(d) => d,
            DurationDist::Uniform { lo, hi } => {
                SimDuration::from_secs_f64(rng.range_f64(lo.as_secs_f64(), hi.as_secs_f64()))
            }
            DurationDist::Exponential { mean } => {
                let m = mean.as_secs_f64();
                if m <= 0.0 {
                    return SimDuration::ZERO;
                }
                let exp = Exp::new(1.0 / m).expect("positive rate");
                SimDuration::from_secs_f64(exp.sample(rng.raw()))
            }
            DurationDist::LogNormalCapped { median, sigma, cap } => {
                let mu = median.as_secs_f64().max(1e-9).ln();
                let ln = LogNormal::new(mu, sigma.max(0.0)).expect("finite params");
                let v = ln.sample(rng.raw());
                SimDuration::from_secs_f64(v.min(cap.as_secs_f64()))
            }
        }
    }
}

/// A size sampler for dataset/file sizes, in bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SizeDist {
    /// A constant size (e.g. LIGO's ~4 GB per-job stage-in of §4.4).
    Fixed(
        /// The constant byte count returned by every sample.
        u64,
    ),
    /// Uniform in `[lo, hi)` bytes.
    Uniform {
        /// Lower bound (inclusive), bytes.
        lo: u64,
        /// Upper bound (exclusive), bytes.
        hi: u64,
    },
    /// Log-normal with given median bytes and σ, capped.
    LogNormalCapped {
        /// Median size in bytes.
        median: u64,
        /// σ of the underlying normal.
        sigma: f64,
        /// Hard upper truncation, bytes.
        cap: u64,
    },
}

impl SizeDist {
    /// Draw a sample, in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            SizeDist::Fixed(b) => b,
            SizeDist::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    lo + (rng.unit() * (hi - lo) as f64) as u64
                }
            }
            SizeDist::LogNormalCapped { median, sigma, cap } => {
                let mu = (median.max(1) as f64).ln();
                let ln = LogNormal::new(mu, sigma.max(0.0)).expect("finite params");
                (ln.sample(rng.raw()) as u64).min(cap)
            }
        }
    }
}

/// Sample an exponential interarrival gap with the given mean directly.
pub fn exp_gap(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    DurationDist::Exponential { mean }.sample(rng)
}

/// An arrival process: how submission instants are laid out in time.
///
/// Workloads that omit an arrival process use the legacy monthly-uniform
/// layout (uniform instants within each calendar month, SC2003 surge week
/// carved out of November); this enum covers the declarative alternatives
/// a scenario file can request instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `per_day` jobs/day: exponential
    /// gaps from the window start until the window is exhausted.
    Poisson {
        /// Mean arrival rate, in jobs per day.
        per_day: f64,
    },
    /// A fixed cadence: one arrival every `every`, starting `offset` after
    /// the window start (the §4.7 exerciser's 15-minute drumbeat shape).
    Periodic {
        /// Gap between consecutive arrivals.
        every: SimDuration,
        /// Offset of the first arrival from the window start.
        offset: SimDuration,
    },
}

impl ArrivalProcess {
    /// Generate ascending arrival offsets covering `[0, window)`.
    pub fn arrivals(&self, rng: &mut SimRng, window: SimDuration) -> Vec<SimDuration> {
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Poisson { per_day } => {
                if per_day <= 0.0 {
                    return out;
                }
                let mean = SimDuration::from_secs_f64(86_400.0 / per_day);
                let mut t = exp_gap(rng, mean);
                while t < window {
                    out.push(t);
                    t += exp_gap(rng, mean);
                }
            }
            ArrivalProcess::Periodic { every, offset } => {
                if every == SimDuration::ZERO {
                    return out;
                }
                let mut t = offset;
                while t < window {
                    out.push(t);
                    t += every;
                }
            }
        }
        out
    }

    /// Scale the arrival intensity by `factor` (campaign `--scale` support).
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        match *self {
            ArrivalProcess::Poisson { per_day } => ArrivalProcess::Poisson {
                per_day: per_day * factor,
            },
            ArrivalProcess::Periodic { every, offset } => ArrivalProcess::Periodic {
                every: if factor > 0.0 {
                    SimDuration::from_secs_f64(every.as_secs_f64() / factor)
                } else {
                    every
                },
                offset,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn rng() -> SimRng {
        SimRng::for_entity(2003, 1025)
    }

    #[test]
    fn fixed_is_fixed() {
        let d = DurationDist::Fixed(SimDuration::from_mins(15));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), SimDuration::from_mins(15));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let d = DurationDist::Uniform {
            lo: SimDuration::from_secs(10),
            hi: SimDuration::from_secs(20),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!(s >= SimDuration::from_secs(10) && s < SimDuration::from_secs(20));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mean = SimDuration::from_hours(2);
        let d = DurationDist::Exponential { mean };
        let mut r = rng();
        let n = 20_000;
        let avg: f64 = (0..n).map(|_| d.sample(&mut r).as_secs_f64()).sum::<f64>() / n as f64;
        let expect = mean.as_secs_f64();
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg {avg} vs {expect}"
        );
    }

    #[test]
    fn lognormal_is_capped_and_heavy_tailed() {
        // Roughly USCMS-shaped: long median, huge cap.
        let d = DurationDist::LogNormalCapped {
            median: SimDuration::from_hours(20),
            sigma: 1.2,
            cap: SimDuration::from_hours(1_240),
        };
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000)
            .map(|_| d.sample(&mut r).as_hours_f64())
            .collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let median_est = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(max <= 1_240.0 + 1e-9);
        assert!(
            mean > median_est,
            "heavy tail: mean {mean} > median {median_est}"
        );
        assert!(
            (median_est - 20.0).abs() / 20.0 < 0.1,
            "median {median_est}"
        );
    }

    #[test]
    fn size_dist_samples_in_range() {
        let mut r = rng();
        assert_eq!(SizeDist::Fixed(4_000).sample(&mut r), 4_000);
        for _ in 0..1000 {
            let s = SizeDist::Uniform { lo: 10, hi: 20 }.sample(&mut r);
            assert!((10..20).contains(&s));
        }
        for _ in 0..1000 {
            let s = SizeDist::LogNormalCapped {
                median: 2_000_000_000,
                sigma: 0.5,
                cap: 10_000_000_000,
            }
            .sample(&mut r);
            assert!(s <= 10_000_000_000);
        }
    }

    #[test]
    fn poisson_arrivals_track_rate_and_stay_in_window() {
        let p = ArrivalProcess::Poisson { per_day: 48.0 };
        let window = SimDuration::from_days(30);
        let mut r = rng();
        let arrivals = p.arrivals(&mut r, window);
        for pair in arrivals.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!(arrivals.iter().all(|t| *t < window));
        // 48 arrivals a day over 30 days.
        let expect = 48.0 * 30.0;
        let got = arrivals.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.15,
            "got {got} vs expected {expect}"
        );
    }

    #[test]
    fn periodic_arrivals_are_exact() {
        let p = ArrivalProcess::Periodic {
            every: SimDuration::from_mins(15),
            offset: SimDuration::from_mins(5),
        };
        let arrivals = p.arrivals(&mut rng(), SimDuration::from_hours(1));
        assert_eq!(
            arrivals,
            vec![
                SimDuration::from_mins(5),
                SimDuration::from_mins(20),
                SimDuration::from_mins(35),
                SimDuration::from_mins(50),
            ]
        );
    }

    #[test]
    fn arrival_scaling_multiplies_intensity() {
        let p = ArrivalProcess::Poisson { per_day: 10.0 }.scaled(3.0);
        assert_eq!(p, ArrivalProcess::Poisson { per_day: 30.0 });
        let q = ArrivalProcess::Periodic {
            every: SimDuration::from_mins(30),
            offset: SimDuration::ZERO,
        }
        .scaled(2.0);
        assert_eq!(
            q,
            ArrivalProcess::Periodic {
                every: SimDuration::from_mins(15),
                offset: SimDuration::ZERO,
            }
        );
        // Degenerate rates produce empty schedules, not hangs.
        assert!(ArrivalProcess::Poisson { per_day: 0.0 }
            .arrivals(&mut rng(), SimDuration::from_days(1))
            .is_empty());
        assert!(ArrivalProcess::Periodic {
            every: SimDuration::ZERO,
            offset: SimDuration::ZERO,
        }
        .arrivals(&mut rng(), SimDuration::from_days(1))
        .is_empty());
    }

    #[test]
    fn degenerate_params_do_not_panic() {
        let mut r = rng();
        assert_eq!(
            DurationDist::Exponential {
                mean: SimDuration::ZERO
            }
            .sample(&mut r),
            SimDuration::ZERO
        );
        let _ = DurationDist::LogNormalCapped {
            median: SimDuration::ZERO,
            sigma: -1.0,
            cap: SimDuration::from_secs(1),
        }
        .sample(&mut r);
        assert_eq!(SizeDist::Uniform { lo: 5, hi: 5 }.sample(&mut r), 5);
    }
}
