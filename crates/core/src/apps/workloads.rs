//! Calibrated workload generators for the seven Table 1 user classes.
//!
//! Table 1 gives, per class, the completed-job count, average and maximum
//! runtimes, total CPU-days, and the peak production month over the
//! 2003-10-23 … 2004-04-23 window. The generators here are calibrated so a
//! full seven-month run reproduces those numbers' *shape*: job counts per
//! month follow a per-class intensity profile consistent with the
//! published totals and peak months; runtimes are log-normal with the
//! published mean, truncated at the published maximum.
//!
//! The monthly intensity profiles are synthetic (the paper publishes only
//! totals and peaks); they are chosen to sum to the published totals with
//! the published peak month, and are documented in EXPERIMENTS.md.

use grid3_simkit::dist::{ArrivalProcess, DurationDist, SizeDist};
use grid3_simkit::ids::UserId;
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{month_bounds, SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize};

/// One job submission produced by a generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// When the job is submitted.
    pub at: SimTime,
    /// What is submitted.
    pub spec: JobSpec,
}

/// A calibrated per-class workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The user class this generator models.
    pub class: UserClass,
    /// Distinct users submitting (Table 1 "Number of Users").
    pub users: u32,
    /// Fraction of submissions made by the first user (the application
    /// administrator — §7: "about 10 % of users are application
    /// administrators who perform most job submissions").
    pub admin_share: f64,
    /// Jobs per month-index (0 = Oct 2003); sums to the Table 1 total.
    pub monthly_jobs: Vec<u64>,
    /// Runtime distribution (reference CPU).
    pub runtime: DurationDist,
    /// Stage-in size distribution.
    pub input: SizeDist,
    /// Stage-out size distribution.
    pub output: SizeDist,
    /// Files staged per job.
    pub staged_files: u32,
    /// Whether jobs need outbound connectivity (§6.4 criterion 1).
    pub needs_outbound: bool,
    /// Whether outputs are registered in RLS.
    pub registers_output: bool,
    /// Walltime request margin over sampled runtime.
    pub walltime_margin: f64,
    /// Probability a user underestimates the runtime and requests too
    /// little walltime (the job is killed at the limit — the §6.4
    /// "maximum allowable runtime … may not have been long enough for the
    /// proposed task" hazard).
    pub walltime_underestimate_prob: f64,
    /// Probability a submission prefers a site owned by the class's VO
    /// (§6.4: "applications tend to favor the resources provided within
    /// their VO").
    pub vo_affinity: f64,
    /// Fraction of November (month 1) submissions concentrated into the
    /// SC2003 demo week (Nov 15–21): the paper used SC2003 "to initiate
    /// sustained operations" and hit its 1300-concurrent-jobs peak on
    /// Nov 20 (§7).
    pub sc2003_surge_frac: f64,
    /// Optional declarative arrival process. `None` (the default, and what
    /// every built-in workload uses) keeps the legacy monthly-uniform
    /// layout driven by `monthly_jobs`; `Some` replaces it entirely —
    /// submission instants come from the process over the same window.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub arrivals: Option<ArrivalProcess>,
}

/// First day (from epoch) of the SC2003 week: Nov 15, 2003.
pub(crate) const SC2003_START_DAY: u64 = 21;
/// Day after the SC2003 week ends: Nov 22, 2003.
pub(crate) const SC2003_END_DAY: u64 = 28;

impl WorkloadSpec {
    /// Total jobs over the whole window.
    #[cfg(test)]
    pub(crate) fn total_jobs(&self) -> u64 {
        self.monthly_jobs.iter().sum()
    }

    /// The peak month's index and job count.
    #[cfg(test)]
    pub(crate) fn peak_month(&self) -> (u32, u64) {
        self.monthly_jobs
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| **n)
            .map(|(i, n)| (i as u32, *n))
            .unwrap_or((0, 0))
    }

    /// Generate the submission schedule up to (excluding) `until`,
    /// time-ordered: the submissions in draw order, stable-sorted by
    /// instant, so submissions drawn at the same instant stay in draw
    /// order. The result equals a full seven-month schedule filtered to
    /// `at < until`.
    pub fn schedule(
        &self,
        rng: &mut SimRng,
        first_user: UserId,
        until: SimTime,
    ) -> Vec<Submission> {
        let mut subs = self.draw(rng, first_user, until);
        subs.sort_by_key(|s| s.at);
        subs
    }

    /// Draw the submissions before `until` in draw order, which is not
    /// time order: submission instants are uniform within each month.
    /// Users are assigned with the admin taking `admin_share` of
    /// submissions.
    ///
    /// Generation stops at the first month starting at or after `until`.
    /// Each generated month is still drawn in full, so the kept
    /// submissions draw exactly the RNG values a full seven-month
    /// schedule would: the result equals the full draw filtered to
    /// `at < until`. The result is allocated once, sized from the drawn
    /// months' job counts.
    pub(crate) fn draw(
        &self,
        rng: &mut SimRng,
        first_user: UserId,
        until: SimTime,
    ) -> Vec<Submission> {
        if let Some(process) = &self.arrivals {
            return self.draw_process(process, rng, first_user, until);
        }
        let months = (0..self.monthly_jobs.len())
            .take_while(|&m| month_bounds(m as u32).0 < until)
            .count();
        let drawn: u64 = self.monthly_jobs[..months].iter().sum();
        let mut subs = Vec::with_capacity(drawn as usize);
        for (month, &count) in self.monthly_jobs[..months].iter().enumerate() {
            let (start, end) = month_bounds(month as u32);
            let span = end.since(start).as_secs_f64();
            let surge_start = SimTime::from_days(SC2003_START_DAY);
            let surge_span = SimTime::from_days(SC2003_END_DAY)
                .since(surge_start)
                .as_secs_f64();
            for _ in 0..count {
                // In November a surge fraction lands in the SC2003 week.
                let at = if month == 1 && rng.chance(self.sc2003_surge_frac) {
                    surge_start + SimDuration::from_secs_f64(rng.unit() * surge_span)
                } else {
                    start + SimDuration::from_secs_f64(rng.unit() * span)
                };
                let user = self.pick_user(rng, first_user);
                let spec = self.sample_spec(rng, user);
                if at < until {
                    subs.push(Submission { at, spec });
                }
            }
        }
        subs
    }

    /// Draw via a declarative arrival process over the workload's month
    /// window (`monthly_jobs.len()` months from the epoch). The whole
    /// window's offsets are drawn (ascending); specs are drawn only for
    /// the arrivals before `until`.
    fn draw_process(
        &self,
        process: &ArrivalProcess,
        rng: &mut SimRng,
        first_user: UserId,
        until: SimTime,
    ) -> Vec<Submission> {
        let months = self.monthly_jobs.len().max(1) as u32;
        let (window_start, _) = month_bounds(0);
        let (_, window_end) = month_bounds(months - 1);
        let window = window_end.since(window_start);
        let offsets = process.arrivals(rng, window);
        let kept = offsets.partition_point(|&offset| window_start + offset < until);
        let mut subs = Vec::with_capacity(kept);
        for &offset in &offsets[..kept] {
            let at = window_start + offset;
            let user = self.pick_user(rng, first_user);
            subs.push(Submission {
                at,
                spec: self.sample_spec(rng, user),
            });
        }
        subs
    }

    /// Sample one job spec for `user`.
    pub(crate) fn sample_spec(&self, rng: &mut SimRng, user: UserId) -> JobSpec {
        let runtime = self.runtime.sample(rng);
        let input = Bytes::new(self.input.sample(rng));
        let output = Bytes::new(self.output.sample(rng));
        // Most users request a comfortable margin; a few underestimate and
        // are killed at the batch limit.
        let margin = if rng.chance(self.walltime_underestimate_prob) {
            rng.range_f64(0.4, 0.75)
        } else {
            self.walltime_margin
        };
        JobSpec {
            class: self.class,
            user,
            reference_runtime: runtime,
            requested_walltime: runtime * margin,
            input_bytes: input,
            output_bytes: output,
            scratch_bytes: output,
            needs_outbound: self.needs_outbound,
            staged_files: self.staged_files,
            registers_output: self.registers_output,
        }
    }

    fn pick_user(&self, rng: &mut SimRng, first_user: UserId) -> UserId {
        if self.users <= 1 || rng.chance(self.admin_share) {
            first_user
        } else {
            UserId(first_user.0 + 1 + rng.below(self.users as usize - 1) as u32)
        }
    }
}

/// Build a log-normal runtime distribution from a target mean and cap
/// (mean = median·e^{σ²/2} ⇒ median = mean·e^{−σ²/2}).
fn runtime_dist(mean_hr: f64, sigma: f64, max_hr: f64) -> DurationDist {
    let median_hr = mean_hr * (-sigma * sigma / 2.0).exp();
    DurationDist::LogNormalCapped {
        median: SimDuration::from_hours_f64(median_hr),
        sigma,
        cap: SimDuration::from_hours_f64(max_hr),
    }
}

/// The seven calibrated Grid3 workloads, in Table 1 column order.
///
/// Job totals and peak months match Table 1 exactly; monthly profiles are
/// synthetic but consistent (documented in EXPERIMENTS.md).
pub(crate) fn grid3_workloads() -> Vec<WorkloadSpec> {
    vec![
        // BTEV: 1 user, 2598 jobs, avg 1.77 h, max 118.27 h, peak 11-2003
        // (2377 jobs — an intensely bursty November challenge run, §4.5).
        WorkloadSpec {
            class: UserClass::Btev,
            users: 1,
            admin_share: 1.0,
            monthly_jobs: vec![100, 2377, 60, 30, 15, 10, 6],
            runtime: runtime_dist(1.77, 1.2, 118.27),
            input: SizeDist::Fixed(50_000_000),
            output: SizeDist::LogNormalCapped {
                median: 300_000_000,
                sigma: 0.5,
                cap: 2_000_000_000,
            },
            staged_files: 2,
            needs_outbound: false,
            registers_output: true,
            walltime_margin: 2.0,
            walltime_underestimate_prob: 0.01,
            vo_affinity: 0.6,
            sc2003_surge_frac: 0.6,
            arrivals: None,
        },
        // iVDGL (SnB + GADU): 24 users, 58145 jobs, avg 1.22 h,
        // max 291.74 h, peak 11-2003 (25722, 88.1 % from one site).
        WorkloadSpec {
            class: UserClass::Ivdgl,
            users: 24,
            admin_share: 0.55,
            monthly_jobs: vec![3_000, 25_722, 12_000, 7_000, 5_000, 3_500, 1_923],
            runtime: runtime_dist(1.22, 1.2, 291.74),
            input: SizeDist::Uniform {
                lo: 10_000_000,
                hi: 200_000_000,
            },
            output: SizeDist::Uniform {
                lo: 5_000_000,
                hi: 100_000_000,
            },
            staged_files: 1,
            needs_outbound: true, // GADU updates external genome databases
            registers_output: false,
            walltime_margin: 2.0,
            walltime_underestimate_prob: 0.02,
            vo_affinity: 0.85,
            sc2003_surge_frac: 0.55,
            arrivals: None,
        },
        // LIGO: 7 users, 3 completed jobs at 1 site (the S2 pulsar-search
        // infrastructure shakedown), ≈36 s runtimes.
        WorkloadSpec {
            class: UserClass::Ligo,
            users: 7,
            admin_share: 0.8,
            monthly_jobs: vec![0, 0, 3, 0, 0, 0, 0],
            runtime: DurationDist::Fixed(SimDuration::from_secs(36)),
            input: SizeDist::Fixed(4_000_000_000), // §4.4: ~4 GB per job
            output: SizeDist::Fixed(100_000_000),
            staged_files: 3,
            needs_outbound: false,
            registers_output: true,
            walltime_margin: 10.0,
            walltime_underestimate_prob: 0.0,
            vo_affinity: 1.0,
            sc2003_surge_frac: 0.0,
            arrivals: None,
        },
        // SDSS: 9 users, 5410 jobs, avg 1.46 h, max 152.90 h, peak 02-2004.
        WorkloadSpec {
            class: UserClass::Sdss,
            users: 9,
            admin_share: 0.5,
            monthly_jobs: vec![200, 800, 700, 900, 1_564, 800, 446],
            runtime: runtime_dist(1.46, 1.2, 152.90),
            input: SizeDist::Uniform {
                lo: 100_000_000,
                hi: 1_000_000_000,
            },
            output: SizeDist::Uniform {
                lo: 20_000_000,
                hi: 200_000_000,
            },
            staged_files: 4,
            needs_outbound: true, // catalog cross-matching
            registers_output: true,
            walltime_margin: 2.0,
            walltime_underestimate_prob: 0.02,
            vo_affinity: 0.6,
            sc2003_surge_frac: 0.3,
            arrivals: None,
        },
        // USATLAS: 25 users, 7455 jobs, avg 8.81 h, max 292.40 h,
        // peak 11-2003 (3198, spread across 17 sites — 28.2 % max share).
        WorkloadSpec {
            class: UserClass::Usatlas,
            users: 25,
            admin_share: 0.5,
            monthly_jobs: vec![500, 3_198, 1_200, 900, 700, 600, 357],
            runtime: runtime_dist(8.81, 1.0, 292.40),
            input: SizeDist::Uniform {
                lo: 200_000_000,
                hi: 1_000_000_000,
            },
            output: SizeDist::LogNormalCapped {
                median: 2_000_000_000, // §4.1: ~2 GB datasets
                sigma: 0.3,
                cap: 6_000_000_000,
            },
            staged_files: 3,
            needs_outbound: false,
            registers_output: true, // §6.1: RLS registration is a lifecycle step
            walltime_margin: 1.5,
            walltime_underestimate_prob: 0.02,
            vo_affinity: 0.45,
            sc2003_surge_frac: 0.55,
            arrivals: None,
        },
        // USCMS: 26 users, 19354 jobs, avg 41.85 h, max 1238.93 h,
        // peak 11-2003 (8834). The long-job class (OSCAR, §6.2).
        WorkloadSpec {
            class: UserClass::Uscms,
            users: 26,
            admin_share: 0.6,
            monthly_jobs: vec![1_000, 8_834, 3_500, 2_200, 1_800, 1_300, 720],
            runtime: runtime_dist(46.0, 1.15, 1_238.93),
            input: SizeDist::Uniform {
                lo: 50_000_000,
                hi: 500_000_000,
            },
            output: SizeDist::LogNormalCapped {
                median: 500_000_000,
                sigma: 0.5,
                cap: 4_000_000_000,
            },
            staged_files: 2,
            needs_outbound: false,
            registers_output: true,
            walltime_margin: 1.5,
            walltime_underestimate_prob: 0.02,
            vo_affinity: 0.5,
            sc2003_surge_frac: 0.55,
            arrivals: None,
        },
        // Exerciser: 3 users (the Condor group's service identities),
        // 198272 jobs, avg 0.13 h, max 36.45 h, peak 12-2003 (72224) —
        // §4.7: "ran repeatedly with a low priority at 15 minute
        // intervals" across the grid.
        WorkloadSpec {
            class: UserClass::Exerciser,
            users: 3,
            admin_share: 0.9,
            monthly_jobs: vec![8_000, 60_000, 72_224, 25_000, 15_000, 12_000, 6_048],
            runtime: runtime_dist(0.13, 1.0, 36.45),
            input: SizeDist::Fixed(1_000_000),
            output: SizeDist::Fixed(1_000_000),
            staged_files: 0,
            needs_outbound: false,
            registers_output: false,
            walltime_margin: 4.0,
            walltime_underestimate_prob: 0.005,
            vo_affinity: 0.0, // deliberately sweeps every site
            sc2003_surge_frac: 0.55,
            arrivals: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::for_entity(2003, 7)
    }

    /// An instant past every workload's seven-month window: a schedule
    /// clipped here is the whole schedule.
    const FAR: SimTime = SimTime::from_days(10_000);

    /// Table 1 job totals the calibration must reproduce exactly.
    const TABLE1_JOBS: [(UserClass, u64); 7] = [
        (UserClass::Btev, 2_598),
        (UserClass::Ivdgl, 58_145),
        (UserClass::Ligo, 3),
        (UserClass::Sdss, 5_410),
        (UserClass::Usatlas, 7_455),
        (UserClass::Uscms, 19_354),
        (UserClass::Exerciser, 198_272),
    ];

    /// Table 1 peak months (month index from October 2003).
    const TABLE1_PEAKS: [(UserClass, u32); 7] = [
        (UserClass::Btev, 1),      // 11-2003
        (UserClass::Ivdgl, 1),     // 11-2003
        (UserClass::Ligo, 2),      // 12-2003
        (UserClass::Sdss, 4),      // 02-2004
        (UserClass::Usatlas, 1),   // 11-2003
        (UserClass::Uscms, 1),     // 11-2003
        (UserClass::Exerciser, 2), // 12-2003
    ];

    #[test]
    fn totals_match_table_1_exactly() {
        let w = grid3_workloads();
        assert_eq!(w.len(), 7);
        for (class, expect) in TABLE1_JOBS {
            let spec = w.iter().find(|s| s.class == class).unwrap();
            assert_eq!(spec.total_jobs(), expect, "{class}");
        }
        // Grand total = the paper's 291 052 job-record sample... the
        // completed subset thereof.
        let total: u64 = w.iter().map(|s| s.total_jobs()).sum();
        assert_eq!(total, 291_237);
    }

    #[test]
    fn peak_months_match_table_1() {
        let w = grid3_workloads();
        for (class, expect) in TABLE1_PEAKS {
            let spec = w.iter().find(|s| s.class == class).unwrap();
            assert_eq!(spec.peak_month().0, expect, "{class}");
        }
    }

    #[test]
    fn sampled_runtime_means_track_table_1() {
        let mut r = rng();
        for (class, mean_hr, max_hr) in [
            (UserClass::Btev, 1.77, 118.27),
            (UserClass::Ivdgl, 1.22, 291.74),
            (UserClass::Usatlas, 8.81, 292.40),
            (UserClass::Uscms, 41.85, 1_238.93),
            (UserClass::Exerciser, 0.13, 36.45),
        ] {
            let w = grid3_workloads();
            let spec = w.iter().find(|s| s.class == class).unwrap();
            let n = 30_000;
            let mut sum = 0.0;
            let mut max: f64 = 0.0;
            for _ in 0..n {
                let hr = spec.runtime.sample(&mut r).as_hours_f64();
                sum += hr;
                max = max.max(hr);
            }
            let mean = sum / n as f64;
            // The cap pulls the realized mean slightly below the analytic
            // target; accept ±20 %.
            assert!(
                (mean - mean_hr).abs() / mean_hr < 0.2,
                "{class}: sampled mean {mean:.2} vs target {mean_hr}"
            );
            assert!(max <= max_hr + 1e-6, "{class}: max {max} over cap {max_hr}");
        }
    }

    #[test]
    fn schedule_is_time_ordered_and_complete() {
        let w = grid3_workloads();
        let spec = w.iter().find(|s| s.class == UserClass::Sdss).unwrap();
        let subs = spec.schedule(&mut rng(), UserId(100), FAR);
        assert_eq!(subs.len() as u64, spec.total_jobs());
        for pair in subs.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        // Every submission falls in the 7-month window.
        let (_, end) = month_bounds(6);
        for s in &subs {
            assert!(s.at < end);
        }
        // Users stay within the class's allocation.
        for s in &subs {
            assert!(s.spec.user.0 >= 100 && s.spec.user.0 < 100 + spec.users);
        }
    }

    #[test]
    fn schedule_respects_monthly_profile() {
        let w = grid3_workloads();
        let spec = w.iter().find(|s| s.class == UserClass::Btev).unwrap();
        let subs = spec.schedule(&mut rng(), UserId(0), FAR);
        let mut per_month = [0u64; 7];
        for s in &subs {
            per_month[s.at.month_index() as usize] += 1;
        }
        assert_eq!(per_month.to_vec(), spec.monthly_jobs);
    }

    #[test]
    fn single_user_class_attributes_everything_to_admin() {
        let w = grid3_workloads();
        let btev = w.iter().find(|s| s.class == UserClass::Btev).unwrap();
        let subs = btev.schedule(&mut rng(), UserId(55), FAR);
        assert!(subs.iter().all(|s| s.spec.user == UserId(55)));
    }

    #[test]
    fn ligo_jobs_stage_four_gigabytes() {
        let w = grid3_workloads();
        let ligo = w.iter().find(|s| s.class == UserClass::Ligo).unwrap();
        let spec = ligo.sample_spec(&mut rng(), UserId(0));
        assert_eq!(spec.input_bytes, Bytes::from_gb(4));
        assert!(spec.registers_output);
    }

    #[test]
    fn process_driven_schedule_replaces_monthly_layout() {
        let w = grid3_workloads();
        let mut spec = w
            .iter()
            .find(|s| s.class == UserClass::Sdss)
            .unwrap()
            .clone();
        spec.arrivals = Some(ArrivalProcess::Periodic {
            every: SimDuration::from_hours(6),
            offset: SimDuration::ZERO,
        });
        let subs = spec.schedule(&mut rng(), UserId(100), FAR);
        // Four per day over the 7-month (213-day) window, ignoring
        // monthly_jobs entirely.
        assert_eq!(subs.len() as f64, {
            let (_, end) = month_bounds(6);
            (end.since(SimTime::from_days(0)).as_hours_f64() / 6.0).ceil()
        });
        for pair in subs.windows(2) {
            assert_eq!(pair[1].at.since(pair[0].at), SimDuration::from_hours(6));
        }
        // Deterministic under the same seed.
        let again = spec.schedule(&mut rng(), UserId(100), FAR);
        assert_eq!(subs, again);
    }

    #[test]
    fn deterministic_schedules() {
        let w = grid3_workloads();
        let atlas = w.iter().find(|s| s.class == UserClass::Usatlas).unwrap();
        let a = atlas.schedule(&mut SimRng::for_entity(9, 9), UserId(0), FAR);
        let b = atlas.schedule(&mut SimRng::for_entity(9, 9), UserId(0), FAR);
        assert_eq!(a, b);
    }

    #[test]
    fn clipped_schedule_is_the_full_schedule_filtered_to_the_cutoff() {
        let mut specs = grid3_workloads();
        let base = specs[3].clone();
        specs.push(WorkloadSpec {
            arrivals: Some(ArrivalProcess::Poisson { per_day: 40.0 }),
            ..base.clone()
        });
        specs.push(WorkloadSpec {
            arrivals: Some(ArrivalProcess::Periodic {
                every: SimDuration::from_hours(5),
                offset: SimDuration::from_mins(17),
            }),
            ..base
        });
        let cutoffs = [
            SimTime::from_days(30),
            month_bounds(2).0,
            // Mid-SC2003 week: November's surge straddles the cutoff.
            SimTime::from_days(SC2003_START_DAY) + SimDuration::from_hours(80),
            // Past the window: nothing is clipped.
            month_bounds(9).0,
        ];
        for spec in &specs {
            let full = spec.schedule(&mut rng(), UserId(10), FAR);
            for until in cutoffs {
                let clipped = spec.schedule(&mut rng(), UserId(10), until);
                let expected: Vec<Submission> =
                    full.iter().filter(|s| s.at < until).cloned().collect();
                assert_eq!(
                    clipped, expected,
                    "{} ({:?}) clipped at {until}",
                    spec.class, spec.arrivals
                );
            }
        }
    }
}
