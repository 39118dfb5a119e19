//! The GRAM gatekeeper and its empirical load model.
//!
//! §6.4 is the paper's most quantitative systems finding:
//!
//! > "In general, a typical gatekeeper using a queue manager will
//! > experience a sustained one minute load of ~225 when managing ~1000
//! > computational jobs. This load can sharply increase when the job
//! > submission frequency is high, thus short duration high frequency
//! > computational jobs tend to sharply increase the gatekeeper loading.
//! > For computational jobs that only require a minimal amount of
//! > production node file staging, a factor of two can be applied to the
//! > sustained load; on the other hand computational jobs requiring a
//! > substantial amount of file staging the factor can increase to three
//! > or four."
//!
//! Encoded here as:
//!
//! ```text
//! load₁ₘ(t) = 0.225 · Σ_{j ∈ managed} staging_factor(j)
//!           + SPIKE_PER_SUBMISSION · submissions in (t−60 s, t]
//! ```
//!
//! with `staging_factor ∈ {1, 2, 3, 4}` from
//! [`JobSpec::staging_load_factor`](grid3_site::job::JobSpec::staging_load_factor).
//! When the load exceeds the overload threshold, new submissions fail with
//! [`GramError::Overloaded`] — the "gatekeeper overloading" failures §6.1
//! counts among the dominant site problems.

use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobId, SiteId};
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sustained-load contribution per managed job at staging factor 1
/// (225 load / 1000 jobs).
pub(crate) const LOAD_PER_MANAGED_JOB: f64 = 0.225;

/// Load contribution per submission in the trailing minute (the "sharply
/// increase when the job submission frequency is high" term).
pub(crate) const SPIKE_PER_SUBMISSION: f64 = 2.0;

/// Default load at which the gatekeeper starts refusing submissions.
pub(crate) const DEFAULT_OVERLOAD_THRESHOLD: f64 = 500.0;

/// The paper's sustained-load law as a pure function, for parameter sweeps
/// (the `gkload` experiment): managed jobs × staging factor.
pub fn sustained_load(managed_jobs: usize, staging_factor: f64) -> f64 {
    LOAD_PER_MANAGED_JOB * managed_jobs as f64 * staging_factor
}

/// Gatekeeper errors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GramError {
    /// Load exceeded the overload threshold; submission refused.
    Overloaded {
        /// The 1-minute load at refusal time.
        load: f64,
    },
    /// The gatekeeper service is down.
    ServiceDown,
    /// Job id not managed by this gatekeeper.
    UnknownJob,
}

/// One site's GRAM gatekeeper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gatekeeper {
    /// The site this gatekeeper fronts.
    pub site: SiteId,
    managed: FastMap<JobId, f64>,
    managed_weight: f64,
    submissions: VecDeque<SimTime>,
    overload_threshold: f64,
    /// Whether the service is up.
    pub up: bool,
    refused: u64,
    accepted: u64,
}

impl Gatekeeper {
    /// A gatekeeper with the default overload threshold.
    #[cfg(test)]
    pub(crate) fn new(site: SiteId) -> Self {
        Self::with_threshold(site, DEFAULT_OVERLOAD_THRESHOLD)
    }

    /// A gatekeeper with an explicit overload threshold.
    pub fn with_threshold(site: SiteId, threshold: f64) -> Self {
        Gatekeeper {
            site,
            managed: FastMap::default(),
            managed_weight: 0.0,
            submissions: VecDeque::new(),
            overload_threshold: threshold,
            up: true,
            refused: 0,
            accepted: 0,
        }
    }

    /// Jobs currently managed.
    pub fn managed_count(&self) -> usize {
        self.managed.len()
    }

    /// The 1-minute load at `now`, per the §6.4 model.
    pub fn load_one_min(&mut self, now: SimTime) -> f64 {
        self.expire_submissions(now);
        LOAD_PER_MANAGED_JOB * self.managed_weight
            + SPIKE_PER_SUBMISSION * self.submissions.len() as f64
    }

    /// Submit a job with the given staging factor. On acceptance the job
    /// is managed until [`Gatekeeper::job_done`].
    pub fn submit(
        &mut self,
        job: JobId,
        staging_factor: f64,
        now: SimTime,
    ) -> Result<(), GramError> {
        if !self.up {
            return Err(GramError::ServiceDown);
        }
        let load = self.load_one_min(now);
        if load > self.overload_threshold {
            self.refused += 1;
            return Err(GramError::Overloaded { load });
        }
        self.submissions.push_back(now);
        self.managed.insert(job, staging_factor);
        self.managed_weight += staging_factor;
        self.accepted += 1;
        Ok(())
    }

    /// A managed job reached a terminal state; stop managing it.
    pub fn job_done(&mut self, job: JobId) -> Result<(), GramError> {
        match self.managed.remove(&job) {
            Some(w) => {
                self.managed_weight = (self.managed_weight - w).max(0.0);
                Ok(())
            }
            None => Err(GramError::UnknownJob),
        }
    }

    /// Crash the service: all managed state is lost (jobs die at the site
    /// level; the caller accounts for them). Returns the orphaned job ids.
    pub fn crash(&mut self) -> Vec<JobId> {
        self.up = false;
        self.managed_weight = 0.0;
        self.submissions.clear();
        let mut orphans: Vec<JobId> = self.managed.drain().map(|(j, _)| j).collect();
        orphans.sort();
        orphans
    }

    /// Restart after a crash.
    pub fn restart(&mut self) {
        self.up = true;
    }

    /// Submissions refused for overload.
    pub fn refused_count(&self) -> u64 {
        self.refused
    }

    /// Submissions accepted.
    pub fn accepted_count(&self) -> u64 {
        self.accepted
    }

    fn expire_submissions(&mut self, now: SimTime) {
        let window = SimDuration::from_secs(60);
        while let Some(front) = self.submissions.front() {
            if now.since(*front) > window {
                self.submissions.pop_front();
            } else {
                break;
            }
        }
    }
}

impl GramError {
    /// Whether a retry can plausibly succeed: overloads drain within the
    /// 60 s spike window and crashed services restart, but an unknown job
    /// id is a caller bug no backoff will fix.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, GramError::Overloaded { .. } | GramError::ServiceDown)
    }
}

impl std::fmt::Display for GramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramError::Overloaded { load } => {
                write!(f, "gatekeeper overloaded (1-minute load {load:.1})")
            }
            GramError::ServiceDown => write!(f, "gatekeeper service down"),
            GramError::UnknownJob => write!(f, "job not managed by this gatekeeper"),
        }
    }
}

impl std::error::Error for GramError {}

/// Exponential-backoff retry discipline for GRAM submissions, the
/// automated version of what "Running CMS software on GRID Testbeds"
/// reports operators doing by hand: resubmit refused jobs after a
/// widening delay instead of abandoning them.
///
/// The jitter is *deterministic*: a hash of `(job id, attempt)` picks a
/// point in the jitter band, so reruns of the same scenario replay the
/// exact same schedule (the simulation's bit-identical replay invariant)
/// while distinct jobs still decorrelate — a refused burst does not come
/// back as the same thundering herd.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Resubmissions allowed after the first attempt.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Backoff multiplier per subsequent attempt.
    pub multiplier: f64,
    /// Hard ceiling on any single delay.
    pub max_delay: SimDuration,
    /// Fraction of the nominal delay used as the jitter band: the final
    /// delay is `nominal × (1 − jitter/2 + jitter·u)` for `u ∈ [0, 1)`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The calibration used by the resilience layer: five retries
    /// starting at 5 minutes (enough to clear the 60 s overload spike
    /// window), tripling to a 2-hour cap, ±25 % jitter. The full
    /// schedule spans ≈5 h of backoff — sized to outlast a typical
    /// service outage at the far end of a transfer, not just a load
    /// spike at the gatekeeper.
    pub const fn grid3_default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base: SimDuration::from_mins(5),
            multiplier: 3.0,
            max_delay: SimDuration::from_hours(2),
            jitter: 0.5,
        }
    }

    /// Whether attempt number `attempt` (0-based count of retries already
    /// spent) may be retried.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// The retry decision for a failed GRAM interaction in one place:
    /// `attempt` (0-based retries already spent) gets another try iff the
    /// error is transient and the budget allows it. This is the hook the
    /// brokering subsystem calls on every submission failure, so the
    /// "which errors are worth a backoff" policy lives with GRAM rather
    /// than being re-derived at each engine call site.
    pub fn should_retry(&self, attempt: u32, err: &GramError) -> bool {
        err.is_transient() && self.allows(attempt)
    }

    /// The backoff delay before retry number `attempt` (0-based) of the
    /// entity identified by `key` (typically the job id).
    ///
    /// Saturates rather than overflowing: the exponent is clamped before
    /// `powi`, a non-finite product (overflow to `inf`, or `NaN` from a
    /// degenerate `base`/`multiplier` pair such as `0 × inf`) collapses
    /// to `max_delay`, and the finite result is clamped into
    /// `[0, max_delay]` — so even `attempt == u32::MAX` yields a delay
    /// in `[1 s, max_delay × (1 + jitter/2)]`.
    pub fn delay(&self, attempt: u32, key: u64) -> SimDuration {
        let cap = self.max_delay.as_secs_f64();
        let raw = self.base.as_secs_f64() * self.multiplier.powi(attempt.min(62) as i32);
        let nominal = if raw.is_finite() {
            raw.clamp(0.0, cap)
        } else {
            cap
        };
        // splitmix64 over (key, attempt): cheap, stateless, and stable
        // across runs — no SimRng stream is consumed.
        let mut h = key
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(attempt));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = nominal * (1.0 - self.jitter / 2.0 + self.jitter * unit);
        SimDuration::from_secs_f64(jittered.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_point_holds() {
        // ~1000 managed jobs at factor 1 → sustained load ~225 (§6.4).
        assert!((sustained_load(1000, 1.0) - 225.0).abs() < 1e-9);
        // Minimal staging doubles it; substantial staging reaches 3–4×.
        assert!((sustained_load(1000, 2.0) - 450.0).abs() < 1e-9);
        assert!((sustained_load(1000, 4.0) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn managed_jobs_raise_sustained_load() {
        let mut gk = Gatekeeper::with_threshold(SiteId(0), 1e9);
        let t0 = SimTime::EPOCH;
        for i in 0..100 {
            gk.submit(JobId(i), 1.0, t0).unwrap();
        }
        // After the submission spike window passes, load is pure sustained.
        let later = t0 + SimDuration::from_secs(120);
        let load = gk.load_one_min(later);
        assert!((load - 22.5).abs() < 1e-9, "load {load}");
        assert_eq!(gk.managed_count(), 100);
    }

    #[test]
    fn staging_factor_multiplies_load() {
        let mut gk = Gatekeeper::with_threshold(SiteId(0), 1e9);
        for i in 0..100 {
            gk.submit(JobId(i), 4.0, SimTime::EPOCH).unwrap();
        }
        let load = gk.load_one_min(SimTime::EPOCH + SimDuration::from_secs(120));
        assert!((load - 90.0).abs() < 1e-9);
    }

    #[test]
    fn submission_bursts_spike_load() {
        // (burst size, spike, sustained): each submission adds 2.0 for the
        // trailing minute and each managed job 0.225. The 500-submission
        // burst is the §6.4 figure EXPERIMENTS.md quotes: +1,000 over the
        // sustained 112.5.
        for (n, spike, sustained) in [(50u32, 100.0, 11.25), (500, 1_000.0, 112.5)] {
            let mut gk = Gatekeeper::with_threshold(SiteId(0), 1e9);
            let t = SimTime::from_secs(100);
            for i in 0..n {
                gk.submit(JobId(i), 1.0, t).unwrap();
            }
            let load_now = gk.load_one_min(t + SimDuration::from_secs(30));
            assert!(
                (load_now - (spike + sustained)).abs() < 1e-9,
                "{n}: {load_now}"
            );
            // After 61 s the spike decays to the sustained term only.
            let load_later = gk.load_one_min(t + SimDuration::from_secs(61));
            assert!((load_later - sustained).abs() < 1e-9, "{n}: {load_later}");
        }
    }

    #[test]
    fn overload_refuses_submissions() {
        let mut gk = Gatekeeper::with_threshold(SiteId(0), 100.0);
        let t = SimTime::EPOCH;
        let mut refused = 0;
        let mut first_refusal = None;
        for i in 0..200 {
            if let Err(e) = gk.submit(JobId(i), 1.0, t) {
                refused += 1;
                first_refusal.get_or_insert(e);
            }
        }
        assert!(refused > 0);
        assert_eq!(gk.refused_count(), refused);
        assert_eq!(gk.accepted_count() + refused, 200);
        // Load at first refusal exceeded the threshold.
        match first_refusal {
            Some(GramError::Overloaded { load }) => assert!(load > 100.0, "{load}"),
            other => panic!("expected an overload refusal, got {other:?}"),
        }
        // Once the burst window passes, submissions are accepted again.
        let later = t + SimDuration::from_secs(120);
        assert!(gk.submit(JobId(9999), 1.0, later).is_ok());
    }

    #[test]
    fn job_done_releases_load() {
        let mut gk = Gatekeeper::with_threshold(SiteId(0), 1e9);
        gk.submit(JobId(1), 3.0, SimTime::EPOCH).unwrap();
        gk.job_done(JobId(1)).unwrap();
        assert_eq!(gk.managed_count(), 0);
        let load = gk.load_one_min(SimTime::from_secs(120));
        assert_eq!(load, 0.0);
        assert_eq!(gk.job_done(JobId(1)), Err(GramError::UnknownJob));
    }

    #[test]
    fn crash_orphans_jobs_and_blocks_submissions() {
        let mut gk = Gatekeeper::new(SiteId(0));
        gk.submit(JobId(5), 1.0, SimTime::EPOCH).unwrap();
        gk.submit(JobId(3), 1.0, SimTime::EPOCH).unwrap();
        let orphans = gk.crash();
        assert_eq!(orphans, vec![JobId(3), JobId(5)]);
        assert_eq!(
            gk.submit(JobId(7), 1.0, SimTime::EPOCH),
            Err(GramError::ServiceDown)
        );
        gk.restart();
        assert!(gk.submit(JobId(7), 1.0, SimTime::EPOCH).is_ok());
    }

    #[test]
    fn short_high_frequency_jobs_load_more_than_long_jobs() {
        // §6.4's observation: at equal concurrency, a high submission
        // frequency (short jobs recycling constantly) loads the gatekeeper
        // far more than stable long jobs.
        let mut short = Gatekeeper::with_threshold(SiteId(0), 1e9);
        let mut long = Gatekeeper::with_threshold(SiteId(1), 1e9);
        let mut t = SimTime::EPOCH;
        // Long jobs: 50 submitted once, then idle.
        for i in 0..50 {
            long.submit(JobId(i), 1.0, t).unwrap();
        }
        // Short jobs: 50 concurrent but churning — one finishes and one is
        // submitted every second.
        for i in 0..50 {
            short.submit(JobId(i), 1.0, t).unwrap();
        }
        for i in 50..150 {
            t += SimDuration::from_secs(1);
            short.job_done(JobId(i - 50)).unwrap();
            short.submit(JobId(i), 1.0, t).unwrap();
        }
        let ls = short.load_one_min(t);
        let ll = long.load_one_min(t);
        assert!(ls > 5.0 * ll, "short {ls} vs long {ll}");
    }

    #[test]
    fn retry_delays_grow_and_respect_cap() {
        let p = RetryPolicy::grid3_default();
        let job = 42u64;
        let d0 = p.delay(0, job);
        let d1 = p.delay(1, job);
        // Jitter band is ±25 %, backoff triples: even worst-case jitter
        // keeps consecutive delays strictly ordered.
        assert!(d1 > d0, "{d0:?} !< {d1:?}");
        // Far attempts saturate at max_delay × (1 + jitter/2).
        let cap = p.max_delay.as_secs_f64() * (1.0 + p.jitter / 2.0);
        for attempt in 8..16 {
            assert!(p.delay(attempt, job).as_secs_f64() <= cap + 1e-6);
        }
    }

    #[test]
    fn retry_jitter_is_deterministic_and_decorrelated() {
        let p = RetryPolicy::grid3_default();
        assert_eq!(p.delay(2, 7), p.delay(2, 7));
        // Different jobs land at different points in the band.
        let spread: std::collections::BTreeSet<u64> =
            (0..32).map(|job| p.delay(0, job).as_micros()).collect();
        assert!(spread.len() > 16, "jitter collapsed: {}", spread.len());
    }

    #[test]
    fn retry_budget_is_finite() {
        let p = RetryPolicy::grid3_default();
        assert!(p.allows(0) && p.allows(4));
        assert!(!p.allows(5));
    }

    #[test]
    fn retry_delay_saturates_at_extreme_attempt_counts() {
        let p = RetryPolicy::grid3_default();
        let ceiling = p.max_delay.as_secs_f64() * (1.0 + p.jitter / 2.0);
        for attempt in [62, 63, 1_000_000, u32::MAX - 1, u32::MAX] {
            for key in [0u64, 7, u64::MAX] {
                let d = p.delay(attempt, key).as_secs_f64();
                assert!(d.is_finite(), "attempt {attempt}: non-finite delay");
                assert!(
                    (1.0..=ceiling + 1e-6).contains(&d),
                    "attempt {attempt}: delay {d} outside [1, {ceiling}]"
                );
            }
        }
    }

    #[test]
    fn retry_delay_saturates_on_degenerate_policies() {
        // A multiplier that overflows to infinity in a handful of steps
        // must collapse to the cap, not poison the schedule.
        let hot = RetryPolicy {
            max_retries: u32::MAX,
            base: SimDuration::from_secs(1),
            multiplier: f64::MAX,
            max_delay: SimDuration::from_hours(1),
            jitter: 0.0,
        };
        for attempt in [0, 1, 2, 62, u32::MAX] {
            let d = hot.delay(attempt, 3);
            assert!(d <= SimDuration::from_hours(1) + SimDuration::from_secs(1));
            assert!(d >= SimDuration::from_secs(1));
        }
        // 0 × inf = NaN nominal: saturate to the cap instead of a NaN
        // duration reaching SimDuration::from_secs_f64.
        let nan = RetryPolicy {
            max_retries: 1,
            base: SimDuration::ZERO,
            multiplier: f64::INFINITY,
            max_delay: SimDuration::from_mins(30),
            jitter: 0.0,
        };
        assert_eq!(nan.delay(1, 0), SimDuration::from_mins(30));
        assert!(nan.allows(0) && !nan.allows(u32::MAX));
    }

    #[test]
    fn transient_errors_are_classified() {
        assert!(GramError::Overloaded { load: 600.0 }.is_transient());
        assert!(GramError::ServiceDown.is_transient());
        assert!(!GramError::UnknownJob.is_transient());
    }
}
