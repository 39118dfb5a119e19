//! Jobs: specifications, lifecycle, failure taxonomy, accounting records.
//!
//! §6.1 defines a completed job as one that finishes *every* processing
//! step — "pre-stage, job execution producing the output files, post-stage
//! to the final storage element …, and registration to RLS" — and
//! attributes ≈90 % of the observed 30 % failure rate to site problems
//! ("disk filling errors, gatekeeper overloading, or network
//! interruptions"). The lifecycle and failure-cause taxonomy here encode
//! exactly that accounting.

use crate::vo::UserClass;
use grid3_simkit::ids::{JobId, SiteId, UserId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a job asks of the grid before it runs: the §6.4 site-selection
/// criteria are checks of these fields against a site's profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The application/user class submitting the job.
    pub class: UserClass,
    /// The submitting user.
    pub user: UserId,
    /// CPU time required on the 2 GHz reference processor of §4.5; actual
    /// wall time scales inversely with the worker node's speed factor.
    pub reference_runtime: SimDuration,
    /// Walltime the job requests from the batch queue (§6.4 criterion 3:
    /// the request must fit the site's maximum allowed runtime).
    pub requested_walltime: SimDuration,
    /// Bytes staged in before execution (e.g. LIGO's ≈4 GB of SFT data).
    pub input_bytes: Bytes,
    /// Bytes staged out afterwards (e.g. ATLAS 2 GB datasets to BNL).
    pub output_bytes: Bytes,
    /// Scratch disk the job needs on the site (§6.4 criterion 2).
    pub scratch_bytes: Bytes,
    /// Whether worker nodes need outbound internet connectivity (§6.4
    /// criterion 1 — some applications talk to external databases).
    pub needs_outbound: bool,
    /// Number of files staged; heavy staging multiplies gatekeeper load by
    /// 2–4× (§6.4).
    pub staged_files: u32,
    /// Whether the final step registers outputs in RLS (ATLAS does; the
    /// exerciser does not).
    pub registers_output: bool,
}

impl JobSpec {
    /// Total bytes this job will move over the site's WAN link.
    pub(crate) fn total_transfer(&self) -> Bytes {
        self.input_bytes + self.output_bytes
    }

    /// The gatekeeper staging-load multiplier of §6.4: 1× for no staging,
    /// 2× for minimal staging, up to 4× for substantial staging.
    pub fn staging_load_factor(&self) -> f64 {
        let gb = self.total_transfer().as_gb_f64();
        if self.staged_files == 0 || gb == 0.0 {
            1.0
        } else if gb < 0.5 {
            2.0
        } else if gb < 4.0 {
            3.0
        } else {
            4.0
        }
    }
}

/// Why a job failed. The split into site-caused vs. other mirrors §6.1's
/// "approximately 90 % of failures were due to site problems".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureCause {
    /// The site's storage element or scratch area filled (§6.1, §6.2:
    /// "a disk would fill up … and all jobs submitted to a site would die").
    DiskFull,
    /// Gatekeeper overloaded by job-management load (§6.4 load model).
    GatekeeperOverload,
    /// WAN interruption broke staging or job management (§6.1).
    NetworkInterruption,
    /// Worker nodes restarted under running jobs — the ACDC nightly
    /// rollover of §6.1.
    NodeRollover,
    /// Site service/configuration fault (§6.2: "jobs often failed due to
    /// site configuration problems").
    Misconfiguration,
    /// A site service crashed and took its jobs with it (§6.2: jobs died
    /// "in groups from site service failures").
    ServiceFailure,
    /// Batch system killed the job at its walltime limit.
    WalltimeExceeded,
    /// Residual uncorrelated loss (§6.2: "we saw few random job losses").
    RandomLoss,
    /// Stage-in could not complete (source unavailable, transfer failed).
    StageInFailure,
    /// Stage-out to the final storage element failed.
    StageOutFailure,
    /// RLS registration failed after a successful stage-out.
    RegistrationFailure,
    /// No site satisfied the job's requirements (§6.4 selection criteria).
    NoEligibleSite,
}

impl FailureCause {
    /// Every cause, in declaration (= `Ord`) order. Dense accumulators
    /// index by [`FailureCause::index`] and iterate this table, so their
    /// view matches a `BTreeMap<FailureCause, _>` walk exactly.
    pub const ALL: [FailureCause; 12] = [
        FailureCause::DiskFull,
        FailureCause::GatekeeperOverload,
        FailureCause::NetworkInterruption,
        FailureCause::NodeRollover,
        FailureCause::Misconfiguration,
        FailureCause::ServiceFailure,
        FailureCause::WalltimeExceeded,
        FailureCause::RandomLoss,
        FailureCause::StageInFailure,
        FailureCause::StageOutFailure,
        FailureCause::RegistrationFailure,
        FailureCause::NoEligibleSite,
    ];

    /// Position in [`FailureCause::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the paper's accounting would attribute this failure to a
    /// *site problem* (§6.1 counts ≈90 % of failures in this bucket).
    pub fn is_site_problem(self) -> bool {
        matches!(
            self,
            FailureCause::DiskFull
                | FailureCause::GatekeeperOverload
                | FailureCause::NetworkInterruption
                | FailureCause::NodeRollover
                | FailureCause::Misconfiguration
                | FailureCause::ServiceFailure
                | FailureCause::StageInFailure
                | FailureCause::StageOutFailure
        )
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FailureCause::DiskFull => "disk-full",
            FailureCause::GatekeeperOverload => "gatekeeper-overload",
            FailureCause::NetworkInterruption => "network-interruption",
            FailureCause::NodeRollover => "node-rollover",
            FailureCause::Misconfiguration => "misconfiguration",
            FailureCause::ServiceFailure => "service-failure",
            FailureCause::WalltimeExceeded => "walltime-exceeded",
            FailureCause::RandomLoss => "random-loss",
            FailureCause::StageInFailure => "stage-in-failure",
            FailureCause::StageOutFailure => "stage-out-failure",
            FailureCause::RegistrationFailure => "rls-registration-failure",
            FailureCause::NoEligibleSite => "no-eligible-site",
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Terminal outcome of a job, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Every lifecycle step completed.
    Completed,
    /// Failed with the given cause.
    Failed(
        /// The recorded failure cause.
        FailureCause,
    ),
}

impl JobOutcome {
    /// True for [`JobOutcome::Completed`].
    pub fn is_success(self) -> bool {
        matches!(self, JobOutcome::Completed)
    }
}

/// The per-job accounting record the ACDC job monitor collects (§5.2) and
/// from which Table 1 is computed ("a sample of 291052 job records").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job identity.
    pub job: JobId,
    /// Application/user class.
    pub class: UserClass,
    /// Submitting user.
    pub user: UserId,
    /// Site the job ran at (or was destined for when it never started).
    pub site: SiteId,
    /// Submission time.
    pub submitted: SimTime,
    /// When execution began, if it did.
    pub started: Option<SimTime>,
    /// When the job reached a terminal state.
    pub finished: SimTime,
    /// Wall-clock execution time (zero if never started).
    pub runtime: SimDuration,
    /// Bytes moved in and out for this job.
    pub transferred: Bytes,
    /// Terminal outcome.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// CPU-days consumed by this job (one CPU × runtime), the unit used by
    /// Table 1 and Figures 2 and 4.
    pub fn cpu_days(&self) -> f64 {
        self.runtime.as_days_f64()
    }

    /// Queue wait (submission → start), if the job started.
    pub fn queue_wait(&self) -> Option<SimDuration> {
        self.started.map(|s| s.since(self.submitted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::{JobId, SiteId, UserId};

    fn spec() -> JobSpec {
        JobSpec {
            class: UserClass::Usatlas,
            user: UserId(0),
            reference_runtime: SimDuration::from_hours(8),
            requested_walltime: SimDuration::from_hours(12),
            input_bytes: Bytes::from_gb(1),
            output_bytes: Bytes::from_gb(2),
            scratch_bytes: Bytes::from_gb(4),
            needs_outbound: false,
            staged_files: 3,
            registers_output: true,
        }
    }

    #[test]
    fn transfer_totals_add_both_directions() {
        assert_eq!(spec().total_transfer(), Bytes::from_gb(3));
    }

    #[test]
    fn staging_factor_matches_section_6_4() {
        // No staging → 1×.
        let mut s = spec();
        s.staged_files = 0;
        assert_eq!(s.staging_load_factor(), 1.0);
        // Minimal staging → 2×.
        s.staged_files = 1;
        s.input_bytes = Bytes::from_mb(100);
        s.output_bytes = Bytes::from_mb(100);
        assert_eq!(s.staging_load_factor(), 2.0);
        // Substantial staging → up to 4×.
        s.input_bytes = Bytes::from_gb(4);
        s.output_bytes = Bytes::from_gb(2);
        assert_eq!(s.staging_load_factor(), 4.0);
        // Intermediate → 3×.
        s.input_bytes = Bytes::from_gb(1);
        s.output_bytes = Bytes::from_gb(1);
        assert_eq!(s.staging_load_factor(), 3.0);
    }

    #[test]
    fn site_problem_classification_matches_paper() {
        // The three §6.1 examples are all site problems.
        assert!(FailureCause::DiskFull.is_site_problem());
        assert!(FailureCause::GatekeeperOverload.is_site_problem());
        assert!(FailureCause::NetworkInterruption.is_site_problem());
        assert!(FailureCause::NodeRollover.is_site_problem());
        // Staging dies with the site services/links it depends on.
        assert!(FailureCause::StageInFailure.is_site_problem());
        assert!(FailureCause::StageOutFailure.is_site_problem());
        // Random loss and walltime overruns are not.
        assert!(!FailureCause::RandomLoss.is_site_problem());
        assert!(!FailureCause::WalltimeExceeded.is_site_problem());
        assert!(!FailureCause::NoEligibleSite.is_site_problem());
    }

    #[test]
    fn record_accounting() {
        let rec = JobRecord {
            job: JobId(1),
            class: UserClass::Uscms,
            user: UserId(2),
            site: SiteId(3),
            submitted: SimTime::from_hours(0),
            started: Some(SimTime::from_hours(2)),
            finished: SimTime::from_hours(50),
            runtime: SimDuration::from_hours(48),
            transferred: Bytes::from_gb(5),
            outcome: JobOutcome::Completed,
        };
        assert!((rec.cpu_days() - 2.0).abs() < 1e-9);
        assert_eq!(rec.queue_wait(), Some(SimDuration::from_hours(2)));
        assert!(rec.outcome.is_success());

        let failed = JobRecord {
            started: None,
            runtime: SimDuration::ZERO,
            outcome: JobOutcome::Failed(FailureCause::NoEligibleSite),
            ..rec
        };
        assert_eq!(failed.queue_wait(), None);
        assert_eq!(failed.cpu_days(), 0.0);
        assert!(!failed.outcome.is_success());
    }
}
