//! Deterministic fault injection and the grid-wide invariant auditor.
//!
//! §6 of the paper catalogues the failure classes that dominated Grid3
//! operations: black-hole sites that accept jobs and never finish them,
//! scratch disks filling until every stage-in dies, partial transfers,
//! stale catalog and information-service answers, and monitoring or
//! connectivity blackouts that blind the iGOC. The resilience layer
//! (PR 2) reacts to those storms; this module *provokes* them on demand.
//!
//! A [`FaultPlan`] is a seeded, replayable schedule of typed faults.
//! Plans are plain data — serializable, diffable, and bit-identical for
//! a given `(rates, seed)` pair — and are delivered through the normal
//! event queue as routed `GridEvent`s, so every subsystem exercises the
//! same handling code it runs in production scenarios. With
//! `ScenarioConfig::chaos == None` (the default) the assembly schedules
//! nothing and draws no RNG: baseline runs remain bit-identical to the
//! golden hashes.
//!
//! The [`InvariantAuditor`] is the machine-checked proof side: enabled
//! via `ScenarioConfig::audit`, it observes every routed event (plus the
//! queue pop clock) and asserts conservation invariants — each submitted
//! job reaches exactly one terminal state, storage accounting never goes
//! negative or exceeds capacity, the clock never runs backwards, and the
//! final `Grid3Report` totals balance against the audited ledger. It is
//! strictly observation-only: no RNG draws, no queue writes, no report
//! fields — enabling it reproduces the baseline golden hashes bit for
//! bit.

use crate::report::Grid3Report;
use crate::subsystems::fabric::GridFabric;
use crate::subsystems::{GridEvent, ReportingEvent};
use grid3_simkit::dist::exp_gap;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobId, SiteId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use serde::{Deserialize, Serialize};

/// One typed fault, matching the paper's §6 failure classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The site keeps accepting and dispatching jobs but executions
    /// never complete ("black hole"). Hung jobs are reaped by the
    /// wall-clock timeout in `Execution`.
    BlackHole {
        /// Afflicted site.
        site: SiteId,
        /// How long the black-hole behaviour lasts.
        duration: SimDuration,
    },
    /// Non-grid data fills the scratch disk via
    /// `StorageElement::consume_external`, forcing stage-in failures
    /// until the cleanup policy reclaims it.
    DiskExhaustion {
        /// Afflicted site.
        site: SiteId,
        /// External bytes dumped onto the scratch disk.
        external_bytes: Bytes,
        /// Operator latency until the external data is reclaimed.
        cleanup_after: SimDuration,
    },
    /// The oldest in-flight job transfer is truncated mid-stream; the
    /// staging layer verifies the partial file's checksum and resumes
    /// from the truncation point (or restarts from zero on corruption).
    TransferTruncation {
        /// Whether the partial file fails checksum verification,
        /// forcing a full restart instead of a resume.
        corrupt: bool,
    },
    /// RLS keeps answering with replicas at a site whose data is gone;
    /// stage-ins sourced from it fail until the catalog heals.
    StaleReplicas {
        /// Site whose catalog entries go stale.
        site: SiteId,
        /// How long the stale answers persist.
        duration: SimDuration,
    },
    /// The site's GRIS stops refreshing its GLUE record; the record ages
    /// past the MDS TTL and brokers drop the site from consideration.
    MdsStaleness {
        /// Site whose information-service record freezes.
        site: SiteId,
        /// How long the record stays frozen.
        duration: SimDuration,
    },
    /// Ganglia/MonALISA sensors and iGOC status probes go dark for the
    /// site; monitoring archives gap and probe-driven tickets stop.
    SensorBlackout {
        /// Afflicted site.
        site: SiteId,
        /// Blackout length.
        duration: SimDuration,
    },
    /// The site loses connectivity to the iGOC: its tickets cannot be
    /// resolved (and probes cannot reach it) until the partition heals.
    IgocPartition {
        /// Partitioned site.
        site: SiteId,
        /// Partition length.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// The site the fault targets, if it is site-scoped.
    pub fn site(&self) -> Option<SiteId> {
        match self {
            FaultKind::BlackHole { site, .. }
            | FaultKind::DiskExhaustion { site, .. }
            | FaultKind::StaleReplicas { site, .. }
            | FaultKind::MdsStaleness { site, .. }
            | FaultKind::SensorBlackout { site, .. }
            | FaultKind::IgocPartition { site, .. } => Some(*site),
            FaultKind::TransferTruncation { .. } => None,
        }
    }
}

/// A fault with its injection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, replayable schedule of typed faults, ordered by time.
///
/// A plan is plain data: building it from [`FaultPlan::sample`] with the
/// same `(rates, seed, sites, horizon)` always yields the identical
/// schedule, and running the same plan under the same scenario seed is
/// bit-identical across runs and queue backends.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by injection time.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Build a plan from an explicit fault list (sorted by time; ties
    /// keep their given order).
    pub fn new(mut faults: Vec<PlannedFault>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }

    /// Number of scheduled faults.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Sample a plan from per-class arrival rates.
    ///
    /// Each fault class draws from its own labelled RNG stream
    /// (`chaos/<class>` derived from `seed`), so plans are independent
    /// of every other stream in the simulation and independent of each
    /// other: changing one class's rate never perturbs another class's
    /// schedule.
    pub fn sample(rates: &ChaosRates, seed: u64, sites: usize, horizon: SimDuration) -> Self {
        let mut faults = Vec::new();
        if sites == 0 {
            return FaultPlan { faults };
        }
        let end = SimTime::EPOCH + horizon;

        let arrivals =
            |label: &str, mtbf: Option<SimDuration>, emit: &mut dyn FnMut(&mut SimRng, SimTime)| {
                let Some(mtbf) = mtbf else { return };
                let mut rng = SimRng::for_label(seed, label);
                let mut t = SimTime::EPOCH + exp_gap(&mut rng, mtbf);
                while t < end {
                    emit(&mut rng, t);
                    t += exp_gap(&mut rng, mtbf);
                }
            };

        arrivals("chaos/black_hole", rates.black_hole_mtbf, &mut |rng, at| {
            faults.push(PlannedFault {
                at,
                kind: FaultKind::BlackHole {
                    site: SiteId(rng.below(sites) as u32),
                    duration: rates.black_hole_duration * rng.range_f64(0.5, 2.0),
                },
            });
        });
        arrivals(
            "chaos/disk_exhaustion",
            rates.disk_exhaustion_mtbf,
            &mut |rng, at| {
                faults.push(PlannedFault {
                    at,
                    kind: FaultKind::DiskExhaustion {
                        site: SiteId(rng.below(sites) as u32),
                        external_bytes: rates.disk_fill * rng.range_f64(0.5, 2.0),
                        cleanup_after: rates.disk_cleanup_after * rng.range_f64(0.5, 2.0),
                    },
                });
            },
        );
        arrivals("chaos/truncation", rates.truncation_mtbf, &mut |rng, at| {
            faults.push(PlannedFault {
                at,
                kind: FaultKind::TransferTruncation {
                    corrupt: rng.chance(rates.truncation_corrupt_prob),
                },
            });
        });
        arrivals(
            "chaos/stale_replicas",
            rates.stale_replica_mtbf,
            &mut |rng, at| {
                faults.push(PlannedFault {
                    at,
                    kind: FaultKind::StaleReplicas {
                        site: SiteId(rng.below(sites) as u32),
                        duration: rates.stale_duration * rng.range_f64(0.5, 2.0),
                    },
                });
            },
        );
        arrivals(
            "chaos/mds_staleness",
            rates.mds_staleness_mtbf,
            &mut |rng, at| {
                faults.push(PlannedFault {
                    at,
                    kind: FaultKind::MdsStaleness {
                        site: SiteId(rng.below(sites) as u32),
                        duration: rates.mds_freeze_duration * rng.range_f64(0.5, 2.0),
                    },
                });
            },
        );
        arrivals(
            "chaos/sensor_blackout",
            rates.sensor_blackout_mtbf,
            &mut |rng, at| {
                faults.push(PlannedFault {
                    at,
                    kind: FaultKind::SensorBlackout {
                        site: SiteId(rng.below(sites) as u32),
                        duration: rates.blackout_duration * rng.range_f64(0.5, 2.0),
                    },
                });
            },
        );
        arrivals(
            "chaos/igoc_partition",
            rates.igoc_partition_mtbf,
            &mut |rng, at| {
                faults.push(PlannedFault {
                    at,
                    kind: FaultKind::IgocPartition {
                        site: SiteId(rng.below(sites) as u32),
                        duration: rates.partition_duration * rng.range_f64(0.5, 2.0),
                    },
                });
            },
        );

        FaultPlan::new(faults)
    }
}

/// Grid-wide arrival rates for [`FaultPlan::sample`]. A `None` MTBF
/// disables that fault class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRates {
    /// Mean time between black-hole episodes (grid-wide).
    pub black_hole_mtbf: Option<SimDuration>,
    /// Nominal black-hole length (jittered 0.5–2×).
    pub black_hole_duration: SimDuration,
    /// Mean time between external disk-exhaustion incidents.
    pub disk_exhaustion_mtbf: Option<SimDuration>,
    /// Nominal external fill volume (jittered 0.5–2×).
    pub disk_fill: Bytes,
    /// Nominal operator cleanup latency (jittered 0.5–2×).
    pub disk_cleanup_after: SimDuration,
    /// Mean time between mid-stream transfer truncations.
    pub truncation_mtbf: Option<SimDuration>,
    /// Probability a truncated partial file fails checksum verification.
    pub truncation_corrupt_prob: f64,
    /// Mean time between stale-replica-catalog episodes.
    pub stale_replica_mtbf: Option<SimDuration>,
    /// Nominal stale-catalog length (jittered 0.5–2×).
    pub stale_duration: SimDuration,
    /// Mean time between frozen-GRIS episodes.
    pub mds_staleness_mtbf: Option<SimDuration>,
    /// Nominal record-freeze length (jittered 0.5–2×).
    pub mds_freeze_duration: SimDuration,
    /// Mean time between monitoring-sensor blackouts.
    pub sensor_blackout_mtbf: Option<SimDuration>,
    /// Nominal blackout length (jittered 0.5–2×).
    pub blackout_duration: SimDuration,
    /// Mean time between site↔iGOC network partitions.
    pub igoc_partition_mtbf: Option<SimDuration>,
    /// Nominal partition length (jittered 0.5–2×).
    pub partition_duration: SimDuration,
}

impl ChaosRates {
    /// Rates calibrated so a 30-day run sees a handful of each class —
    /// dense enough to exercise every recovery path, sparse enough that
    /// the grid keeps making progress.
    pub fn grid3_default() -> Self {
        ChaosRates {
            black_hole_mtbf: Some(SimDuration::from_days(6)),
            black_hole_duration: SimDuration::from_hours(8),
            disk_exhaustion_mtbf: Some(SimDuration::from_days(5)),
            disk_fill: Bytes::from_gb(600),
            disk_cleanup_after: SimDuration::from_hours(6),
            truncation_mtbf: Some(SimDuration::from_days(2)),
            truncation_corrupt_prob: 0.25,
            stale_replica_mtbf: Some(SimDuration::from_days(9)),
            stale_duration: SimDuration::from_hours(12),
            mds_staleness_mtbf: Some(SimDuration::from_days(7)),
            mds_freeze_duration: SimDuration::from_hours(10),
            sensor_blackout_mtbf: Some(SimDuration::from_days(8)),
            blackout_duration: SimDuration::from_hours(6),
            igoc_partition_mtbf: Some(SimDuration::from_days(10)),
            partition_duration: SimDuration::from_hours(8),
        }
    }
}

/// Per-site runtime chaos switches, flipped by routed fault events and
/// consulted by the subsystems. All flags are `false` in baseline runs,
/// so every guard that reads them is bit-neutral.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosState {
    /// Sites currently in black-hole mode (executions never complete).
    pub black_hole: Vec<bool>,
    /// Sites whose monitoring sensors (and status probes) are dark.
    pub sensor_blackout: Vec<bool>,
    /// Sites partitioned from the iGOC (ticket resolution deferred).
    pub igoc_partition: Vec<bool>,
    /// Sites with an emergency scratch cleanup already scheduled.
    pub cleanup_pending: Vec<bool>,
}

impl ChaosState {
    /// State sized for `sites` sites, all switches off.
    pub fn new(sites: usize) -> Self {
        ChaosState {
            black_hole: vec![false; sites],
            sensor_blackout: vec![false; sites],
            igoc_partition: vec![false; sites],
            cleanup_pending: vec![false; sites],
        }
    }

    fn flag(v: &[bool], site: SiteId) -> bool {
        v.get(site.index()).copied().unwrap_or(false)
    }

    /// Is the site currently a black hole?
    pub(crate) fn is_black_hole(&self, site: SiteId) -> bool {
        Self::flag(&self.black_hole, site)
    }

    /// Are the site's monitoring sensors dark?
    pub(crate) fn is_sensor_blackout(&self, site: SiteId) -> bool {
        Self::flag(&self.sensor_blackout, site)
    }

    /// Is the site partitioned from the iGOC?
    pub(crate) fn is_igoc_partitioned(&self, site: SiteId) -> bool {
        Self::flag(&self.igoc_partition, site)
    }
}

/// Upper bound on violation records the auditor retains verbatim
/// (the total count keeps incrementing past it).
const MAX_RECORDED_VIOLATIONS: usize = 64;

/// A single invariant violation observed by the [`InvariantAuditor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Simulation time at which the violation was detected.
    pub at: SimTime,
    /// Which invariant was broken.
    pub invariant: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Observation-only conservation checker for the routed event stream.
///
/// The auditor inserts no events, draws no RNG, and contributes nothing
/// to [`Grid3Report`] — enabling it reproduces the golden report hashes
/// bit for bit. It asserts, continuously:
///
/// * **clock monotonicity** — queue pops never run backwards;
/// * **terminal uniqueness** — each submitted job produces exactly one
///   terminal [`grid3_site::job::JobRecord`];
/// * **job conservation** — allocated jobs = terminal + in-flight +
///   parked-for-retry, checked at every monitor tick and at end of run;
/// * **storage bounds** — per-site `used + reserved + free == capacity`
///   (never negative, never over capacity), scanned every monitor tick;
/// * **report balance** — [`Grid3Report`] totals equal the audited
///   ledger (`InvariantAuditor::verify_report`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvariantAuditor {
    last_pop: SimTime,
    terminal: FastMap<JobId, u32>,
    completed: u64,
    failed: u64,
    checks: u64,
    violation_count: u64,
    violations: Vec<Violation>,
}

impl InvariantAuditor {
    /// Fresh auditor with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn violate(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(Violation {
                at,
                invariant: invariant.to_string(),
                detail,
            });
        }
    }

    /// Observe a timed queue pop (clock-monotonicity check).
    pub(crate) fn observe_pop(&mut self, at: SimTime) {
        self.checks += 1;
        if at < self.last_pop {
            self.violate(
                at,
                "clock_monotonic",
                format!("queue popped {at} after {}", self.last_pop),
            );
        }
        self.last_pop = at;
    }

    /// Observe one routed event (timed or immediate) against the fabric.
    pub(crate) fn observe_event(&mut self, now: SimTime, event: &GridEvent, fabric: &GridFabric) {
        match event {
            GridEvent::Reporting(ReportingEvent::JobFinished(rec)) => {
                self.checks += 1;
                let n = {
                    let n = self.terminal.entry(rec.job).or_insert(0);
                    *n += 1;
                    *n
                };
                if n > 1 {
                    self.violate(
                        now,
                        "terminal_once",
                        format!("job {:?} reached {n} terminal states", rec.job),
                    );
                } else if rec.outcome.is_success() {
                    self.completed += 1;
                } else {
                    self.failed += 1;
                }
            }
            GridEvent::Reporting(ReportingEvent::MonitorTick) => {
                self.scan_storage(now, fabric);
            }
            _ => {}
        }
    }

    fn scan_storage(&mut self, now: SimTime, fabric: &GridFabric) {
        for site in &fabric.sites {
            let s = &site.storage;
            let accounted = s.used().as_u64() + s.reserved().as_u64() + s.free().as_u64();
            if s.used().as_u64() + s.reserved().as_u64() > s.capacity().as_u64()
                || accounted != s.capacity().as_u64()
            {
                self.violate(
                    now,
                    "storage_bounds",
                    format!(
                        "site {:?}: used {} + reserved {} + free {} != capacity {}",
                        site.id,
                        s.used(),
                        s.reserved(),
                        s.free(),
                        s.capacity()
                    ),
                );
            }
            self.checks += 1;
        }
    }

    /// Assert the job-conservation identity: every allocated job id is
    /// terminal, in flight on the fabric, or parked for a retry.
    pub(crate) fn verify_conservation(&mut self, now: SimTime, fabric: &GridFabric, parked: usize) {
        self.checks += 1;
        let allocated = u64::from(fabric.job_ids.issued());
        let accounted = self.terminal.len() as u64 + fabric.jobs.len() as u64 + parked as u64;
        if allocated != accounted {
            self.violate(
                now,
                "job_conservation",
                format!(
                    "{allocated} jobs allocated but {} terminal + {} in flight + {parked} parked",
                    self.terminal.len(),
                    fabric.jobs.len(),
                ),
            );
        }
    }

    /// Balance the extracted [`Grid3Report`] against the audited ledger.
    pub(crate) fn verify_report(&mut self, report: &Grid3Report) {
        self.checks += 1;
        let at = self.last_pop;
        if report.total_jobs != self.terminal.len() as u64 {
            self.violate(
                at,
                "report_balance",
                format!(
                    "report.total_jobs {} != audited terminal jobs {}",
                    report.total_jobs,
                    self.terminal.len()
                ),
            );
        }
        let class_completed: u64 = report
            .per_class_efficiency
            .iter()
            .map(|c| c.completed)
            .sum();
        let class_failed: u64 = report.per_class_efficiency.iter().map(|c| c.failed).sum();
        if class_completed != self.completed || class_failed != self.failed {
            self.violate(
                at,
                "report_balance",
                format!(
                    "report classes {class_completed}+{class_failed} != ledger {}+{}",
                    self.completed, self.failed
                ),
            );
        }
        let breakdown: u64 = report.failure_breakdown.iter().map(|(_, n)| *n).sum();
        if breakdown != self.failed {
            self.violate(
                at,
                "report_balance",
                format!(
                    "failure breakdown sums to {breakdown}, ledger failed {}",
                    self.failed
                ),
            );
        }
    }

    /// Total invariant checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Total violations detected (including any past the recording cap).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Recorded violations (capped at the first 64).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Jobs observed reaching a terminal state.
    pub fn terminal_jobs(&self) -> u64 {
        self.terminal.len() as u64
    }

    /// Audited (completed, failed) terminal tallies.
    pub fn ledger(&self) -> (u64, u64) {
        (self.completed, self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_plan_is_replayable() {
        let rates = ChaosRates::grid3_default();
        let a = FaultPlan::sample(&rates, 42, 27, SimDuration::from_days(30));
        let b = FaultPlan::sample(&rates, 42, 27, SimDuration::from_days(30));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.faults.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn different_seeds_differ() {
        let rates = ChaosRates::grid3_default();
        let a = FaultPlan::sample(&rates, 1, 27, SimDuration::from_days(30));
        let b = FaultPlan::sample(&rates, 2, 27, SimDuration::from_days(30));
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_classes_produce_no_faults() {
        let mut rates = ChaosRates::grid3_default();
        rates.black_hole_mtbf = None;
        rates.disk_exhaustion_mtbf = None;
        rates.truncation_mtbf = None;
        rates.stale_replica_mtbf = None;
        rates.mds_staleness_mtbf = None;
        rates.sensor_blackout_mtbf = None;
        rates.igoc_partition_mtbf = None;
        let plan = FaultPlan::sample(&rates, 7, 27, SimDuration::from_days(30));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::sample(
            &ChaosRates::grid3_default(),
            9,
            10,
            SimDuration::from_days(8),
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn auditor_flags_clock_regression_and_double_terminal() {
        let mut a = InvariantAuditor::new();
        a.observe_pop(SimTime::EPOCH + SimDuration::from_secs(10));
        a.observe_pop(SimTime::EPOCH + SimDuration::from_secs(5));
        assert_eq!(a.violation_count(), 1);
        assert_eq!(a.violations()[0].invariant, "clock_monotonic");
    }
}
