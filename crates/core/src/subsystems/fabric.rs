//! Shared grid state: the fabric every subsystem may consult.
//!
//! The paper's operations model (§5) hangs off a shared site-status
//! catalog that every party — submitters, operators, monitors — reads
//! and annotates. [`GridFabric`] is that status board for the engine:
//! the physical plant (sites, gatekeepers, GridFTP doors), the common
//! middleware services (RLS, VOMS, CA, the iGOC), the active-job table,
//! and the resilience layer's health scores. Subsystem-*private* state
//! (the broker's retry ledger, the staging LFN allocator, the accounting
//! databases) lives inside the owning subsystem instead and is reachable
//! only via routed events.
//!
//! The fabric also hosts the terminal-path funnel
//! (`GridFabric::fail_active_job` / `GridFabric::complete_active_job`
//! / `GridFabric::finish_job_record`): every job death or completion,
//! from whichever subsystem, funnels through it exactly once, emitting
//! the same immediate-event triple — record ingestion (reporting), site
//! outcome (fault handling), campaign feedback (brokering) — in the
//! monolith's original call order.

use crate::chaos::ChaosState;
use crate::resilience::ResilienceLayer;
use crate::scenario::ScenarioConfig;
use crate::topology::Topology;
use grid3_igoc::center::OperationsCenter;
use grid3_igoc::tickets::TicketKind;
use grid3_middleware::gram::Gatekeeper;
use grid3_middleware::gridftp::GridFtp;
use grid3_middleware::gsi::CertificateAuthority;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_middleware::voms::VomsServer;
use grid3_monitoring::trace::TraceEvent;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{FileId, JobId, JobIdGen, SiteId, TransferId};
use grid3_simkit::series::GaugeTracker;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::cluster::Site;
use grid3_site::job::{FailureCause, JobOutcome, JobRecord, JobSpec};
use grid3_site::storage::ReservationId;
use serde::{Deserialize, Serialize};

use super::{BrokeringEvent, EngineCtx, FaultEvent, GridEvent, ReportingEvent};

/// Sentinel transfer id for "no transfer was needed".
pub(crate) const NO_TRANSFER: TransferId = TransferId(u32::MAX);

/// Phase of an active job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Input data is on the wire to the execution site.
    StagingIn,
    /// Waiting in the site's batch queue.
    Queued,
    /// Executing on a worker node.
    Running,
    /// Output data is on the wire to the VO archive.
    StagingOut,
}

/// How a running job is predetermined to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionFate {
    /// Completes its work; proceeds to stage-out.
    Success,
    /// Dies of uncorrelated random loss (§6.2 "few random job losses").
    RandomLoss,
    /// Batch system kills it at the walltime limit.
    Walltime,
    /// Trips a latent site misconfiguration shortly after starting.
    Misconfig,
}

/// One job in flight, from gatekeeper acceptance to its terminal record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveJob {
    /// The job's resource requirements and data volumes.
    pub spec: JobSpec,
    /// The execution site the broker chose.
    pub site: SiteId,
    /// When the gatekeeper accepted it.
    pub submitted: SimTime,
    /// When it started executing (if it got that far).
    pub started: Option<SimTime>,
    /// Current lifecycle phase.
    pub phase: Phase,
    /// Predetermined execution outcome.
    pub fate: ExecutionFate,
    /// Scheduled execution span (drawn at dispatch).
    pub exec_duration: SimDuration,
    /// Bytes moved on this job's behalf so far.
    pub transferred: Bytes,
    /// SRM-style scratch reservation at the execution site.
    pub reservation: Option<ReservationId>,
    /// SRM-style output reservation at the VO archive.
    pub archive_reservation: Option<ReservationId>,
    /// LFN of the staged input on the site SE.
    pub scratch_lfn: Option<FileId>,
}

/// What an in-flight transfer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferPurpose {
    /// Pre-staging a job's input.
    JobStageIn(JobId),
    /// Archiving a job's output.
    JobStageOut(JobId),
    /// An Entrada demonstrator matrix transfer.
    Demo,
}

/// The shared grid state (see the module docs for the ownership rules).
pub struct GridFabric {
    /// The configuration in force.
    pub cfg: ScenarioConfig,
    /// The topology in force.
    pub topo: Topology,
    /// The sites, indexed by `SiteId`.
    pub sites: Vec<Site>,
    /// Per-site gatekeepers.
    pub gatekeepers: Vec<Gatekeeper>,
    /// The GridFTP fabric.
    pub gridftp: GridFtp,
    /// The replica location service.
    pub rls: ReplicaLocationService,
    /// The operations center (MDS, status catalog, tickets, …).
    pub center: OperationsCenter,
    /// Per-VO VOMS servers.
    pub voms: Vec<VomsServer>,
    /// The DOEGrids-style CA.
    pub ca: CertificateAuthority,
    /// The adaptive fault-handling layer (`None` for baseline runs) —
    /// the shared health/blacklist status board the broker consults and
    /// the fault subsystem feeds.
    pub resilience: Option<ResilienceLayer>,
    /// Concurrent-running-jobs gauge (§7 peak metric).
    pub job_gauge: GaugeTracker,
    /// Jobs in flight, from gatekeeper acceptance to terminal record.
    /// Admit and retire them through `GridFabric::start_job` and
    /// `GridFabric::remove_job`, which keep `staging_in` in step.
    pub jobs: FastMap<JobId, ActiveJob>,
    /// The jobs of `jobs` in [`Phase::StagingIn`], per site (indexed by
    /// `SiteId`, unordered), so an incident kills a site's stage-ins
    /// without scanning every active job. Derived from `jobs`: rebuilt
    /// on restore, never captured.
    pub(crate) staging_in: Vec<Vec<JobId>>,
    /// Grid-wide job id allocator.
    pub job_ids: JobIdGen,
    /// What each in-flight GridFTP transfer is for.
    pub transfer_purpose: FastMap<TransferId, TransferPurpose>,
    /// Runtime chaos switches (black-hole sites, sensor blackouts,
    /// iGOC partitions, pending emergency cleanups). All flags stay
    /// `false` in baseline runs, so every guard reading them is
    /// bit-neutral.
    pub chaos: ChaosState,
    /// The federation layer: site→grid labelling, member-grid backends,
    /// hierarchical MDS peering, and cross-grid accounting. Degenerate
    /// (one `Vdt` grid) in non-federated runs — every multi-grid branch
    /// is gated on `crate::federation::FederationState::is_single`.
    pub federation: crate::federation::FederationState,
}

impl GridFabric {
    /// Ship the GridFTP NetLogger event stream to the iGOC archive
    /// (§4.7's central collection point).
    pub(crate) fn drain_netlogger(&mut self) {
        self.center.netlogger.ingest_all(self.gridftp.drain_log());
    }

    /// Sync the federation-level directory from each member grid's
    /// slice of the MDS: per grid, the newest record timestamp among
    /// its sites becomes the peering view's freshness. Runs once per
    /// monitor sweep in multi-grid runs (reporting calls it); a no-op
    /// single-grid, where the peering table is never consulted.
    pub(crate) fn sync_federation(&mut self, now: SimTime) {
        if self.federation.is_single() {
            return;
        }
        for g in 0..self.federation.grids().len() {
            let gid = grid3_simkit::ids::GridId(g as u32);
            let freshest = self.center.mds.newest_timestamp(
                self.sites
                    .iter()
                    .map(|s| s.id)
                    .filter(|&s| self.federation.grid_of(s) == gid),
            );
            if let Some(ts) = freshest {
                self.federation.peering.sync(gid, ts, now);
            }
        }
    }

    /// Admit a placed job, which starts out staging in.
    pub(crate) fn start_job(&mut self, job: JobId, active: ActiveJob) {
        debug_assert_eq!(active.phase, Phase::StagingIn);
        self.staging_in[active.site.index()].push(job);
        self.jobs.insert(job, active);
    }

    /// Take a job out of the active table.
    pub(crate) fn remove_job(&mut self, job: JobId) -> Option<ActiveJob> {
        let j = self.jobs.remove(&job)?;
        if j.phase == Phase::StagingIn {
            self.end_stage_in(j.site, job);
        }
        Some(j)
    }

    /// Drop `job` from `site`'s staging-in jobs: its phase moved on.
    pub(crate) fn end_stage_in(&mut self, site: SiteId, job: JobId) {
        let jobs = &mut self.staging_in[site.index()];
        if let Some(at) = jobs.iter().position(|&j| j == job) {
            jobs.swap_remove(at);
        }
    }

    /// Rebuild `staging_in` from the job table (after a restore).
    pub(crate) fn rebuild_staging_in(&mut self) {
        self.staging_in.iter_mut().for_each(Vec::clear);
        for (&job, j) in &self.jobs {
            if j.phase == Phase::StagingIn {
                self.staging_in[j.site.index()].push(job);
            }
        }
    }

    /// Kill staging/queued (not running) jobs at a site: the queued ones
    /// in queue order, then the staging ones in `JobId` order.
    pub(crate) fn kill_non_running(
        &mut self,
        ctx: &mut EngineCtx,
        now: SimTime,
        site: SiteId,
        cause: FailureCause,
    ) {
        let queued = self.sites[site.index()].kill_all_queued();
        for qj in queued {
            self.fail_active_job(ctx, now, qj.job, cause);
        }
        let mut staging = std::mem::take(&mut self.staging_in[site.index()]);
        staging.sort_unstable();
        debug_assert_eq!(
            staging,
            {
                let mut scan: Vec<JobId> = self
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.site == site && j.phase == Phase::StagingIn)
                    .map(|(id, _)| *id)
                    .collect();
                scan.sort_unstable();
                scan
            },
            "staging-in index out of step with the job table at {site}"
        );
        for job in staging {
            self.fail_active_job(ctx, now, job, cause);
        }
    }

    /// Fail transfers touching a site, cascading to their jobs.
    pub(crate) fn fail_site_transfers(
        &mut self,
        ctx: &mut EngineCtx,
        now: SimTime,
        site: SiteId,
        cause: FailureCause,
    ) {
        let failed = self.gridftp.fail_site(site, now);
        for outcome in failed {
            // Partial bytes still moved over the wire before the failure.
            ctx.emit(GridEvent::Reporting(ReportingEvent::CreditTransfer(
                outcome.request.vo,
                outcome.delivered,
            )));
            match self.transfer_purpose.remove(&outcome.id) {
                Some(TransferPurpose::JobStageIn(j)) | Some(TransferPurpose::JobStageOut(j)) => {
                    self.fail_active_job(ctx, now, j, cause);
                }
                Some(TransferPurpose::Demo) | None => {}
            }
        }
    }

    /// Resolve a site's open tickets when an outage ends (failure-storm
    /// tickets resolve through their own repair event instead). While
    /// the site is partitioned from the iGOC, resolution is deferred —
    /// the partition-heal event re-runs this.
    pub(crate) fn resolve_site_tickets(
        &mut self,
        ops: &crate::ops::OpsJournal,
        site: SiteId,
        now: SimTime,
    ) {
        if self.chaos.is_igoc_partitioned(site) {
            return;
        }
        let open: Vec<_> = self
            .center
            .tickets
            .open_at(site)
            .filter(|t| t.kind != TicketKind::FailureStorm)
            .map(|t| t.id)
            .collect();
        for id in open {
            self.center.tickets.resolve(id, now);
            ops.record(
                now,
                Some(site),
                crate::ops::OpsEventKind::TicketResolved { ticket: id },
            );
        }
    }

    /// Terminate an in-flight job with a failure cause, releasing its
    /// resources and funnelling the terminal record.
    pub(crate) fn fail_active_job(
        &mut self,
        ctx: &mut EngineCtx,
        now: SimTime,
        job: JobId,
        cause: FailureCause,
    ) {
        let Some(j) = self.remove_job(job) else {
            return;
        };
        if j.phase == Phase::Running {
            // Killed under execution (rollover / crash): close the CPU
            // accounting span before the terminal event.
            ctx.traces.record(job, now, TraceEvent::ExecutionEnded);
        }
        ctx.traces.record(job, now, TraceEvent::Failed(cause));
        self.release_job_resources(&j, job);
        let runtime = j.started.map(|s| now.since(s)).unwrap_or(SimDuration::ZERO);
        // A job killed mid-flight consumed CPU until now (capped at its
        // scheduled execution span).
        let runtime = if j.exec_duration.is_zero() {
            runtime
        } else {
            runtime.min(j.exec_duration)
        };
        self.finish_job_record(
            ctx,
            now,
            job,
            &j.spec,
            j.site,
            j.submitted,
            j.started,
            runtime,
            j.transferred,
            JobOutcome::Failed(cause),
        );
    }

    /// Terminate an in-flight job as fully completed (§6.1: every
    /// lifecycle step succeeded).
    pub(crate) fn complete_active_job(&mut self, ctx: &mut EngineCtx, now: SimTime, job: JobId) {
        let Some(j) = self.remove_job(job) else {
            return;
        };
        ctx.traces.record(job, now, TraceEvent::Completed);
        self.release_job_resources(&j, job);
        let started = j.started.expect("completed job ran");
        self.finish_job_record(
            ctx,
            now,
            job,
            &j.spec,
            j.site,
            j.submitted,
            Some(started),
            j.exec_duration,
            j.transferred,
            JobOutcome::Completed,
        );
    }

    /// Return a job's gatekeeper slot, scratch data and reservations.
    pub(crate) fn release_job_resources(&mut self, j: &ActiveJob, job: JobId) {
        self.gatekeepers[j.site.index()].job_done(job).ok();
        if let Some(lfn) = j.scratch_lfn {
            let _ = self.sites[j.site.index()].storage.delete(lfn);
        }
        if let Some(r) = j.reservation {
            let _ = self.sites[j.site.index()].storage.release(r);
        }
        if let Some(r) = j.archive_reservation {
            let archive = self.topo.archive_site(j.spec.class.vo());
            let _ = self.sites[archive.index()].storage.release(r);
        }
    }

    /// The single terminal funnel: emit the immediate triple — record
    /// ingestion (reporting), site outcome (fault handling), campaign
    /// feedback (brokering) — in the monolith's original call order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_job_record(
        &mut self,
        ctx: &mut EngineCtx,
        now: SimTime,
        job: JobId,
        spec: &JobSpec,
        site: SiteId,
        submitted: SimTime,
        started: Option<SimTime>,
        runtime: SimDuration,
        transferred: Bytes,
        outcome: JobOutcome,
    ) {
        let record = JobRecord {
            job,
            class: spec.class,
            user: spec.user,
            site,
            submitted,
            started,
            finished: now,
            runtime,
            transferred,
            outcome,
        };
        let boxed = ctx.boxed_record(record);
        ctx.emit(GridEvent::Reporting(ReportingEvent::JobFinished(boxed)));
        ctx.emit(GridEvent::Fault(FaultEvent::JobOutcome(site, outcome)));
        ctx.emit(GridEvent::Brokering(BrokeringEvent::CampaignOutcome(
            job,
            outcome.is_success(),
        )));
    }
}
