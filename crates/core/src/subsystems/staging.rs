//! Staging: GridFTP stage-in/stage-out completion, storage-element
//! placement, RLS registration (§6.1's lifecycle tail), and the Entrada
//! GridFTP demonstrator (§4.7, §6.3).
//!
//! Owns the LFN allocator and the demonstrator's transfer matrix. When a
//! stage-in lands, the job enters the batch queue and the subsystem
//! emits an immediate [`ExecutionEvent::TryDispatch`] — the routed
//! replacement for the monolith's direct dispatch call.

use crate::apps::demonstrators::EntradaDemo;
use crate::ops::OpsEventKind;
use grid3_igoc::tickets::TicketKind;
use grid3_monitoring::trace::TraceEvent;
use grid3_simkit::ids::{FileIdGen, JobId, SiteId, TransferId};
use grid3_simkit::time::SimTime;
use grid3_site::job::FailureCause;
use grid3_site::scheduler::QueuedJob;

use super::fabric::{Phase, TransferPurpose, NO_TRANSFER};
use super::{
    EngineCtx, ExecutionEvent, GridEvent, GridFabric, ReportingEvent, StagingEvent, Subsystem,
};

/// How long after a disk-full stage-in bounce the chaos cleanup sweep
/// reclaims external data (the simulated operator's reaction time).
const CLEANUP_SWEEP_DELAY: grid3_simkit::time::SimDuration =
    grid3_simkit::time::SimDuration::from_mins(30);

/// The staging subsystem (see the module docs).
///
/// Serde round-trips the whole struct: the LFN allocator position is
/// run-mutated state and the demonstrator matrix is cheap config.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct Staging {
    /// Grid-wide logical-file-name allocator.
    lfns: FileIdGen,
    /// The Entrada demonstrator (`None` when the scenario omits it).
    demo: Option<EntradaDemo>,
}

impl Staging {
    /// Build the subsystem around the assembled demonstrator.
    pub(crate) fn new(demo: Option<EntradaDemo>) -> Self {
        Staging {
            lfns: FileIdGen::new(),
            demo,
        }
    }

    /// Book a completed transfer: credit the delivered bytes to the VO's
    /// accounting, and grow the job's transferred tally.
    fn book_transfer(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        xfer: TransferId,
    ) -> bool {
        if xfer != NO_TRANSFER {
            if fabric.transfer_purpose.remove(&xfer).is_none() {
                return false; // stale: the transfer already died with its site
            }
            if let Ok(outcome) = fabric.gridftp.complete(xfer, now) {
                ctx.emit(GridEvent::Reporting(ReportingEvent::CreditTransfer(
                    outcome.request.vo,
                    outcome.delivered,
                )));
                if let Some(j) = fabric.jobs.get_mut(&job) {
                    j.transferred += outcome.delivered;
                }
            }
        }
        true
    }

    fn on_stage_in_done(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        xfer: TransferId,
    ) {
        if !self.book_transfer(ctx, fabric, now, job, xfer) {
            return;
        }
        let Some(j) = fabric.jobs.get(&job) else {
            return;
        };
        let site = j.site;
        let scratch = j.spec.input_bytes + j.spec.scratch_bytes;
        let reservation = j.reservation;
        let vo = j.spec.class.vo();
        let walltime = j.spec.requested_walltime;
        let lfn = self.lfns.next_id();

        // Land the staged data on the site SE.
        let stored = match reservation {
            Some(r) => fabric.sites[site.index()]
                .storage
                .store_reserved(r, lfn, scratch)
                .is_ok(),
            None => fabric.sites[site.index()]
                .storage
                .store(lfn, scratch)
                .is_ok(),
        };
        if !stored {
            if fabric.cfg.chaos.is_some() {
                self.on_disk_full_stage_in(ctx, fabric, now, site);
            }
            fabric.fail_active_job(ctx, now, job, FailureCause::DiskFull);
            return;
        }
        {
            let j = fabric.jobs.get_mut(&job).expect("present");
            j.reservation = None;
            j.scratch_lfn = Some(lfn);
            j.phase = Phase::Queued;
        }
        fabric.end_stage_in(site, job);
        ctx.traces.record(job, now, TraceEvent::StageInDone);
        ctx.traces.record(job, now, TraceEvent::Queued);
        fabric.sites[site.index()].enqueue(QueuedJob {
            job,
            vo,
            requested_walltime: walltime,
            enqueued: now,
        });
        ctx.emit(GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
    }

    fn on_stage_out_done(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        xfer: TransferId,
    ) {
        if !self.book_transfer(ctx, fabric, now, job, xfer) {
            return;
        }
        let Some(j) = fabric.jobs.get(&job) else {
            return;
        };
        let vo = j.spec.class.vo();
        let out = j.spec.output_bytes;
        let registers = j.spec.registers_output;
        let archive = fabric.topo.archive_site(vo);
        ctx.traces.record(job, now, TraceEvent::StageOutDone);

        // Archive storage write (into the SRM reservation when one is
        // held).
        let archive_res = fabric
            .jobs
            .get_mut(&job)
            .and_then(|j| j.archive_reservation.take());
        let lfn = self.lfns.next_id();
        let stored = match archive_res {
            Some(r) => fabric.sites[archive.index()]
                .storage
                .store_reserved(r, lfn, out)
                .is_ok(),
            None => fabric.sites[archive.index()]
                .storage
                .store(lfn, out)
                .is_ok(),
        };
        if !stored {
            fabric.fail_active_job(ctx, now, job, FailureCause::StageOutFailure);
            return;
        }
        // RLS registration (§6.1 counts it in the lifecycle). Failure
        // odds come from the archive grid's replica backend — `Vdt`
        // reproduces the legacy 0.002, and `chance()` consumes one draw
        // whatever the probability, so single-grid streams are untouched.
        if registers {
            let reg_fail = {
                let g = fabric.federation.grid_of(archive);
                fabric.federation.grids()[g.index()]
                    .backend
                    .replica()
                    .registration_failure_chance()
            };
            if ctx.fate_rng.chance(reg_fail) {
                fabric.fail_active_job(ctx, now, job, FailureCause::RegistrationFailure);
                return;
            }
            fabric.rls.register(lfn, archive);
            ctx.traces.record(job, now, TraceEvent::Registered);
        }
        fabric.complete_active_job(ctx, now, job);
    }

    /// Start moving a finished job's output to the VO archive (zero-byte
    /// or local outputs skip the wire).
    fn begin_stage_out(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
    ) {
        let Some(j) = fabric.jobs.get_mut(&job) else {
            return;
        };
        j.phase = Phase::StagingOut;
        let site = j.site;
        let vo = j.spec.class.vo();
        let out = j.spec.output_bytes;
        let dst = fabric.topo.archive_site(vo);
        ctx.traces
            .record(job, now, TraceEvent::StageOutStarted { bytes: out });
        if out.is_zero() || dst == site {
            ctx.queue.schedule_at(
                now,
                GridEvent::Staging(StagingEvent::StageOutDone(job, NO_TRANSFER)),
            );
        } else {
            match fabric.gridftp.start(
                grid3_middleware::gridftp::TransferRequest {
                    src: site,
                    dst,
                    bytes: out,
                    vo,
                },
                now,
            ) {
                Ok((xfer, finish)) => {
                    fabric
                        .transfer_purpose
                        .insert(xfer, TransferPurpose::JobStageOut(job));
                    ctx.queue.schedule_at(
                        finish,
                        GridEvent::Staging(StagingEvent::StageOutDone(job, xfer)),
                    );
                }
                Err(_) => fabric.fail_active_job(ctx, now, job, FailureCause::StageOutFailure),
            }
        }
    }

    /// Stage-in write bounced off a full disk (chaos runs only): open a
    /// disk-pressure ticket and, when external (non-grid) data is what
    /// filled the SE, schedule one cleanup sweep to reclaim it — the §6.2
    /// "remove the offending files" recovery, as a policy instead of an
    /// operator.
    fn on_disk_full_stage_in(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        site: SiteId,
    ) {
        let ticket = fabric
            .center
            .tickets
            .open(site, TicketKind::DiskPressure, now);
        ctx.ops
            .ticket_opened(now, site, ticket, TicketKind::DiskPressure);
        let external = fabric.sites[site.index()].storage.external_bytes();
        let pending = fabric
            .chaos
            .cleanup_pending
            .get(site.index())
            .copied()
            .unwrap_or(false);
        if !external.is_zero() && !pending {
            if let Some(flag) = fabric.chaos.cleanup_pending.get_mut(site.index()) {
                *flag = true;
            }
            ctx.ops
                .record(now, Some(site), OpsEventKind::CleanupScheduled);
            ctx.queue.schedule_at(
                now + CLEANUP_SWEEP_DELAY,
                GridEvent::Fault(super::FaultEvent::DiskCleanup(site, external)),
            );
        }
    }

    /// Chaos fault: cut the oldest in-flight job transfer mid-wire, then
    /// start a resume transfer for the remainder — or, when the partial
    /// file fails its checksum (`corrupt`), for the whole payload again.
    fn on_chaos_truncate(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        corrupt: bool,
    ) {
        // Oldest live job transfer (min id); the demo matrix is exempt —
        // its transfers carry no job to resume for.
        let Some((&xfer, &purpose)) = fabric
            .transfer_purpose
            .iter()
            .filter(|(_, p)| !matches!(p, TransferPurpose::Demo))
            .min_by_key(|(id, _)| **id)
        else {
            return; // nothing in flight; the fault fizzles
        };
        let Ok(cut) = fabric.gridftp.truncate(xfer, now) else {
            return;
        };
        fabric.transfer_purpose.remove(&xfer);
        let job = match purpose {
            TransferPurpose::JobStageIn(job) | TransferPurpose::JobStageOut(job) => job,
            TransferPurpose::Demo => unreachable!("filtered above"),
        };
        // The partial still moved real bytes over real links: credit it,
        // unless the checksum said the fragment is garbage.
        if !corrupt && !cut.outcome.delivered.is_zero() {
            ctx.emit(GridEvent::Reporting(ReportingEvent::CreditTransfer(
                cut.outcome.request.vo,
                cut.outcome.delivered,
            )));
            if let Some(j) = fabric.jobs.get_mut(&job) {
                j.transferred += cut.outcome.delivered;
            }
        }
        let site = fabric.jobs.get(&job).map(|j| j.site);
        ctx.ops
            .record_with(now, site, || OpsEventKind::FaultInjected {
                kind: if corrupt {
                    "truncated_corrupt"
                } else {
                    "truncated_resumed"
                }
                .to_string(),
            });
        // Checksum-verified resume: re-request the remainder (or the full
        // payload when the fragment failed verification).
        let mut request = cut.outcome.request;
        request.bytes = if corrupt {
            request.bytes
        } else {
            cut.remaining
        };
        let (done, cause): (fn(JobId, TransferId) -> StagingEvent, _) = match purpose {
            TransferPurpose::JobStageIn(_) => {
                (StagingEvent::StageInDone, FailureCause::StageInFailure)
            }
            TransferPurpose::JobStageOut(_) => {
                (StagingEvent::StageOutDone, FailureCause::StageOutFailure)
            }
            TransferPurpose::Demo => unreachable!("filtered above"),
        };
        match fabric.gridftp.start(request, now) {
            Ok((resumed, finish)) => {
                fabric.transfer_purpose.insert(resumed, purpose);
                ctx.queue
                    .schedule_at(finish, GridEvent::Staging(done(job, resumed)));
            }
            Err(_) => fabric.fail_active_job(ctx, now, job, cause),
        }
    }

    fn on_entrada_round(&mut self, ctx: &mut EngineCtx, fabric: &mut GridFabric, now: SimTime) {
        let Some(demo) = self.demo.clone() else {
            return;
        };
        for req in demo.round() {
            if !fabric.topo.is_online(req.src, now) || !fabric.topo.is_online(req.dst, now) {
                continue;
            }
            if let Ok((xfer, finish)) = fabric.gridftp.start(req, now) {
                fabric.transfer_purpose.insert(xfer, TransferPurpose::Demo);
                ctx.queue.schedule_at(
                    finish,
                    GridEvent::Staging(StagingEvent::DemoTransferDone(xfer)),
                );
            }
        }
        let next = now + demo.period;
        if next < fabric.cfg.horizon() {
            ctx.queue
                .schedule_at(next, GridEvent::Staging(StagingEvent::EntradaRound));
        }
    }

    fn on_demo_transfer_done(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        xfer: TransferId,
    ) {
        if fabric.transfer_purpose.remove(&xfer).is_none() {
            return; // stale
        }
        if let Ok(outcome) = fabric.gridftp.complete(xfer, now) {
            ctx.emit(GridEvent::Reporting(ReportingEvent::CreditTransfer(
                outcome.request.vo,
                outcome.delivered,
            )));
        }
    }
}

impl Subsystem for Staging {
    type Event = StagingEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: StagingEvent,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    ) {
        match event {
            StagingEvent::StageInDone(job, xfer) => {
                self.on_stage_in_done(ctx, fabric, now, job, xfer)
            }
            StagingEvent::StageOutDone(job, xfer) => {
                self.on_stage_out_done(ctx, fabric, now, job, xfer)
            }
            StagingEvent::BeginStageOut(job) => self.begin_stage_out(ctx, fabric, now, job),
            StagingEvent::ChaosTruncateTransfer { corrupt } => {
                self.on_chaos_truncate(ctx, fabric, now, corrupt)
            }
            StagingEvent::EntradaRound => self.on_entrada_round(ctx, fabric, now),
            StagingEvent::DemoTransferDone(xfer) => {
                self.on_demo_transfer_done(ctx, fabric, now, xfer)
            }
        }
    }
}
