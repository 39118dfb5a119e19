//! Execution: batch dispatch at the sites and the predetermined
//! execution fates (§6.2's per-job loss models).
//!
//! The site schedulers' dispatch results come back as value-typed
//! callbacks ([`grid3_site::scheduler::QueuedJob`] + node) that this
//! subsystem converts into timed [`ExecutionEvent::ExecutionEnds`]
//! events; fates draw from the shared `fate_rng` stream in the exact
//! order the monolith drew them. Successful runs hand their output to
//! staging via an immediate [`StagingEvent::BeginStageOut`].

use grid3_monitoring::trace::TraceEvent;
use grid3_simkit::ids::{JobId, NodeId, SiteId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::job::FailureCause;
use grid3_site::scheduler::QueuedJob;

use super::fabric::{ExecutionFate, Phase};
use super::{EngineCtx, ExecutionEvent, GridEvent, GridFabric, StagingEvent, Subsystem};

/// The execution subsystem (see the module docs).
///
/// Holds no run state: the jobs it advances live in the shared fabric's
/// job table, and its randomness comes from the context's fate stream —
/// so the subsystem itself is pure event-to-event logic. Its one field
/// is dispatch scratch whose contents never outlive an event: snapshots
/// do not capture it, and it restores empty.
#[derive(Default)]
pub struct Execution {
    /// Reusable `(queued-job, node)` buffer for
    /// [`Site::dispatch`](grid3_site::cluster::Site::dispatch).
    started: Vec<(QueuedJob, NodeId)>,
}

/// Grace period past a job's requested walltime before the hung-job
/// watchdog declares it lost. Generous enough that no healthy fate
/// (all capped at the requested walltime) can be reaped by mistake.
const HUNG_JOB_GRACE: SimDuration = SimDuration::from_hours(1);

impl Execution {
    fn dispatch_site(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        site: SiteId,
    ) {
        if !fabric.topo.is_online(site, now) {
            return;
        }
        fabric.sites[site.index()].dispatch(now, &mut self.started);
        for (qj, node) in &self.started {
            let (job, node) = (qj.job, *node);
            let Some(spec) = fabric.jobs.get(&job).map(|j| j.spec.clone()) else {
                continue;
            };
            fabric.job_gauge.step(now, 1.0);
            let wall = fabric.sites[site.index()]
                .node(node)
                .wall_time_for(spec.reference_runtime);
            let validated = fabric.sites[site.index()].validated;
            let repaired = fabric.sites[site.index()].repaired;
            let misconfig = fabric.sites[site.index()]
                .profile
                .failures
                .job_misconfig_failure(&mut ctx.fate_rng, validated, repaired);
            let random_loss = fabric.sites[site.index()]
                .profile
                .failures
                .job_random_loss(&mut ctx.fate_rng);
            let (fate, ends_after) = if misconfig {
                (
                    ExecutionFate::Misconfig,
                    SimDuration::from_secs_f64((wall.as_secs_f64() * 0.05).clamp(30.0, 1_800.0)),
                )
            } else if random_loss {
                (
                    ExecutionFate::RandomLoss,
                    wall * ctx.fate_rng.range_f64(0.05, 0.95),
                )
            } else if wall > spec.requested_walltime {
                (ExecutionFate::Walltime, spec.requested_walltime)
            } else {
                (ExecutionFate::Success, wall)
            };
            let j = fabric.jobs.get_mut(&job).expect("present");
            j.phase = Phase::Running;
            j.started = Some(now);
            j.fate = fate;
            j.exec_duration = ends_after;
            ctx.traces.record(job, now, TraceEvent::Dispatched { node });
            // Black-hole site (§6.2): the batch system "runs" the job but
            // it will never finish — suppress the end event and let the
            // hung-job watchdog reap it. Fate draws above still happened,
            // so the RNG stream is identical with chaos disabled.
            if !fabric.chaos.is_black_hole(site) {
                ctx.queue.schedule_at(
                    now + ends_after,
                    GridEvent::Execution(ExecutionEvent::ExecutionEnds(job)),
                );
            }
            if fabric.cfg.chaos.is_some() {
                // Wall-clock watchdog: if the job is somehow still Running
                // past its requested walltime plus a grace period, reap it.
                // Lazily cancelled — for healthy jobs the check no-ops.
                ctx.queue.schedule_at(
                    now + spec.requested_walltime + HUNG_JOB_GRACE,
                    GridEvent::Execution(ExecutionEvent::HungJobCheck(job)),
                );
            }
        }
    }

    fn on_execution_ends(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
    ) {
        let Some(j) = fabric.jobs.get(&job) else {
            return;
        };
        if j.phase != Phase::Running {
            return; // stale (killed earlier)
        }
        let site = j.site;
        let fate = j.fate;
        fabric.sites[site.index()].release(job, now);
        fabric.job_gauge.step(now, -1.0);
        // Failure fates get their ExecutionEnded from the fail path
        // (which also covers jobs killed by site incidents).
        if fate == ExecutionFate::Success {
            ctx.traces.record(job, now, TraceEvent::ExecutionEnded);
        }
        ctx.queue
            .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));

        match fate {
            ExecutionFate::RandomLoss => {
                fabric.fail_active_job(ctx, now, job, FailureCause::RandomLoss)
            }
            ExecutionFate::Walltime => {
                fabric.fail_active_job(ctx, now, job, FailureCause::WalltimeExceeded)
            }
            ExecutionFate::Misconfig => {
                fabric.fail_active_job(ctx, now, job, FailureCause::Misconfiguration)
            }
            ExecutionFate::Success => {
                ctx.emit(GridEvent::Staging(StagingEvent::BeginStageOut(job)));
            }
        }
    }

    /// Hung-job watchdog: reap a job still `Running` past its walltime
    /// grace window (a black-hole site swallowed it). No-ops for jobs
    /// that finished, failed, or were killed in the meantime.
    fn on_hung_job_check(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
    ) {
        let Some(j) = fabric.jobs.get(&job) else {
            return; // already terminal
        };
        if j.phase != Phase::Running {
            return; // finished or killed; the check is stale
        }
        let site = j.site;
        fabric.sites[site.index()].release(job, now);
        fabric.job_gauge.step(now, -1.0);
        ctx.ops.record(
            now,
            Some(site),
            crate::ops::OpsEventKind::WatchdogReap { job },
        );
        ctx.queue
            .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
        fabric.fail_active_job(ctx, now, job, FailureCause::WalltimeExceeded);
    }
}

impl Subsystem for Execution {
    type Event = ExecutionEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: ExecutionEvent,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    ) {
        match event {
            ExecutionEvent::TryDispatch(site) => self.dispatch_site(ctx, fabric, now, site),
            ExecutionEvent::ExecutionEnds(job) => self.on_execution_ends(ctx, fabric, now, job),
            ExecutionEvent::HungJobCheck(job) => self.on_hung_job_check(ctx, fabric, now, job),
        }
    }
}
