//! Fault handling: site incidents and their §6.2 group-death semantics,
//! outage restores, the failure-storm detection/repair loop of the
//! resilience layer, and the §7 per-state completion ledger.
//!
//! Restore events are scheduled through trailing [`GridEvent::Timer`]
//! immediates rather than inline: the kill cascades a crash triggers
//! emit their own timed events (storm repairs, campaign re-ticks), and
//! the monolith inserted those *before* the restore — the trailing timer
//! preserves that insertion order, and with it FIFO tie-breaking.

use crate::ops::OpsEventKind;
use crate::resilience::{SiteState, SiteStateLedger};
use grid3_igoc::tickets::TicketKind;
use grid3_simkit::ids::SiteId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::failure::FailureEvent;
use grid3_site::job::{FailureCause, JobOutcome};

use super::{EngineCtx, ExecutionEvent, FaultEvent, GridEvent, GridFabric, Subsystem};

/// The fault-handling subsystem (see the module docs).
#[derive(Clone, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct FaultHandling {
    /// Completion accounting bucketed by site operational state at finish
    /// time — the §7 m-eff split's source.
    pub(crate) site_ledger: SiteStateLedger,
}

impl FaultHandling {
    fn on_incident(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        site: SiteId,
        incident: FailureEvent,
    ) {
        if !fabric.topo.is_online(site, now) {
            return;
        }
        ctx.ops
            .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                kind: incident.label().to_string(),
            });
        match incident {
            FailureEvent::DiskFull {
                external_bytes,
                cleanup_after,
                ..
            } => {
                // A disk-full incident means the disk actually filled:
                // non-grid data takes (at least) the sampled volume and in
                // any case nearly all remaining free space, so staging
                // writes fail until cleanup. SRM reservations (the §8
                // ablation) are immune: reserved space is not "free".
                let fill = external_bytes.max(fabric.sites[site.index()].storage.free() * 0.98);
                let consumed = fabric.sites[site.index()].storage.consume_external(fill);
                ctx.queue.schedule_at(
                    now + cleanup_after,
                    GridEvent::Fault(FaultEvent::DiskCleanup(site, consumed.taken)),
                );
                let ticket = fabric.center.tickets.open(site, TicketKind::DiskFull, now);
                ctx.ops
                    .ticket_opened(now, site, ticket, TicketKind::DiskFull);
                if !consumed.shortfall.is_zero() && fabric.cfg.chaos.is_some() {
                    // The incident wanted more space than the disk had:
                    // surface the shortfall as a quota-pressure ticket
                    // instead of dropping it on the floor. Gated on the
                    // chaos layer so baseline golden runs are untouched.
                    let ticket = fabric
                        .center
                        .tickets
                        .open(site, TicketKind::DiskPressure, now);
                    ctx.ops
                        .ticket_opened(now, site, ticket, TicketKind::DiskPressure);
                }
                if let Some(r) = &mut fabric.resilience {
                    r.suspend(site);
                    ctx.ops.record(now, Some(site), OpsEventKind::SiteSuspended);
                }
                if !fabric.cfg.srm_reservations {
                    // §6.2: "a disk would fill up … and all jobs submitted
                    // to a site would die" — queued and staging jobs die.
                    fabric.kill_non_running(ctx, now, site, FailureCause::DiskFull);
                }
            }
            FailureEvent::ServiceCrash { outage, .. } => {
                // The gatekeeper/GridFTP stack dies; jobs already running
                // under the local batch system keep executing (§6.2's
                // group deaths hit jobs *submitted to* the site — queued
                // and staging — plus every in-flight transfer).
                fabric.sites[site.index()].service_up = false;
                fabric.gridftp.set_link_up(site, false);
                fabric.gatekeepers[site.index()].crash();
                // Suspend brokering before the kills so the deaths are
                // accounted against a degraded site.
                if let Some(r) = &mut fabric.resilience {
                    r.suspend(site);
                    ctx.ops.record(now, Some(site), OpsEventKind::SiteSuspended);
                }
                fabric.fail_site_transfers(ctx, now, site, FailureCause::ServiceFailure);
                fabric.kill_non_running(ctx, now, site, FailureCause::ServiceFailure);
                // Detection happens via the status-probe → ticket path.
                ctx.emit_timer(
                    now + outage,
                    GridEvent::Fault(FaultEvent::ServiceRestore(site)),
                );
            }
            FailureEvent::NetworkCut { outage, .. } => {
                fabric.sites[site.index()].network_up = false;
                fabric.gridftp.set_link_up(site, false);
                if let Some(r) = &mut fabric.resilience {
                    r.suspend(site);
                    ctx.ops.record(now, Some(site), OpsEventKind::SiteSuspended);
                }
                fabric.fail_site_transfers(ctx, now, site, FailureCause::NetworkInterruption);
                // Detection happens via the status-probe → ticket path.
                ctx.emit_timer(
                    now + outage,
                    GridEvent::Fault(FaultEvent::NetworkRestore(site)),
                );
            }
            FailureEvent::NightlyRollover { .. } => {
                let killed = fabric.sites[site.index()].nodes_down(now);
                for b in killed {
                    fabric.job_gauge.step(now, -1.0);
                    fabric.fail_active_job(ctx, now, b.job, FailureCause::NodeRollover);
                }
                ctx.emit_timer(
                    now + SimDuration::from_hours(1),
                    GridEvent::Fault(FaultEvent::NodesRestore(site)),
                );
            }
            FailureEvent::Misconfigured { .. } => {
                // Configuration drift (§6.2): the site silently falls back
                // to the high per-job failure regime. Nothing visible
                // happens now — the storm detector has to catch it from
                // the job-failure stream.
                let s = &mut fabric.sites[site.index()];
                s.validated = false;
                s.repaired = false;
            }
        }
    }

    /// A failure-storm repair lands: resolve the ticket, re-validate the
    /// site into the low-failure *repaired* regime, lift every ban.
    fn on_site_repaired(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        site: SiteId,
    ) {
        let Some(r) = &mut fabric.resilience else {
            return;
        };
        let Some(ticket) = r.finish_repair(site) else {
            return;
        };
        fabric.center.tickets.resolve(ticket, now);
        let s = &mut fabric.sites[site.index()];
        s.validated = true;
        s.repaired = true;
        ctx.ops
            .record(now, Some(site), OpsEventKind::TicketResolved { ticket });
        ctx.ops.record(now, Some(site), OpsEventKind::SiteRepaired);
        ctx.queue
            .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
    }

    /// Bucket a terminal outcome by the site's operational state and feed
    /// the resilience layer's health window — opening a failure-storm
    /// ticket (and scheduling its repair) when the window trips.
    fn on_job_outcome(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        site: SiteId,
        outcome: JobOutcome,
    ) {
        if matches!(outcome, JobOutcome::Failed(FailureCause::NoEligibleSite)) {
            return; // placeholder record; no site was involved
        }
        let success = outcome.is_success();
        let state = if fabric
            .resilience
            .as_ref()
            .is_some_and(|r| r.is_banned(site, now))
        {
            SiteState::Degraded
        } else if fabric.sites[site.index()].validated {
            SiteState::Validated
        } else {
            SiteState::Unvalidated
        };
        self.site_ledger.record(state, success);
        // Per-grid efficiency split, mirroring the site-state ledger
        // above (and its NoEligibleSite skip). The tally is plain
        // counters outside the report hash's view in single-grid runs.
        fabric.federation.record_outcome(site, success);

        let Some(r) = &mut fabric.resilience else {
            return;
        };
        let site_failure = match outcome {
            JobOutcome::Failed(cause) => cause.is_site_problem(),
            _ => false,
        };
        if r.record_outcome(site, site_failure) {
            let ticket = fabric
                .center
                .tickets
                .open(site, TicketKind::FailureStorm, now);
            ctx.ops
                .ticket_opened(now, site, ticket, TicketKind::FailureStorm);
            ctx.ops
                .record(now, Some(site), OpsEventKind::StormDetected { ticket });
            r.begin_repair(site, ticket);
            let delay = r
                .config()
                .revalidation
                .repair_delay(TicketKind::FailureStorm);
            ctx.queue.schedule_at(
                now + delay,
                GridEvent::Fault(FaultEvent::SiteRepaired(site)),
            );
        }
    }
}

impl Subsystem for FaultHandling {
    type Event = FaultEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: FaultEvent,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    ) {
        match event {
            FaultEvent::Incident(site, incident) => {
                self.on_incident(ctx, fabric, now, site, incident)
            }
            FaultEvent::ServiceRestore(site) => {
                fabric.sites[site.index()].service_up = true;
                fabric.gatekeepers[site.index()].restart();
                fabric
                    .gridftp
                    .set_link_up(site, fabric.sites[site.index()].network_up);
                fabric.resolve_site_tickets(&mut ctx.ops, site, now);
                if let Some(r) = &mut fabric.resilience {
                    r.reinstate(site, now);
                    ctx.ops
                        .record(now, Some(site), OpsEventKind::SiteReinstated);
                }
                ctx.queue
                    .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
            }
            FaultEvent::NetworkRestore(site) => {
                fabric.sites[site.index()].network_up = true;
                fabric
                    .gridftp
                    .set_link_up(site, fabric.sites[site.index()].service_up);
                fabric.resolve_site_tickets(&mut ctx.ops, site, now);
                if let Some(r) = &mut fabric.resilience {
                    r.reinstate(site, now);
                    ctx.ops
                        .record(now, Some(site), OpsEventKind::SiteReinstated);
                }
            }
            FaultEvent::NodesRestore(site) => {
                fabric.sites[site.index()].nodes_back_up();
                ctx.queue
                    .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
            }
            FaultEvent::DiskCleanup(site, bytes) => {
                fabric.sites[site.index()].storage.reclaim_external(bytes);
                if let Some(flag) = fabric.chaos.cleanup_pending.get_mut(site.index()) {
                    *flag = false;
                }
                fabric.resolve_site_tickets(&mut ctx.ops, site, now);
                if let Some(r) = &mut fabric.resilience {
                    r.reinstate(site, now);
                    ctx.ops
                        .record(now, Some(site), OpsEventKind::SiteReinstated);
                }
                ctx.queue
                    .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
            }
            FaultEvent::SiteRepaired(site) => self.on_site_repaired(ctx, fabric, now, site),
            FaultEvent::JobOutcome(site, outcome) => {
                self.on_job_outcome(ctx, fabric, now, site, outcome)
            }
            FaultEvent::ChaosBlackHole(site, duration) => {
                // §6.2's black-hole site: the gatekeeper keeps accepting
                // jobs and the batch system keeps "running" them, but
                // nothing ever finishes. Dispatch stays open — the hole
                // eats work until the hung-job watchdog notices.
                if let Some(flag) = fabric.chaos.black_hole.get_mut(site.index()) {
                    *flag = true;
                }
                ctx.ops
                    .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                        kind: "black_hole".to_string(),
                    });
                ctx.queue.schedule_at(
                    now + duration,
                    GridEvent::Fault(FaultEvent::ChaosBlackHoleEnd(site)),
                );
            }
            FaultEvent::ChaosBlackHoleEnd(site) => {
                if let Some(flag) = fabric.chaos.black_hole.get_mut(site.index()) {
                    *flag = false;
                }
                // Jobs swallowed during the hole stay hung until their
                // watchdog fires; new dispatches behave normally again.
                ctx.queue
                    .schedule_at(now, GridEvent::Execution(ExecutionEvent::TryDispatch(site)));
            }
            FaultEvent::ChaosRlsStale(site, duration) => {
                fabric.rls.mark_stale(site);
                ctx.ops
                    .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                        kind: "rls_stale".to_string(),
                    });
                ctx.queue.schedule_at(
                    now + duration,
                    GridEvent::Fault(FaultEvent::ChaosRlsHeal(site)),
                );
            }
            FaultEvent::ChaosRlsHeal(site) => {
                fabric.rls.heal_stale(site);
            }
            FaultEvent::ChaosMdsFreeze(site, duration) => {
                fabric.center.mds.set_frozen(site, true);
                ctx.ops
                    .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                        kind: "mds_freeze".to_string(),
                    });
                ctx.queue.schedule_at(
                    now + duration,
                    GridEvent::Fault(FaultEvent::ChaosMdsThaw(site)),
                );
            }
            FaultEvent::ChaosMdsThaw(site) => {
                fabric.center.mds.set_frozen(site, false);
            }
            FaultEvent::ChaosSensorBlackout(site, duration) => {
                if let Some(flag) = fabric.chaos.sensor_blackout.get_mut(site.index()) {
                    *flag = true;
                }
                ctx.ops
                    .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                        kind: "sensor_blackout".to_string(),
                    });
                ctx.queue.schedule_at(
                    now + duration,
                    GridEvent::Fault(FaultEvent::ChaosSensorRestore(site)),
                );
            }
            FaultEvent::ChaosSensorRestore(site) => {
                if let Some(flag) = fabric.chaos.sensor_blackout.get_mut(site.index()) {
                    *flag = false;
                }
            }
            FaultEvent::ChaosIgocPartition(site, duration) => {
                if let Some(flag) = fabric.chaos.igoc_partition.get_mut(site.index()) {
                    *flag = true;
                }
                ctx.ops
                    .record_with(now, Some(site), || OpsEventKind::FaultInjected {
                        kind: "igoc_partition".to_string(),
                    });
                ctx.queue.schedule_at(
                    now + duration,
                    GridEvent::Fault(FaultEvent::ChaosIgocHeal(site)),
                );
            }
            FaultEvent::ChaosIgocHeal(site) => {
                if let Some(flag) = fabric.chaos.igoc_partition.get_mut(site.index()) {
                    *flag = false;
                }
                // Ticket traffic queued behind the partition resolves now
                // that the site can reach the operations center again.
                fabric.resolve_site_tickets(&mut ctx.ops, site, now);
            }
        }
    }
}
