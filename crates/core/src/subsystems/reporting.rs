//! Reporting: the periodic monitoring sweep (§4.7 — GRIS republish,
//! Ganglia and MonALISA samples, status probes, NetLogger collection)
//! and the accounting databases (the ACDC job monitor behind Table 1 and
//! the MDViewer daily series behind the figures).
//!
//! Owns the accounting state outright: terminal job records and delivered
//! bytes arrive as immediate events from the terminal funnel, never as
//! direct writes from another subsystem.

use std::borrow::Cow;

use grid3_monitoring::acdc::AcdcJobMonitor;
use grid3_monitoring::mdviewer::MdViewer;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use grid3_site::job::JobRecord;
use grid3_site::vo::Vo;

use super::{EngineCtx, GridEvent, GridFabric, ReportingEvent, Subsystem};

/// The reporting subsystem (see the module docs).
pub(crate) struct Reporting {
    /// The ACDC-style job monitor: per-class/per-site completion and
    /// failure accounting (Table 1's source).
    pub(crate) acdc: AcdcJobMonitor,
    /// The MDViewer-style daily usage series (Figures 2-4's source).
    pub(crate) viewer: MdViewer,
    /// Total bytes delivered over GridFTP (completed + partial).
    pub(crate) bytes_delivered: Bytes,
    /// Monitor sweeps completed so far — the clock that paces each
    /// backend's GRIS republish cadence (EDG/LCG publishes every second
    /// sweep; `Vdt` every sweep, keeping the legacy fast path).
    ticks: u64,
}

impl Reporting {
    /// Build the subsystem around the assembled daily-series viewer.
    pub(crate) fn new(viewer: MdViewer) -> Self {
        Reporting {
            acdc: AcdcJobMonitor::new(),
            viewer,
            bytes_delivered: Bytes::ZERO,
            ticks: 0,
        }
    }

    fn on_monitor_tick(&mut self, ctx: &mut EngineCtx, fabric: &mut GridFabric, now: SimTime) {
        let tick = self.ticks;
        self.ticks += 1;
        // GRIS republish + Ganglia/MonALISA samples. Each site publishes
        // its grid's software tag at its grid's refresh cadence — the
        // `Vdt` reference backend republishes "VDT-1.1.8" every sweep,
        // exactly the legacy behaviour (and the `publish_refresh` fast
        // path, which keys on an unchanged tag).
        for i in 0..fabric.sites.len() {
            if !fabric.topo.is_online(fabric.sites[i].id, now) {
                continue;
            }
            let knobs = fabric.federation.grids()
                [fabric.federation.grid_of(fabric.sites[i].id).index()]
            .backend
            .knobs();
            if tick.is_multiple_of(knobs.refresh_period_ticks) {
                fabric
                    .center
                    .mds
                    .publish_refresh(&fabric.sites[i], knobs.software_tag, now);
            }
            // A sensor blackout (chaos fault) silences the site's
            // Ganglia/MonALISA agents; the GRIS keeps publishing — the
            // information system and the monitoring fabric fail
            // independently (§4.7).
            if fabric.chaos.is_sensor_blackout(fabric.sites[i].id) {
                continue;
            }
            fabric.center.ganglia_web.observe(&fabric.sites[i], now);
            let load = fabric.gatekeepers[i].load_one_min(now);
            fabric.center.monalisa.observe(&fabric.sites[i], load, now);
        }
        // Hierarchical MDS peering: fold this sweep's per-grid directory
        // freshness into the federation-level index (a no-op single-grid).
        fabric.sync_federation(now);
        // Status-probe escalation to tickets. Sites cut off from the IGOC
        // (chaos partition) cannot be probed; sites in sensor blackout
        // answer nothing either.
        let topo = &fabric.topo;
        let chaos = &fabric.chaos;
        let opened = fabric.center.probe_round(
            fabric.sites.iter().filter(|s| {
                topo.is_online(s.id, now)
                    && !chaos.is_igoc_partitioned(s.id)
                    && !chaos.is_sensor_blackout(s.id)
            }),
            now,
        );
        for ticket in opened {
            let t = &fabric.center.tickets.tickets()[ticket.index()];
            ctx.ops.ticket_opened(now, t.site, ticket, t.kind);
        }
        // Ship accumulated NetLogger events with each sweep, mirroring the
        // periodic collection of §4.7.
        fabric.drain_netlogger();

        let next = now + fabric.cfg.monitor_interval;
        if next < fabric.cfg.horizon() {
            ctx.queue
                .schedule_at(next, GridEvent::Reporting(ReportingEvent::MonitorTick));
        }
    }

    /// Borrow the run-mutated accounting state for an engine snapshot.
    pub(crate) fn capture(&self) -> ReportingCapture<'_> {
        ReportingCapture {
            acdc: Cow::Borrowed(&self.acdc),
            viewer: Cow::Borrowed(&self.viewer),
            bytes_delivered: self.bytes_delivered,
            ticks: self.ticks,
        }
    }

    /// Overlay a captured accounting state onto a freshly assembled
    /// subsystem.
    pub(crate) fn apply(&mut self, cap: ReportingCapture<'_>) {
        self.acdc = cap.acdc.into_owned();
        self.viewer = cap.viewer.into_owned();
        self.bytes_delivered = cap.bytes_delivered;
        self.ticks = cap.ticks;
    }

    /// Ingest a terminal job record into both accounting databases, in
    /// the monolith's order (ACDC first, then the daily series).
    fn on_job_finished(&mut self, record: &JobRecord) {
        self.acdc.ingest_record(record);
        self.viewer.ingest_job(record);
    }

    /// Credit delivered bytes to the grand total and the VO's daily
    /// transfer series.
    fn on_credit_transfer(&mut self, now: SimTime, vo: Vo, bytes: Bytes) {
        self.bytes_delivered += bytes;
        self.viewer.ingest_transfer(now, vo, bytes);
    }
}

/// The run-mutated slice of [`Reporting`] carried by engine snapshots
/// (see [`Reporting::capture`]), borrowed from the live subsystem or
/// owned once decoded.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct ReportingCapture<'a> {
    acdc: Cow<'a, AcdcJobMonitor>,
    viewer: Cow<'a, MdViewer>,
    bytes_delivered: Bytes,
    ticks: u64,
}

impl ReportingCapture<'_> {
    /// A capture that owns its parts, cloning what this one borrows.
    pub(crate) fn into_owned(self) -> ReportingCapture<'static> {
        ReportingCapture {
            acdc: Cow::Owned(self.acdc.into_owned()),
            viewer: Cow::Owned(self.viewer.into_owned()),
            bytes_delivered: self.bytes_delivered,
            ticks: self.ticks,
        }
    }
}

impl Subsystem for Reporting {
    type Event = ReportingEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: ReportingEvent,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    ) {
        match event {
            ReportingEvent::MonitorTick => self.on_monitor_tick(ctx, fabric, now),
            ReportingEvent::JobFinished(record) => {
                self.on_job_finished(&record);
                // The spent box goes back to the record arena for the
                // terminal funnel to refill.
                ctx.recycle_record_box(record);
            }
            ReportingEvent::CreditTransfer(vo, bytes) => self.on_credit_transfer(now, vo, bytes),
        }
    }
}
