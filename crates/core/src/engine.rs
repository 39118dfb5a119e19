//! The whole-grid discrete-event simulation engine.
//!
//! [`Grid3Engine`] is deliberately thin: it owns the clock (via the
//! event queue), the typed event router, and the five subsystem services
//! it routes between — `Brokering`, `Staging`, [`Execution`],
//! `FaultHandling` and `Reporting` — plus the
//! shared [`GridFabric`] status board they all consult. Assembly (the §5
//! deployment pipeline) lives in [`crate::subsystems::assembly`];
//! everything domain-specific lives in the subsystems.
//!
//! The job lifecycle is §6.1's: gatekeeper submission → pre-stage →
//! batch queue → execution → post-stage to the VO archive → RLS
//! registration, and a job only counts as completed when *every* step
//! succeeded. Failure semantics follow §6: incidents arrive per-site in
//! correlated bursts (disk-full, service crash, WAN cut, the ACDC
//! nightly rollover), killing whole groups of jobs at once; a small
//! per-job random loss and a misconfiguration residue covers the rest.
//!
//! # Routing and bit-reproducibility
//!
//! Two kinds of event flow through the router:
//!
//! * **Timed** events go through the [`EventQueue`] exactly as in the
//!   pre-split engine: same FIFO tie-breaking, one pop per event.
//!   Workload submissions are timed events kept outside the queue, in
//!   the brokering arrival table; the loop merges the two streams in
//!   the order the queue would have produced.
//! * **Immediate** events (emitted with `EngineCtx::emit`) replace
//!   the former direct cross-subsystem method calls. The router drains
//!   them depth-first in emission order before advancing the queue, so
//!   the sequence of state changes — and with it every RNG draw and
//!   every queue insertion — is bit-identical to the monolith's
//!   synchronous call chains. The golden-hash determinism suite holds
//!   the engine to that.

use crate::scenario::ScenarioConfig;
use crate::topology::Topology;
use crate::workflow::dagman::DagState;
use grid3_igoc::center::OperationsCenter;
use grid3_middleware::gram::Gatekeeper;
use grid3_middleware::gridftp::GridFtp;
use grid3_middleware::gsi::CertificateAuthority;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_middleware::voms::VomsServer;
use grid3_monitoring::acdc::AcdcJobMonitor;
use grid3_monitoring::mdviewer::MdViewer;
use grid3_monitoring::trace::TraceStore;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::profiler::{alloc_snapshot, CostProfiler};
use grid3_simkit::series::GaugeTracker;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use grid3_site::cluster::Site;
use std::time::Instant;

use crate::resilience::{ResilienceLayer, SiteStateLedger};
use crate::subsystems::brokering::Brokering;
use crate::subsystems::execution::Execution;
use crate::subsystems::fault::FaultHandling;
use crate::subsystems::reporting::Reporting;
use crate::subsystems::staging::Staging;
use crate::subsystems::{BrokeringEvent, EngineCtx, GridEvent, GridFabric, Subsystem};

/// The assembled grid: clock + event router + the five routed subsystem
/// services + the shared fabric (see the module docs).
pub struct Grid3Engine {
    pub(crate) ctx: EngineCtx,
    pub(crate) fabric: GridFabric,
    pub(crate) brokering: Brokering,
    pub(crate) staging: Staging,
    pub(crate) execution: Execution,
    pub(crate) fault: FaultHandling,
    pub(crate) reporting: Reporting,
    /// The invariant auditor (`None` unless the scenario enables
    /// `audit`). Observation-only: it sees every pop and every routed
    /// event but draws no randomness and schedules nothing, so it cannot
    /// perturb the run.
    pub(crate) auditor: Option<crate::chaos::InvariantAuditor>,
    /// The cost-attribution profiler (`None` unless the scenario enables
    /// `profile`). Observation-only like the auditor: it reads the wall
    /// clock and the allocation counters but feeds nothing back into
    /// simulation state, so enabling it cannot move a simulated byte —
    /// the golden-hash suite pins that.
    pub(crate) profiler: Option<grid3_simkit::profiler::CostProfiler>,
}

impl Grid3Engine {
    /// Assemble the grid for `cfg`: build the topology, onboard every
    /// site through the iGOC pipeline, register users with VOMS/GSI/AUP,
    /// build the workload arrival table, and schedule demo rounds,
    /// failure incidents and monitor ticks.
    pub fn new(cfg: ScenarioConfig) -> Self {
        crate::subsystems::assembly::assemble(cfg)
    }

    /// Run to the horizon.
    pub fn run(&mut self) {
        self.pump(Some(self.fabric.cfg.horizon()));
        self.finish();
    }

    /// Run forward until the simulation clock reaches `until` (capped at
    /// the scenario horizon), then stop *without* the end-of-run
    /// finalization [`run`](Self::run) performs (NetLogger drain,
    /// conservation audit). The engine is left mid-run and resumable:
    /// `run_until(t)` followed by `run()` is bit-identical to a single
    /// uninterrupted `run()` — the property the snapshot differential
    /// suite locks.
    pub fn run_until(&mut self, until: SimTime) {
        self.pump(Some(until.min(self.fabric.cfg.horizon())));
    }

    /// Capture the complete run-mutated state of this engine as a
    /// serializable [`EngineSnapshot`](crate::snapshot::EngineSnapshot)
    /// that owns a copy of it.
    ///
    /// Must be called between events (never mid-dispatch); the engine is
    /// untouched. See the [`snapshot`](crate::snapshot) module docs for
    /// exactly what the capture boundary includes.
    pub fn snapshot(&self) -> crate::snapshot::EngineSnapshot<'static> {
        crate::snapshot::EngineSnapshot::capture(self).into_owned()
    }

    /// Write this engine's snapshot to `path` straight from the live
    /// state: the same file as `self.snapshot().write_to(path)`, without
    /// copying the state first. Checkpoints are written this way.
    pub fn write_snapshot(
        &self,
        path: &std::path::Path,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        crate::snapshot::EngineSnapshot::capture(self).write_to(path)
    }

    /// Rebuild a runnable engine from a snapshot taken by
    /// [`snapshot`](Self::snapshot): re-assembles the snapshot's scenario
    /// and overlays the captured state. Running the result to the horizon
    /// produces bit-identical reports to the uninterrupted original.
    pub fn restore(snap: crate::snapshot::EngineSnapshot<'_>) -> Self {
        crate::snapshot::restore_engine(snap)
    }

    /// Run past the horizon until the event queue drains completely.
    ///
    /// Periodic drivers (monitor ticks, demo rounds) stop rescheduling at
    /// the horizon, so the queue empties once in-flight work — including
    /// chaos recovery tails like hung-job watchdogs and rescue-DAG
    /// resubmissions — finishes. Quiescence tests use this to assert that
    /// every submitted job reaches a terminal state even under fault
    /// injection.
    pub fn run_until_idle(&mut self) {
        self.run();
        self.pump(None);
        self.finish();
    }

    /// The event loop: merge the brokering arrival table with the event
    /// queue, then audit → dispatch every event firing before `stop`
    /// (`None` drains both).
    ///
    /// An arrival is delivered whenever its instant is at or before the
    /// queue head. Arrivals win ties because they hold the lowest
    /// sequence numbers of the run: a submission scheduled into the
    /// queue at assembly, ahead of every other event, would fire first
    /// at its instant.
    fn pump(&mut self, stop: Option<SimTime>) {
        loop {
            let queued = self.ctx.queue.peek_time();
            let arrival = self
                .brokering
                .next_arrival()
                .filter(|&at| queued.is_none_or(|q| at <= q));
            let Some(at) = arrival.or(queued) else {
                break;
            };
            if stop.is_some_and(|stop| at >= stop) {
                break;
            }
            let (now, event) = if arrival.is_some() {
                self.ctx.queue.deliver_external(at);
                (at, GridEvent::Brokering(BrokeringEvent::Submit))
            } else {
                self.ctx.queue.pop().expect("peeked")
            };
            if let Some(a) = &mut self.auditor {
                a.observe_pop(now);
            }
            self.dispatch(now, event);
        }
    }

    /// End-of-run finalization: flush the NetLogger archive and run the
    /// auditor's conservation check.
    fn finish(&mut self) {
        self.fabric.drain_netlogger();
        if let Some(a) = &mut self.auditor {
            a.verify_conservation(
                self.ctx.queue.now(),
                &self.fabric,
                self.brokering.parked_jobs(),
            );
        }
    }

    /// The typed router: hand the event to its subsystem, then drain the
    /// immediates it emitted depth-first in emission order (see the
    /// module docs for why that reproduces the monolith bit-for-bit).
    fn dispatch(&mut self, now: SimTime, event: GridEvent) {
        // The auditor sees every routed event — timed pops *and* drained
        // immediates — before the subsystem mutates the fabric.
        if let Some(a) = &mut self.auditor {
            a.observe_event(now, &event, &self.fabric);
        }
        // Snapshot clocks/counters only when profiling: the baseline path
        // must not even read `Instant::now()`. The cost-center index is
        // taken before the match consumes the event.
        let prof_start = self
            .profiler
            .as_ref()
            .map(|_| (event.cost_center(), alloc_snapshot(), Instant::now()));
        match event {
            GridEvent::Brokering(e) => {
                self.brokering
                    .handle(now, e, &mut self.ctx, &mut self.fabric)
            }
            GridEvent::Staging(e) => self.staging.handle(now, e, &mut self.ctx, &mut self.fabric),
            GridEvent::Execution(e) => {
                self.execution
                    .handle(now, e, &mut self.ctx, &mut self.fabric)
            }
            GridEvent::Fault(e) => self.fault.handle(now, e, &mut self.ctx, &mut self.fabric),
            GridEvent::Reporting(e) => {
                self.reporting
                    .handle(now, e, &mut self.ctx, &mut self.fabric)
            }
            // Emitted as a *trailing* immediate so the inner event's queue
            // insertion lands after the cascade's — preserving FIFO order.
            GridEvent::Timer(at, inner) => self.ctx.queue.schedule_at(at, *inner),
        }
        // Record before draining: the immediates buffer was empty when the
        // handler started (the drain below always leaves it empty), so its
        // length *is* this event's fan-out — and the nested dispatches
        // time themselves, leaving this measurement pure self-time.
        if let Some((center, (allocs0, bytes0), t0)) = prof_start {
            let ns = t0.elapsed().as_nanos() as u64;
            let (allocs1, bytes1) = alloc_snapshot();
            let fanout = self.ctx.immediates.len() as u64;
            if let Some(p) = &mut self.profiler {
                p.record(
                    center,
                    ns,
                    fanout,
                    allocs1.saturating_sub(allocs0),
                    bytes1.saturating_sub(bytes0),
                );
            }
        }
        if !self.ctx.immediates.is_empty() {
            // Swap in a recycled buffer so the nested dispatches emit into
            // pre-warmed storage; the drained batch returns to the pool
            // with its capacity intact. Emission order is untouched.
            let mut batch = self.ctx.drain_pool.pop().unwrap_or_default();
            std::mem::swap(&mut batch, &mut self.ctx.immediates);
            for ev in batch.drain(..) {
                self.dispatch(now, ev);
            }
            self.ctx.recycle_drain_buf(batch);
        }
    }

    // ----- read-only accessors ----------------------------------------
    //
    // Everything outside the engine observes the grid through these; all
    // mutation goes through events.

    /// The configuration in force.
    pub fn config(&self) -> &ScenarioConfig {
        &self.fabric.cfg
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.fabric.topo
    }

    /// Events processed so far (timed queue pops and delivered arrivals;
    /// routed immediates are internal and not counted, matching the
    /// pre-split engine).
    pub fn events_processed(&self) -> u64 {
        self.ctx.queue.processed()
    }

    /// The simulation clock: the time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.ctx.queue.now()
    }

    /// Jobs currently tracked (not yet terminal), including jobs parked
    /// in a retry backoff awaiting re-brokering.
    pub fn active_jobs(&self) -> usize {
        self.fabric.jobs.len() + self.brokering.parked_jobs()
    }

    /// The sites, indexed by `SiteId`.
    pub fn sites(&self) -> &[Site] {
        &self.fabric.sites
    }

    /// Per-site gatekeepers.
    pub fn gatekeepers(&self) -> &[Gatekeeper] {
        &self.fabric.gatekeepers
    }

    /// The GridFTP fabric.
    pub fn gridftp(&self) -> &GridFtp {
        &self.fabric.gridftp
    }

    /// The replica location service.
    pub fn rls(&self) -> &ReplicaLocationService {
        &self.fabric.rls
    }

    /// The operations center (MDS, status catalog, tickets, …).
    pub fn center(&self) -> &OperationsCenter {
        &self.fabric.center
    }

    /// Per-VO VOMS servers.
    pub fn voms(&self) -> &[VomsServer] {
        &self.fabric.voms
    }

    /// The DOEGrids-style CA.
    pub fn ca(&self) -> &CertificateAuthority {
        &self.fabric.ca
    }

    /// The ACDC job-record database (Table 1 source).
    pub fn acdc(&self) -> &AcdcJobMonitor {
        &self.reporting.acdc
    }

    /// The metrics viewer (figure source).
    pub fn viewer(&self) -> &MdViewer {
        &self.reporting.viewer
    }

    /// Concurrent-running-jobs gauge (§7 peak metric).
    pub fn job_gauge(&self) -> &GaugeTracker {
        &self.fabric.job_gauge
    }

    /// The §8 troubleshooting/accounting trace store.
    pub fn traces(&self) -> &TraceStore {
        &self.ctx.traces
    }

    /// The adaptive fault-handling layer (`None` for baseline runs).
    pub fn resilience(&self) -> Option<&ResilienceLayer> {
        self.fabric.resilience.as_ref()
    }

    /// Completion accounting bucketed by site operational state.
    pub fn site_ledger(&self) -> &SiteStateLedger {
        &self.fault.site_ledger
    }

    /// Jobs whose broker found no eligible site.
    pub fn unplaced_jobs(&self) -> u64 {
        self.brokering.unplaced_jobs
    }

    /// Total bytes delivered by completed (and partially by failed)
    /// transfers.
    pub fn bytes_delivered(&self) -> Bytes {
        self.reporting.bytes_delivered
    }

    /// Per-campaign progress: `(dataset, state, done, total)`.
    pub fn campaign_progress(&self) -> Vec<(String, DagState, usize, usize)> {
        self.brokering.campaign_progress()
    }

    /// The underlying event queue (read-only; for depth inspection). It
    /// holds in-flight work only: undelivered workload arrivals wait in
    /// the brokering arrival table.
    pub fn queue(&self) -> &EventQueue<GridEvent> {
        &self.ctx.queue
    }

    /// The invariant auditor (`None` unless the scenario enables `audit`).
    pub fn audit(&self) -> Option<&crate::chaos::InvariantAuditor> {
        self.auditor.as_ref()
    }

    /// The cost-attribution profile accumulated so far (`None` unless
    /// the scenario enables `profile`).
    pub fn profiler(&self) -> Option<&CostProfiler> {
        self.profiler.as_ref()
    }

    /// Detach the accumulated cost profile, leaving the engine
    /// unprofiled. Campaign executors use this to merge per-run profiles
    /// without cloning histogram arrays.
    pub fn take_profiler(&mut self) -> Option<CostProfiler> {
        self.profiler.take()
    }

    /// The structured ops journal (disabled and empty unless the
    /// scenario enables `ops_journal`).
    pub fn ops_journal(&self) -> &crate::ops::OpsJournal {
        &self.ctx.ops
    }

    /// The federation state: grid membership, per-grid middleware
    /// backends, MDS peering and cross-grid accounting. Single-grid runs
    /// hold a degenerate one-grid state.
    pub fn federation(&self) -> &crate::federation::FederationState {
        &self.fabric.federation
    }

    /// Check an extracted report's totals against the audited ledger
    /// (no-op without the auditor). Call after [`Grid3Report::extract`]:
    /// any imbalance lands in the auditor's violation list.
    ///
    /// [`Grid3Report::extract`]: crate::report::Grid3Report::extract
    pub fn audit_verify_report(&mut self, report: &crate::report::Grid3Report) {
        if let Some(a) = &mut self.auditor {
            a.verify_report(report);
        }
    }
}
