//! The routed subsystem services the grid engine is composed of.
//!
//! The former monolithic engine handled every event and owned every piece
//! of state in one `impl` block. It is now split along the paper's own
//! operational seams into five services, each implementing `Subsystem`:
//!
//! * `Brokering` — workload intake (the arrival
//!   table the engine loop merges with the queue), §6.4 site selection,
//!   GRAM submission with retry/backoff, and the DAGMan campaign feedback
//!   loop (§4.2).
//! * `Staging` — GridFTP stage-in/stage-out, SE
//!   placement, RLS registration, and the Entrada demonstrator (§4.7).
//! * [`Execution`](execution::Execution) — batch dispatch and the
//!   predetermined execution fates (§6.2's per-job loss models).
//! * `FaultHandling` — site incidents, outage
//!   restores, the failure-storm repair loop, and the §7 per-state
//!   completion ledger.
//! * `Reporting` — monitoring sweeps (§4.7) and
//!   the ACDC/MDViewer accounting databases (Table 1, the figures).
//!
//! Subsystems never call each other. Every cross-subsystem interaction is
//! an emitted [`GridEvent`] dispatched by the engine's typed router:
//! timed events go through the [`EventQueue`], while *immediate* events
//! — the former direct method calls — are drained depth-first in
//! emission order, which reproduces the monolith's synchronous call
//! sequences bit-for-bit.
//! Genuinely shared grid state (the sites, the middleware fabric, the
//! active-job table, the resilience status board) lives in
//! [`GridFabric`], mirroring §5's shared site-status catalog: every
//! subsystem may consult it, but subsystem-private state is reachable
//! only via events.

pub mod assembly;
pub mod brokering;
pub mod execution;
pub mod fabric;
pub mod fault;
pub mod reporting;
pub mod staging;

pub(crate) use fabric::GridFabric;

use grid3_simkit::engine::EventQueue;
use grid3_simkit::ids::{JobId, SiteId, TransferId};
use grid3_simkit::profiler::CostCenter;
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::failure::FailureEvent;
use grid3_site::job::{JobOutcome, JobRecord};
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// One routed service of the grid engine.
///
/// A subsystem owns its private state and consumes exactly one event
/// type. It receives the shared services in [`EngineCtx`] (event queue,
/// RNG streams, trace store, ops journal) and the shared grid state in
/// [`GridFabric`]; everything else it wants done it requests by emitting
/// events through [`EngineCtx::emit`] or [`EventQueue::schedule_at`].
pub(crate) trait Subsystem {
    /// The event type this subsystem consumes.
    type Event;

    /// Handle one event firing at `now`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    );
}

/// Events consumed by the brokering subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BrokeringEvent {
    /// The next workload arrival reaches the broker. The payload stays
    /// in the subsystem's arrival table; the engine loop routes one
    /// `Submit` per arrival as it falls due.
    Submit,
    /// Re-broker a job whose placement hit a transient failure, after
    /// its GRAM retry backoff elapsed.
    RetryPlace(JobId),
    /// Release ready nodes of a DAG campaign (index into the campaign
    /// table).
    CampaignTick(usize),
    /// Immediate: a terminal job outcome feeds back into its campaign's
    /// DAGMan (`true` = success).
    CampaignOutcome(JobId, bool),
}

/// Events consumed by the staging subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StagingEvent {
    /// A job's stage-in transfer finished.
    StageInDone(JobId, TransferId),
    /// A job's stage-out transfer finished.
    StageOutDone(JobId, TransferId),
    /// Immediate: a job's execution succeeded; move its output to the VO
    /// archive.
    BeginStageOut(JobId),
    /// One Entrada transfer-matrix round.
    EntradaRound,
    /// A demo transfer finished.
    DemoTransferDone(TransferId),
    /// Chaos: cut the oldest in-flight job transfer mid-stream. The
    /// partial file is checksum-verified and resumed (`corrupt = false`)
    /// or discarded and restarted from zero (`corrupt = true`).
    ChaosTruncateTransfer {
        /// Whether the partial file fails checksum verification.
        corrupt: bool,
    },
}

/// Events consumed by the execution subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExecutionEvent {
    /// Try to dispatch queued work at a site.
    TryDispatch(SiteId),
    /// A job's execution reached its predetermined end.
    ExecutionEnds(JobId),
    /// Wall-clock hung-job watchdog (scheduled for every dispatch when
    /// chaos is enabled): if the job is *still* Running this long past
    /// its requested walltime, it is hung on a black-hole site — kill it.
    /// Lazily cancelled: fires as a stale no-op for jobs that finished.
    HungJobCheck(JobId),
}

/// Events consumed by the fault-handling subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A site incident fires.
    Incident(SiteId, FailureEvent),
    /// Grid services restored after a crash.
    ServiceRestore(SiteId),
    /// WAN restored after a cut.
    NetworkRestore(SiteId),
    /// Worker nodes back after a rollover.
    NodesRestore(SiteId),
    /// Operators reclaimed external disk usage.
    DiskCleanup(SiteId, Bytes),
    /// A failure-storm ticket's repair lands: re-validate the site.
    SiteRepaired(SiteId),
    /// Immediate: bucket a terminal outcome by site state and feed the
    /// resilience layer's health window.
    JobOutcome(SiteId, JobOutcome),
    /// Chaos: the site turns into a black hole for the given duration —
    /// it keeps accepting and dispatching jobs, but executions never
    /// complete until the wall-clock watchdog reaps them.
    ChaosBlackHole(SiteId, SimDuration),
    /// Chaos: black-hole behaviour ends (already-hung jobs stay hung
    /// until their watchdog fires).
    ChaosBlackHoleEnd(SiteId),
    /// Chaos: RLS answers for the site go stale for the given duration —
    /// the catalog keeps advertising replicas whose data is gone.
    ChaosRlsStale(SiteId, SimDuration),
    /// Chaos: the site's RLS catalog is reconciled.
    ChaosRlsHeal(SiteId),
    /// Chaos: the site's GRIS freezes for the given duration; its MDS
    /// record ages out past the TTL and brokering drops the site.
    ChaosMdsFreeze(SiteId, SimDuration),
    /// Chaos: the site's GRIS thaws; the next sweep republishes.
    ChaosMdsThaw(SiteId),
    /// Chaos: the site's monitoring sensors (agents + status probes) go
    /// dark for the given duration.
    ChaosSensorBlackout(SiteId, SimDuration),
    /// Chaos: the site's monitoring sensors report again.
    ChaosSensorRestore(SiteId),
    /// Chaos: the site is partitioned from the iGOC for the given
    /// duration — its open tickets cannot be resolved and probes cannot
    /// reach it.
    ChaosIgocPartition(SiteId, SimDuration),
    /// Chaos: the partition heals; deferred ticket resolution runs.
    ChaosIgocHeal(SiteId),
}

/// Events consumed by the reporting subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ReportingEvent {
    /// Periodic monitoring sweep (GRIS republish, agents, probes).
    MonitorTick,
    /// Immediate: a job reached a terminal state; ingest its record into
    /// the accounting databases.
    JobFinished(Box<JobRecord>),
    /// Immediate: bytes moved over the wire; credit the VO's transfer
    /// accounting.
    CreditTransfer(Vo, Bytes),
}

/// The routed event envelope: one variant per subsystem, plus the
/// engine-level [`GridEvent::Timer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GridEvent {
    /// Routed to `brokering::Brokering`.
    Brokering(BrokeringEvent),
    /// Routed to `staging::Staging`.
    Staging(StagingEvent),
    /// Routed to [`execution::Execution`].
    Execution(ExecutionEvent),
    /// Routed to `fault::FaultHandling`.
    Fault(FaultEvent),
    /// Routed to `reporting::Reporting`.
    Reporting(ReportingEvent),
    /// Immediate-only: insert the inner event into the time queue at the
    /// given instant. Emitted *after* a handler's cascade of immediates
    /// so the insertion order (and therefore FIFO tie-breaking) matches
    /// the monolith, where restores were scheduled after the kill
    /// cascades completed.
    Timer(SimTime, Box<GridEvent>),
}

/// The cost-attribution table: one [`CostCenter`] per routed event type,
/// indexed by `GridEvent::cost_center`. The engine's dispatch loop
/// charges handler self-time, fan-out, and allocation deltas to these
/// slots when profiling is on; `figures -- heat` renders them ranked.
///
/// Rows are grouped by subsystem in variant declaration order, so
/// attribution rows read like the router.
pub static COST_CENTERS: [CostCenter; 34] = [
    CostCenter {
        subsystem: "brokering",
        event: "submit",
    },
    CostCenter {
        subsystem: "brokering",
        event: "retry_place",
    },
    CostCenter {
        subsystem: "brokering",
        event: "campaign_tick",
    },
    CostCenter {
        subsystem: "brokering",
        event: "campaign_outcome",
    },
    CostCenter {
        subsystem: "staging",
        event: "stage_in_done",
    },
    CostCenter {
        subsystem: "staging",
        event: "stage_out_done",
    },
    CostCenter {
        subsystem: "staging",
        event: "begin_stage_out",
    },
    CostCenter {
        subsystem: "staging",
        event: "entrada_round",
    },
    CostCenter {
        subsystem: "staging",
        event: "demo_transfer_done",
    },
    CostCenter {
        subsystem: "staging",
        event: "chaos_truncate_transfer",
    },
    CostCenter {
        subsystem: "execution",
        event: "try_dispatch",
    },
    CostCenter {
        subsystem: "execution",
        event: "execution_ends",
    },
    CostCenter {
        subsystem: "execution",
        event: "hung_job_check",
    },
    CostCenter {
        subsystem: "fault",
        event: "incident",
    },
    CostCenter {
        subsystem: "fault",
        event: "service_restore",
    },
    CostCenter {
        subsystem: "fault",
        event: "network_restore",
    },
    CostCenter {
        subsystem: "fault",
        event: "nodes_restore",
    },
    CostCenter {
        subsystem: "fault",
        event: "disk_cleanup",
    },
    CostCenter {
        subsystem: "fault",
        event: "site_repaired",
    },
    CostCenter {
        subsystem: "fault",
        event: "job_outcome",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_black_hole",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_black_hole_end",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_rls_stale",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_rls_heal",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_mds_freeze",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_mds_thaw",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_sensor_blackout",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_sensor_restore",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_igoc_partition",
    },
    CostCenter {
        subsystem: "fault",
        event: "chaos_igoc_heal",
    },
    CostCenter {
        subsystem: "reporting",
        event: "monitor_tick",
    },
    CostCenter {
        subsystem: "reporting",
        event: "job_finished",
    },
    CostCenter {
        subsystem: "reporting",
        event: "credit_transfer",
    },
    CostCenter {
        subsystem: "engine",
        event: "timer",
    },
];

impl GridEvent {
    /// This event's index into [`COST_CENTERS`]: a dense discriminant
    /// the profiler uses as a direct array index — no hashing, no label
    /// comparison on the hot path.
    pub(crate) fn cost_center(&self) -> usize {
        match self {
            GridEvent::Brokering(e) => match e {
                BrokeringEvent::Submit => 0,
                BrokeringEvent::RetryPlace(..) => 1,
                BrokeringEvent::CampaignTick(..) => 2,
                BrokeringEvent::CampaignOutcome(..) => 3,
            },
            GridEvent::Staging(e) => match e {
                StagingEvent::StageInDone(..) => 4,
                StagingEvent::StageOutDone(..) => 5,
                StagingEvent::BeginStageOut(..) => 6,
                StagingEvent::EntradaRound => 7,
                StagingEvent::DemoTransferDone(..) => 8,
                StagingEvent::ChaosTruncateTransfer { .. } => 9,
            },
            GridEvent::Execution(e) => match e {
                ExecutionEvent::TryDispatch(..) => 10,
                ExecutionEvent::ExecutionEnds(..) => 11,
                ExecutionEvent::HungJobCheck(..) => 12,
            },
            GridEvent::Fault(e) => match e {
                FaultEvent::Incident(..) => 13,
                FaultEvent::ServiceRestore(..) => 14,
                FaultEvent::NetworkRestore(..) => 15,
                FaultEvent::NodesRestore(..) => 16,
                FaultEvent::DiskCleanup(..) => 17,
                FaultEvent::SiteRepaired(..) => 18,
                FaultEvent::JobOutcome(..) => 19,
                FaultEvent::ChaosBlackHole(..) => 20,
                FaultEvent::ChaosBlackHoleEnd(..) => 21,
                FaultEvent::ChaosRlsStale(..) => 22,
                FaultEvent::ChaosRlsHeal(..) => 23,
                FaultEvent::ChaosMdsFreeze(..) => 24,
                FaultEvent::ChaosMdsThaw(..) => 25,
                FaultEvent::ChaosSensorBlackout(..) => 26,
                FaultEvent::ChaosSensorRestore(..) => 27,
                FaultEvent::ChaosIgocPartition(..) => 28,
                FaultEvent::ChaosIgocHeal(..) => 29,
            },
            GridEvent::Reporting(e) => match e {
                ReportingEvent::MonitorTick => 30,
                ReportingEvent::JobFinished(..) => 31,
                ReportingEvent::CreditTransfer(..) => 32,
            },
            GridEvent::Timer(..) => 33,
        }
    }
}

/// The explicit context every subsystem receives: the event queue (and
/// with it the clock), the engine's deterministic RNG streams, the §8
/// trace store, the ops journal, and the immediate-event buffer the
/// router drains depth-first.
pub(crate) struct EngineCtx {
    /// The time-ordered event queue; `queue.now()` is the clock.
    pub queue: EventQueue<GridEvent>,
    /// Broker decisions draw from this stream (stream id `0xB0B`).
    pub broker_rng: SimRng,
    /// Execution fates and registration losses draw from this stream
    /// (stream id `0xFA7E`).
    pub fate_rng: SimRng,
    /// The §8 troubleshooting/accounting trace store (submit-side ↔
    /// execution-side id linkage, per-user accounting).
    pub traces: grid3_monitoring::trace::TraceStore,
    /// The structured ops journal (disabled by default). Resilience,
    /// fault-handling, and chaos paths append operational events here;
    /// the stream lives beside the report, never inside it.
    pub ops: crate::ops::OpsJournal,
    pub(crate) immediates: Vec<GridEvent>,
    /// Spare drain buffers recycled by the router so each dispatch level
    /// swaps in a pre-warmed `Vec` instead of growing a fresh one. Depth
    /// mirrors the deepest immediate cascade seen so far (a handful).
    pub(crate) drain_pool: Vec<Vec<GridEvent>>,
    /// Recycled [`ReportingEvent::JobFinished`] record boxes: reporting
    /// frees one per terminal record it ingests and the fabric's
    /// terminal funnel refills it via [`EngineCtx::boxed_record`].
    #[allow(clippy::vec_box)]
    pub(crate) record_pool: Vec<Box<grid3_site::job::JobRecord>>,
}

/// Bound on the record-arena free list. The pool tracks the
/// steady-state in-flight count (a handful); the cap only matters after a
/// burst, so memory pinned by a spike is released instead of held for
/// the run.
pub(crate) const ARENA_POOL_CAP: usize = 256;

/// Capacity cap on recycled drain buffers. A chaos fan-out spike (a
/// storm killing every queued job at once) can balloon one immediate
/// batch to thousands of events; without the cap that buffer would pin
/// its peak capacity for the rest of the run. Steady-state cascades are
/// a handful of events, so the cap is far above the hot-path need.
pub(crate) const DRAIN_BUF_CAP: usize = 64;

impl EngineCtx {
    /// Emit an immediate event: routed depth-first, in emission order,
    /// before the queue advances — the routed replacement for the
    /// monolith's direct cross-subsystem method calls. Immediates never
    /// enter the time queue, so they are not profiled as dispatches.
    pub fn emit(&mut self, event: GridEvent) {
        self.immediates.push(event);
    }

    /// Emit a trailing [`GridEvent::Timer`] wrapping `inner`: the router
    /// schedules `inner` at `at` once the cascade ahead of it has run.
    pub(crate) fn emit_timer(&mut self, at: SimTime, inner: GridEvent) {
        self.immediates.push(GridEvent::Timer(at, Box::new(inner)));
    }

    /// Box a terminal job record through the record arena (refilled by
    /// reporting as it ingests each record).
    pub(crate) fn boxed_record(
        &mut self,
        record: grid3_site::job::JobRecord,
    ) -> Box<grid3_site::job::JobRecord> {
        match self.record_pool.pop() {
            Some(mut b) => {
                *b = record;
                b
            }
            None => Box::new(record),
        }
    }

    /// Return a drained immediates buffer to the pool, shrinking
    /// burst-inflated buffers back to [`DRAIN_BUF_CAP`] so one fan-out
    /// spike does not pin its peak capacity for the rest of the run.
    pub(crate) fn recycle_drain_buf(&mut self, mut buf: Vec<GridEvent>) {
        debug_assert!(buf.is_empty(), "recycled drain buffers must be drained");
        if buf.capacity() > DRAIN_BUF_CAP {
            buf.shrink_to(DRAIN_BUF_CAP);
        }
        self.drain_pool.push(buf);
    }

    /// Return a spent record box to the arena (bounded by
    /// [`ARENA_POOL_CAP`]).
    pub(crate) fn recycle_record_box(&mut self, boxed: Box<grid3_site::job::JobRecord>) {
        if self.record_pool.len() < ARENA_POOL_CAP {
            self.record_pool.push(boxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_center_table_is_unique_and_label_aligned() {
        // Every (subsystem, event) pair is distinct — two event types
        // sharing a row would silently merge their attributed cost.
        let mut seen = std::collections::BTreeSet::new();
        for c in &COST_CENTERS {
            assert!(
                seen.insert((c.subsystem, c.event)),
                "duplicate cost center {}/{}",
                c.subsystem,
                c.event
            );
        }
        // Spot-check the index map for one variant per subsystem: a
        // misrouted discriminant would charge time to the wrong row for
        // the whole run.
        let samples: Vec<(GridEvent, (&str, &str))> = vec![
            (
                GridEvent::Brokering(BrokeringEvent::CampaignTick(0)),
                ("brokering", "campaign_tick"),
            ),
            (
                GridEvent::Staging(StagingEvent::EntradaRound),
                ("staging", "entrada_round"),
            ),
            (
                GridEvent::Execution(ExecutionEvent::TryDispatch(SiteId(0))),
                ("execution", "try_dispatch"),
            ),
            (
                GridEvent::Fault(FaultEvent::NodesRestore(SiteId(0))),
                ("fault", "nodes_restore"),
            ),
            (
                GridEvent::Reporting(ReportingEvent::MonitorTick),
                ("reporting", "monitor_tick"),
            ),
        ];
        for (e, expected) in samples {
            let c = &COST_CENTERS[e.cost_center()];
            assert_eq!((c.subsystem, c.event), expected, "cost_center() of {e:?}");
        }
    }

    fn test_ctx() -> EngineCtx {
        EngineCtx {
            queue: grid3_simkit::engine::EventQueue::new(),
            broker_rng: grid3_simkit::rng::SimRng::for_entity(1, 1),
            fate_rng: grid3_simkit::rng::SimRng::for_entity(1, 2),
            traces: grid3_monitoring::trace::TraceStore::new(),
            ops: crate::ops::OpsJournal::disabled(),
            immediates: Vec::new(),
            drain_pool: Vec::new(),
            record_pool: Vec::new(),
        }
    }

    #[test]
    fn drain_buffers_release_burst_capacity() {
        let mut ctx = test_ctx();
        // A chaos-burst-sized buffer comes back from the router…
        let burst: Vec<GridEvent> = Vec::with_capacity(DRAIN_BUF_CAP * 64);
        assert!(burst.capacity() >= DRAIN_BUF_CAP * 64);
        ctx.recycle_drain_buf(burst);
        // …and is shrunk to the cap instead of pinning peak capacity.
        let recycled = ctx.drain_pool.pop().expect("buffer pooled");
        assert!(
            recycled.capacity() <= DRAIN_BUF_CAP,
            "burst buffer kept capacity {} over the {DRAIN_BUF_CAP} cap",
            recycled.capacity()
        );
        // Steady-state buffers pass through with their warm capacity.
        let steady: Vec<GridEvent> = Vec::with_capacity(8);
        ctx.recycle_drain_buf(steady);
        assert!(ctx.drain_pool.pop().expect("buffer pooled").capacity() >= 8);
    }

    #[test]
    fn arena_pools_stay_bounded() {
        let mut ctx = test_ctx();
        let record = JobRecord {
            job: JobId(1),
            class: grid3_site::vo::UserClass::Ligo,
            user: grid3_simkit::ids::UserId(0),
            site: SiteId(0),
            submitted: SimTime::EPOCH,
            started: None,
            finished: SimTime::from_secs(1),
            runtime: SimDuration::ZERO,
            transferred: Bytes::ZERO,
            outcome: JobOutcome::Completed,
        };
        for _ in 0..ARENA_POOL_CAP * 2 {
            ctx.recycle_record_box(Box::new(record.clone()));
        }
        assert_eq!(ctx.record_pool.len(), ARENA_POOL_CAP);
        // Round-trip: boxed_record reuses a pooled box.
        let before = ctx.record_pool.len();
        let boxed = ctx.boxed_record(record.clone());
        assert_eq!(ctx.record_pool.len(), before - 1);
        assert_eq!(*boxed, record);
    }
}
