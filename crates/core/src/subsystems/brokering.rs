//! Brokering: workload intake, §6.4 site selection, GRAM submission
//! with retry/backoff, and the DAGMan campaign feedback loop (§4.2).
//!
//! Owns the workload arrival table, the broker, the per-job retry
//! ledger, and the campaign table. The engine loop merges the arrival
//! table with the event queue and routes each due arrival here as a
//! [`BrokeringEvent::Submit`]. Placement failures re-enter through
//! [`BrokeringEvent::RetryPlace`];
//! terminal outcomes arrive as immediate
//! [`BrokeringEvent::CampaignOutcome`] events emitted by the fabric's
//! terminal funnel.

use std::borrow::Cow;

use crate::apps::workloads::Submission;
use crate::broker::{Broker, SelectScratch, SiteTable};
use crate::workflow::dag::NodeId as DagNodeId;
use crate::workflow::dagman::{DagManager, DagState, FailureAction};
use crate::workflow::mop::CmsTask;
use grid3_middleware::backend::RankInputs;
use grid3_middleware::gram::RetryPolicy;
use grid3_monitoring::trace::TraceEvent;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{GridId, JobId, SiteId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::{FailureCause, JobOutcome, JobSpec};

use super::fabric::{ActiveJob, ExecutionFate, Phase, TransferPurpose, NO_TRANSFER};
use super::{BrokeringEvent, EngineCtx, GridEvent, GridFabric, StagingEvent, Subsystem};

/// Base backoff before a failed campaign node is resubmitted (§4.2 DAGMan
/// retry semantics). Doubles with each consecutive failure of the node, so
/// a 5-retry budget spans ~31 h — longer than the worst §6.2 disk-full
/// cleanup (up to 20 h) that would otherwise eat every retry.
const CAMPAIGN_RETRY_BASE_DELAY: SimDuration = SimDuration::from_mins(30);

/// How long a rescue-DAG resubmission waits before its first tick —
/// the operator noticing the dead campaign and resubmitting (§4.2).
const RESCUE_DAG_DELAY: SimDuration = SimDuration::from_hours(2);

/// The brokering subsystem (see the module docs).
pub(crate) struct Brokering {
    /// Undelivered workload arrivals with their VO affinity, latest
    /// first: the next one is a `Vec::pop` from the back, and delivered
    /// entries are freed as the run goes. A pure function of the config,
    /// so snapshots carry only `arrivals_delivered`.
    arrivals: Vec<(Submission, f64)>,
    /// Arrivals delivered so far: the snapshot cursor into the table.
    arrivals_delivered: u64,
    broker: Broker,
    /// Struct-of-arrays mirror of the MDS directory, memoised per MDS
    /// epoch (see [`SiteTable`]); spares the broker an O(n log n)
    /// re-score — and any per-placement allocation — between monitor
    /// ticks.
    site_table: SiteTable,
    /// Reusable row-mask buffers for [`Broker::select_table_for`],
    /// shared by every member grid's queries.
    scratch: SelectScratch,
    /// Jobs waiting out a retry backoff before re-brokering:
    /// `(spec, vo_affinity, attempts already made)`.
    retry_state: FastMap<JobId, (JobSpec, f64, u32)>,
    /// Jobs whose broker found no eligible site.
    pub(crate) unplaced_jobs: u64,
    campaigns: Vec<(String, DagManager<CmsTask>)>,
    campaign_job_map: FastMap<JobId, (usize, DagNodeId)>,
    /// Per-node retry backoff: a node listed here stays Ready but is not
    /// resubmitted before the stored time, even if another tick fires first.
    campaign_hold: FastMap<(usize, DagNodeId), SimTime>,
    /// Rescue-DAG resubmissions already spent, per campaign index
    /// (bounded by each campaign's `rescue_dags` budget).
    campaign_rescues: FastMap<usize, u32>,
}

impl Brokering {
    /// Build the subsystem around the assembled campaign table and the
    /// arrival table (in delivery order).
    pub(crate) fn new(
        campaigns: Vec<(String, DagManager<CmsTask>)>,
        mut arrivals: Vec<(Submission, f64)>,
    ) -> Self {
        arrivals.reverse();
        Brokering {
            arrivals,
            arrivals_delivered: 0,
            broker: Broker::default(),
            site_table: SiteTable::new(),
            scratch: SelectScratch::default(),
            retry_state: FastMap::default(),
            unplaced_jobs: 0,
            campaigns,
            campaign_job_map: FastMap::default(),
            campaign_hold: FastMap::default(),
            campaign_rescues: FastMap::default(),
        }
    }

    /// Jobs currently parked in a retry backoff awaiting re-brokering.
    pub(crate) fn parked_jobs(&self) -> usize {
        self.retry_state.len()
    }

    /// When the next undelivered arrival is due (`None` once the table
    /// is exhausted).
    pub(crate) fn next_arrival(&self) -> Option<SimTime> {
        self.arrivals.last().map(|(sub, _)| sub.at)
    }

    /// Take the next arrival, handing the table's memory back whenever
    /// it falls to half its capacity.
    fn take_arrival(&mut self) -> Option<(Submission, f64)> {
        let next = self.arrivals.pop()?;
        self.arrivals_delivered += 1;
        if self.arrivals.len() < self.arrivals.capacity() / 2 {
            self.arrivals.shrink_to_fit();
        }
        Some(next)
    }

    /// Prepare the subsystem for a federated run: stamp the site→grid
    /// labelling onto the site table.
    pub(crate) fn set_federation(&mut self, grid_of: &[GridId]) {
        self.site_table.set_grid_map(grid_of);
    }

    /// The run-mutated slice of this subsystem, for engine snapshots.
    /// The arrival table is rebuilt by re-assembly, so only its cursor
    /// is captured. The site table and the selection scratch are
    /// rebuildable caches and are *not* captured: the table re-memoises
    /// from the restored MDS on first access (same epoch key, same
    /// content).
    pub(crate) fn capture(&self) -> BrokeringCapture<'_> {
        BrokeringCapture {
            arrivals_delivered: self.arrivals_delivered,
            broker: Cow::Borrowed(&self.broker),
            retry_state: Cow::Borrowed(&self.retry_state),
            unplaced_jobs: self.unplaced_jobs,
            campaigns: Cow::Borrowed(&self.campaigns),
            campaign_job_map: Cow::Borrowed(&self.campaign_job_map),
            campaign_hold: Cow::Borrowed(&self.campaign_hold),
            campaign_rescues: Cow::Borrowed(&self.campaign_rescues),
        }
    }

    /// Overlay a captured slice onto a freshly assembled subsystem: the
    /// re-assembled arrival table drops its delivered prefix.
    pub(crate) fn apply(&mut self, cap: BrokeringCapture<'_>) {
        let undelivered = self
            .arrivals
            .len()
            .saturating_sub(usize::try_from(cap.arrivals_delivered).unwrap_or(usize::MAX));
        self.arrivals.truncate(undelivered);
        self.arrivals.shrink_to_fit();
        self.arrivals_delivered = cap.arrivals_delivered;
        self.broker = cap.broker.into_owned();
        self.retry_state = cap.retry_state.into_owned();
        self.unplaced_jobs = cap.unplaced_jobs;
        self.campaigns = cap.campaigns.into_owned();
        self.campaign_job_map = cap.campaign_job_map.into_owned();
        self.campaign_hold = cap.campaign_hold.into_owned();
        self.campaign_rescues = cap.campaign_rescues.into_owned();
    }

    /// Per-campaign progress: `(dataset, state, done, total)`.
    pub fn campaign_progress(&self) -> Vec<(String, DagState, usize, usize)> {
        self.campaigns
            .iter()
            .map(|(name, mgr)| {
                (
                    name.clone(),
                    mgr.dag_state(),
                    mgr.done_count(),
                    mgr.dag().len(),
                )
            })
            .collect()
    }

    /// Submit one job specification through the full §6.1 pipeline.
    /// `campaign` tags jobs owned by a DAG campaign so terminal outcomes
    /// feed back into its DAGMan instance.
    fn submit_spec(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        spec: JobSpec,
        affinity: f64,
        campaign: Option<(usize, DagNodeId)>,
    ) {
        let job = fabric.job_ids.next_id();
        if let Some(tag) = campaign {
            self.campaign_job_map.insert(job, tag);
        }
        ctx.traces.open(job, spec.class, spec.user, now);
        self.try_place(ctx, fabric, now, job, spec, affinity, 0);
    }

    /// The retry policy governing placement backoff for `spec`'s jobs:
    /// the resilience layer's when the grid is operated, else — in
    /// federated runs — the VO's home-grid compute backend's (each
    /// middleware stack shipped its own retry discipline), else none:
    /// baseline single-grid jobs fail fast exactly as before.
    fn retry_policy(fabric: &GridFabric, spec: &JobSpec) -> Option<RetryPolicy> {
        if let Some(r) = &fabric.resilience {
            return Some(r.config().retry.clone());
        }
        if !fabric.federation.is_single() {
            let g = fabric.federation.home_grid(spec.class.vo());
            return Some(
                fabric.federation.grids()[g.index()]
                    .backend
                    .knobs()
                    .retry_policy
                    .clone(),
            );
        }
        None
    }

    /// Whether a transient placement failure on `attempt` gets another
    /// try under the effective retry policy.
    fn can_retry(fabric: &GridFabric, spec: &JobSpec, attempt: u32) -> bool {
        Self::retry_policy(fabric, spec).is_some_and(|p| p.allows(attempt))
    }

    /// Park a job for re-brokering after its backoff (deterministically
    /// jittered per job+attempt so synchronized refusals decorrelate).
    #[allow(clippy::too_many_arguments)]
    fn schedule_retry(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        spec: JobSpec,
        affinity: f64,
        attempt: u32,
    ) {
        let delay = Self::retry_policy(fabric, &spec)
            .expect("retry implies a policy")
            .delay(attempt, u64::from(job.0));
        self.retry_state.insert(job, (spec, affinity, attempt + 1));
        ctx.queue.schedule_at(
            now + delay,
            GridEvent::Brokering(BrokeringEvent::RetryPlace(job)),
        );
        if let Some(r) = &mut fabric.resilience {
            r.retries_scheduled += 1;
        }
    }

    /// One placement attempt: broker (consulting the blacklist) →
    /// gatekeeper → reservations → stage-in. Transient failures re-enter
    /// through [`BrokeringEvent::RetryPlace`] until the retry budget runs
    /// out.
    #[allow(clippy::too_many_arguments)]
    fn try_place(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        spec: JobSpec,
        affinity: f64,
        attempt: u32,
    ) {
        // The row-mask mirror of the directory (rebuilt only when the MDS
        // epoch moved); freshness, the online view and the resilience
        // health veto (absent in baseline runs) are applied inside the
        // selection, ranked by the reference (`Vdt`) rank.
        self.site_table.refresh(&fabric.center.mds);
        let selected = if fabric.federation.is_single() {
            #[cfg(debug_assertions)]
            let mut reference_rng = ctx.broker_rng.clone();
            let selected = self.broker.select_table_for(
                &spec,
                affinity,
                &self.site_table,
                now,
                None,
                RankInputs::HeadroomBandwidth,
                |s| fabric.topo.is_online(s, now),
                fabric
                    .resilience
                    .as_ref()
                    .map(|r| move |s| r.is_banned(s, now)),
                &mut self.scratch,
                &mut ctx.broker_rng,
            );
            // Debug builds replay the selection through the uncached
            // reference broker on a cloned RNG — the fast path must be
            // bit-identical, not just plausible.
            #[cfg(debug_assertions)]
            {
                let records = fabric.center.mds.fresh_records(now);
                let online: Vec<&grid3_middleware::mds::GlueRecord> = records
                    .into_iter()
                    .filter(|r| fabric.topo.is_online(r.site, now))
                    .collect();
                debug_assert_eq!(
                    selected,
                    self.broker.select_filtered(
                        &spec,
                        affinity,
                        &online,
                        &mut reference_rng,
                        |s| {
                            fabric
                                .resilience
                                .as_ref()
                                .is_some_and(|r| r.is_banned(s, now))
                        }
                    ),
                    "row-mask selection diverged from the reference broker"
                );
            }
            selected
        } else {
            self.select_federated(fabric, now, &spec, affinity, &mut ctx.broker_rng)
        };
        let Some(site) = selected else {
            // An empty grid view is usually transient (MDS records expired
            // during a monitoring gap, or every candidate mid-outage):
            // worth a backoff-retry before declaring the job unplaceable.
            if Self::can_retry(fabric, &spec, attempt) {
                self.schedule_retry(ctx, fabric, now, job, spec, affinity, attempt);
                return;
            }
            self.unplaced_jobs += 1;
            ctx.traces
                .record(job, now, TraceEvent::Failed(FailureCause::NoEligibleSite));
            fabric.finish_job_record(
                ctx,
                now,
                job,
                &spec,
                SiteId(0),
                now,
                None,
                SimDuration::ZERO,
                Bytes::ZERO,
                JobOutcome::Failed(FailureCause::NoEligibleSite),
            );
            return;
        };

        ctx.traces.record(job, now, TraceEvent::Brokered { site });

        // Gatekeeper submission (§6.4 load model). A stale MDS record can
        // route a job to a site whose services have since crashed.
        if let Err(err) =
            fabric.gatekeepers[site.index()].submit(job, spec.staging_load_factor(), now)
        {
            ctx.traces.record(job, now, TraceEvent::GatekeeperRefused);
            // Transient refusals (overload, service down) back off and
            // re-broker instead of dying on first contact — the GRAM
            // retry policy decides which errors are worth it.
            let retry =
                Self::retry_policy(fabric, &spec).is_some_and(|p| p.should_retry(attempt, &err));
            if retry {
                self.schedule_retry(ctx, fabric, now, job, spec, affinity, attempt);
                return;
            }
            let cause = match err {
                grid3_middleware::gram::GramError::Overloaded { .. } => {
                    FailureCause::GatekeeperOverload
                }
                _ => FailureCause::ServiceFailure,
            };
            ctx.traces.record(job, now, TraceEvent::Failed(cause));
            fabric.finish_job_record(
                ctx,
                now,
                job,
                &spec,
                site,
                now,
                None,
                SimDuration::ZERO,
                Bytes::ZERO,
                JobOutcome::Failed(cause),
            );
            return;
        }

        // Optional SRM-style reservations (the §8 ablation): scratch at
        // the execution site and output space at the VO archive, both
        // claimed up-front so later disk-full incidents cannot take the
        // job down.
        let vo = spec.class.vo();
        let archive = fabric.topo.archive_site(vo);
        let mut reservation = None;
        let mut archive_reservation = None;
        if fabric.cfg.srm_reservations {
            let scratch = spec.input_bytes + spec.scratch_bytes;
            let fail_disk_full = |fabric: &mut GridFabric, ctx: &mut EngineCtx, job| {
                fabric.gatekeepers[site.index()].job_done(job).ok();
                ctx.traces.record(job, now, TraceEvent::GatekeeperAccepted);
                ctx.traces
                    .record(job, now, TraceEvent::Failed(FailureCause::DiskFull));
                fabric.finish_job_record(
                    ctx,
                    now,
                    job,
                    &spec,
                    site,
                    now,
                    None,
                    SimDuration::ZERO,
                    Bytes::ZERO,
                    JobOutcome::Failed(FailureCause::DiskFull),
                );
            };
            match fabric.sites[site.index()].storage.reserve(scratch) {
                Ok(r) => reservation = Some(r),
                Err(_) => {
                    fail_disk_full(fabric, ctx, job);
                    return;
                }
            }
            match fabric.sites[archive.index()]
                .storage
                .reserve(spec.output_bytes)
            {
                Ok(r) => archive_reservation = Some(r),
                Err(_) => {
                    if let Some(r) = reservation {
                        let _ = fabric.sites[site.index()].storage.release(r);
                    }
                    fail_disk_full(fabric, ctx, job);
                    return;
                }
            }
        }

        let src = archive;
        let input = spec.input_bytes;
        // Evaluated before `spec` moves into the job record: whether a
        // stage-in that cannot start re-brokers or dies.
        let stage_in_retry = Self::can_retry(fabric, &spec, attempt);
        fabric.start_job(
            job,
            ActiveJob {
                spec,
                site,
                submitted: now,
                started: None,
                phase: Phase::StagingIn,
                fate: ExecutionFate::Success,
                exec_duration: SimDuration::ZERO,
                transferred: Bytes::ZERO,
                reservation,
                archive_reservation,
                scratch_lfn: None,
            },
        );

        ctx.traces.record(job, now, TraceEvent::GatekeeperAccepted);
        ctx.traces
            .record(job, now, TraceEvent::StageInStarted { bytes: input });

        // Pre-stage input from the VO archive (zero-byte or local inputs
        // skip the wire).
        if input.is_zero() || src == site {
            ctx.queue.schedule_at(
                now,
                GridEvent::Staging(StagingEvent::StageInDone(job, NO_TRANSFER)),
            );
        } else {
            // A stale RLS answer (chaos fault) routes the stage-in at data
            // the catalog still advertises but the disk no longer serves:
            // the transfer cannot start, and the job re-brokers exactly
            // like any other dead door. Never stale in baseline runs.
            let started = if fabric.rls.is_stale(src) {
                None
            } else {
                fabric
                    .gridftp
                    .start(
                        grid3_middleware::gridftp::TransferRequest {
                            src,
                            dst: site,
                            bytes: input,
                            vo,
                        },
                        now,
                    )
                    .ok()
            };
            match started {
                Some((xfer, finish)) => {
                    // The paper's Figure-5 challenge, federated: inputs
                    // whose VO archive sits in another member grid ride
                    // inter-grid GridFTP replication, and the report
                    // accounts for them separately.
                    if !fabric.federation.is_single()
                        && fabric.federation.grid_of(src) != fabric.federation.grid_of(site)
                    {
                        fabric.federation.record_cross_stage_in(input);
                    }
                    fabric
                        .transfer_purpose
                        .insert(xfer, TransferPurpose::JobStageIn(job));
                    ctx.queue.schedule_at(
                        finish,
                        GridEvent::Staging(StagingEvent::StageInDone(job, xfer)),
                    );
                }
                None => {
                    // The transfer could not even start: one end's GridFTP
                    // door is down (often the *archive*, which a healthy
                    // execution site can do nothing about), or the replica
                    // catalog fed us a stale answer. Re-broker after
                    // backoff rather than dying on the spot.
                    if stage_in_retry {
                        self.park_for_retry(ctx, fabric, now, job, affinity, attempt);
                    } else {
                        fabric.fail_active_job(ctx, now, job, FailureCause::StageInFailure);
                    }
                }
            }
        }
    }

    /// Cross-grid VO brokering: offer the job to the VO's home grid
    /// first, then — in grid-id order — to every other member grid that
    /// admits the VO *and* whose aggregated directory the federation
    /// still trusts ([`grid3_middleware::mds::MdsPeering::is_live`]).
    /// Within each grid, placement runs that grid's backend rank over
    /// that grid's rows only.
    fn select_federated(
        &mut self,
        fabric: &GridFabric,
        now: SimTime,
        spec: &JobSpec,
        affinity: f64,
        rng: &mut SimRng,
    ) -> Option<SiteId> {
        let vo = spec.class.vo();
        let fed = &fabric.federation;
        let home = fed.home_grid(vo);
        let order = std::iter::once(home).chain(
            (0..fed.grids().len() as u32)
                .map(GridId)
                .filter(|g| *g != home),
        );
        for g in order {
            let grid = &fed.grids()[g.index()];
            if !grid.admits(vo) {
                continue;
            }
            // A VO always trusts its home grid's directory (that is the
            // directory its submit hosts query directly); foreign grids
            // are reached through the federation-level index, which
            // vetoes members whose aggregate looks stale.
            if g != home && !fed.peering.is_live(g, now) {
                continue;
            }
            let pick = self.broker.select_table_for(
                spec,
                affinity,
                &self.site_table,
                now,
                Some(g),
                grid.backend.knobs().rank_inputs,
                |s| fabric.topo.is_online(s, now),
                fabric
                    .resilience
                    .as_ref()
                    .map(|r| move |s| r.is_banned(s, now)),
                &mut self.scratch,
                rng,
            );
            if pick.is_some() {
                return pick;
            }
        }
        None
    }

    /// Undo a placement whose stage-in could not start — release the
    /// gatekeeper slot and reservations — and park the job for a
    /// re-brokered retry.
    fn park_for_retry(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        job: JobId,
        affinity: f64,
        attempt: u32,
    ) {
        let Some(j) = fabric.remove_job(job) else {
            return;
        };
        fabric.release_job_resources(&j, job);
        self.schedule_retry(ctx, fabric, now, job, j.spec, affinity, attempt);
    }

    fn on_campaign_tick(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
        now: SimTime,
        idx: usize,
    ) {
        // Release the currently ready nodes (the DagManager enforces the
        // throttle) and submit them through the normal pipeline. CMS
        // production favoured its own sites (§6.4). A single pass only:
        // nodes that fail synchronously (gatekeeper refusal, no eligible
        // site) re-enter Ready and are picked up by the delayed retry tick
        // that `notify_campaign` schedules, instead of burning every retry
        // at the same instant against the same transient outage.
        let ready = self.campaigns[idx].1.ready_nodes();
        let mut next_hold: Option<SimTime> = None;
        for node in ready {
            // A node still inside its retry backoff window stays Ready; it
            // is resubmitted by the follow-up tick below, not instantly by
            // a tick queued for a *sibling's* outcome — which would burn
            // its retries against the same outage.
            if let Some(&hold) = self.campaign_hold.get(&(idx, node)) {
                if now < hold {
                    next_hold = Some(next_hold.map_or(hold, |h: SimTime| h.min(hold)));
                    continue;
                }
                self.campaign_hold.remove(&(idx, node));
            }
            self.campaigns[idx].1.mark_submitted(node);
            let spec = self.campaigns[idx].1.dag().payload(node).spec.clone();
            self.submit_spec(ctx, fabric, now, spec, 0.5, Some((idx, node)));
        }
        // Every held node needs a tick at its hold expiry, or the DAG could
        // stall with nothing active and everything backing off.
        if let Some(at) = next_hold {
            ctx.queue
                .schedule_at(at, GridEvent::Brokering(BrokeringEvent::CampaignTick(idx)));
        }
    }

    /// Feed a campaign job's terminal outcome back into its DAGMan.
    ///
    /// Successful completions release children immediately; failures that
    /// still have retries left are re-queued after
    /// [`CAMPAIGN_RETRY_BASE_DELAY`] backoff — mirroring real DAGMan,
    /// whose RETRY nodes wait for the next submit cycle rather than
    /// resubmitting into the same outage.
    fn notify_campaign(
        &mut self,
        ctx: &mut EngineCtx,
        fabric: &GridFabric,
        now: SimTime,
        job: JobId,
        success: bool,
    ) {
        let Some((idx, node)) = self.campaign_job_map.remove(&job) else {
            return;
        };
        let mgr = &mut self.campaigns[idx].1;
        let delay = if success {
            mgr.mark_done(node);
            SimDuration::ZERO
        } else {
            match mgr.mark_failed(node) {
                FailureAction::Retry { remaining } => {
                    // Exponential backoff: the k-th consecutive failure of
                    // a node waits base·2^k, outliving transient outages.
                    let budget = fabric.cfg.campaigns[idx].retries;
                    let used = budget.saturating_sub(remaining).min(8);
                    let delay = CAMPAIGN_RETRY_BASE_DELAY * (1u64 << used) as f64;
                    self.campaign_hold.insert((idx, node), now + delay);
                    delay
                }
                FailureAction::Permanent => {
                    // The node exhausted its retries: real DAGMan writes a
                    // rescue DAG and the operator resubmits it, re-arming
                    // every failed node with a fresh retry budget (§4.2).
                    // Budgeted per campaign by `rescue_dags`; zero (the
                    // default) keeps the old stop-dead behaviour.
                    let budget = fabric.cfg.campaigns[idx].rescue_dags;
                    let used = self.campaign_rescues.entry(idx).or_insert(0);
                    if *used >= budget {
                        return;
                    }
                    *used += 1;
                    let retries = fabric.cfg.campaigns[idx].retries;
                    let rearmed = mgr.rescue(retries);
                    ctx.ops.record(
                        now,
                        None,
                        crate::ops::OpsEventKind::RescueDag {
                            campaign: idx as u64,
                            rearmed: rearmed as u64,
                        },
                    );
                    RESCUE_DAG_DELAY
                }
            }
        };
        // Re-tick whenever more work could start: children just released,
        // a retry re-queued, or a throttle slot freed with Ready nodes
        // still pending.
        if mgr.has_ready_work() {
            ctx.queue.schedule_at(
                now + delay,
                GridEvent::Brokering(BrokeringEvent::CampaignTick(idx)),
            );
        }
    }
}

/// The run-mutated slice of [`Brokering`] carried by engine snapshots
/// (see [`Brokering::capture`]), borrowed from the live subsystem or
/// owned once decoded.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct BrokeringCapture<'a> {
    arrivals_delivered: u64,
    broker: Cow<'a, Broker>,
    retry_state: Cow<'a, FastMap<JobId, (JobSpec, f64, u32)>>,
    unplaced_jobs: u64,
    campaigns: Cow<'a, [(String, DagManager<CmsTask>)]>,
    campaign_job_map: Cow<'a, FastMap<JobId, (usize, DagNodeId)>>,
    campaign_hold: Cow<'a, FastMap<(usize, DagNodeId), SimTime>>,
    campaign_rescues: Cow<'a, FastMap<usize, u32>>,
}

impl BrokeringCapture<'_> {
    /// A capture that owns its parts, cloning what this one borrows.
    pub(crate) fn into_owned(self) -> BrokeringCapture<'static> {
        BrokeringCapture {
            arrivals_delivered: self.arrivals_delivered,
            broker: Cow::Owned(self.broker.into_owned()),
            retry_state: Cow::Owned(self.retry_state.into_owned()),
            unplaced_jobs: self.unplaced_jobs,
            campaigns: Cow::Owned(self.campaigns.into_owned()),
            campaign_job_map: Cow::Owned(self.campaign_job_map.into_owned()),
            campaign_hold: Cow::Owned(self.campaign_hold.into_owned()),
            campaign_rescues: Cow::Owned(self.campaign_rescues.into_owned()),
        }
    }
}

impl Subsystem for Brokering {
    type Event = BrokeringEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: BrokeringEvent,
        ctx: &mut EngineCtx,
        fabric: &mut GridFabric,
    ) {
        match event {
            BrokeringEvent::Submit => {
                if let Some((sub, affinity)) = self.take_arrival() {
                    self.submit_spec(ctx, fabric, now, sub.spec, affinity, None);
                }
            }
            BrokeringEvent::RetryPlace(job) => {
                if let Some((spec, affinity, attempt)) = self.retry_state.remove(&job) {
                    self.try_place(ctx, fabric, now, job, spec, affinity, attempt);
                }
            }
            BrokeringEvent::CampaignTick(idx) => self.on_campaign_tick(ctx, fabric, now, idx),
            BrokeringEvent::CampaignOutcome(job, success) => {
                self.notify_campaign(ctx, fabric, now, job, success)
            }
        }
    }
}
