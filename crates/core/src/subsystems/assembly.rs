//! Grid assembly: the §5 deployment pipeline that builds a runnable
//! engine from a scenario configuration.
//!
//! Construction order is load-bearing: every RNG stream is labelled and
//! every initial event is scheduled in a fixed sequence (onboarding,
//! middleware, user registration, the workload arrival table, incident
//! sampling, storms, the demonstrator, campaigns, the first monitor
//! tick), so a given seed yields bit-identical runs regardless of how
//! the engine is internally organised.

use crate::apps::demonstrators::EntradaDemo;
use crate::apps::workloads::{Submission, WorkloadSpec};
use crate::dsl::TraceJob;
use crate::engine::Grid3Engine;
use crate::resilience::ResilienceLayer;
use crate::scenario::ScenarioConfig;
use crate::workflow::dagman::DagManager;
use crate::workflow::mop::{McRunJob, ProductionRequest};
use grid3_igoc::center::OperationsCenter;
use grid3_middleware::gram::Gatekeeper;
use grid3_middleware::gridftp::GridFtp;
use grid3_middleware::gsi::CertificateAuthority;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_middleware::voms::{VoRole, VomsServer};
use grid3_monitoring::mdviewer::MdViewer;
use grid3_monitoring::trace::TraceStore;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobIdGen, SiteId, UserId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::series::GaugeTracker;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::cluster::Site;
use grid3_site::failure::FailureEvent;
use grid3_site::vo::{UserClass, Vo};
use std::collections::BTreeMap;

use super::brokering::Brokering;
use super::execution::Execution;
use super::fabric::GridFabric;
use super::fault::FaultHandling;
use super::reporting::Reporting;
use super::staging::Staging;
use super::{BrokeringEvent, EngineCtx, FaultEvent, GridEvent, ReportingEvent, StagingEvent};

/// Assemble the grid for `cfg`: build the topology, onboard every site
/// through the iGOC pipeline, register users with VOMS/GSI/AUP, build
/// the workload arrival table, and schedule demo rounds, failure
/// incidents and monitor ticks.
pub(crate) fn assemble(cfg: ScenarioConfig) -> Grid3Engine {
    assemble_on(cfg, EventQueue::new())
}

/// [`assemble`] onto a caller-supplied empty event queue. The
/// differential tests pass [`EventQueue::with_heap`], the binary-heap
/// reference, to hold the ladder queue to its event order.
pub(crate) fn assemble_on(cfg: ScenarioConfig, mut queue: EventQueue<GridEvent>) -> Grid3Engine {
    let topo = crate::topology::grid3_topology().replicated(cfg.site_replicas);
    let mut sites = topo.build_sites();
    // The federation layer: label sites into member grids (or the
    // degenerate one-grid federation). Built before the middleware so
    // per-grid backend personalities can shape gatekeeper thresholds.
    let federation = match &cfg.federation {
        Some(fed) => crate::federation::FederationState::build(fed, &topo),
        None => crate::federation::FederationState::single(sites.len()),
    };
    let mut center = OperationsCenter::new(cfg.pipeline.clone());
    // GRIS records must outlive the republish period or every broker
    // query sees an empty grid.
    center.mds.set_ttl(cfg.monitor_interval * 2);

    // Onboard every site (§5.1). Sites whose latent fault evaded
    // certification run with elevated misconfiguration rates (§6.2).
    for site in sites.iter_mut() {
        let mut rng = SimRng::for_label(cfg.seed, &format!("onboard/{}", site.profile.name));
        let outcome = center.onboard_site(site, SimTime::EPOCH, &mut rng);
        site.validated = outcome.validated_clean;
    }

    // Gatekeepers and the transfer fabric. Each site's overload
    // threshold comes from its grid's compute backend (the `Vdt`
    // reference backend reproduces `Gatekeeper::new`'s default).
    let gatekeepers: Vec<Gatekeeper> = sites
        .iter()
        .map(|s| {
            let grid = &federation.grids()[federation.grid_of(s.id).index()];
            Gatekeeper::with_threshold(s.id, grid.backend.knobs().overload_threshold)
        })
        .collect();
    let gridftp = GridFtp::new(sites.iter().map(|s| (s.id, s.profile.wan_bandwidth)));
    let rls = ReplicaLocationService::new();

    // Users: register each class's population in its VO's VOMS server,
    // issue certificates, accept the AUP (§5.3, §5.4).
    let mut ca = CertificateAuthority::new("/DC=org/DC=doegrids/CN=DOEGrids CA 1");
    let mut voms: Vec<VomsServer> = Vo::ALL.iter().map(|vo| VomsServer::new(*vo)).collect();
    let workloads = cfg.scaled_workloads();
    let mut next_user = 0u32;
    let mut first_users = Vec::with_capacity(workloads.len());
    for w in &workloads {
        first_users.push(UserId(next_user));
        for i in 0..w.users {
            let user = UserId(next_user + i);
            let dn = format!("/CN={} user {}", w.class.name(), i);
            let role = if i == 0 {
                VoRole::AppAdmin
            } else {
                VoRole::Member
            };
            let server = voms
                .iter_mut()
                .find(|s| s.vo == w.class.vo())
                .expect("server per VO");
            server.register(user, dn.clone(), role, SimTime::EPOCH);
            ca.issue(user, dn, SimTime::from_days(730));
            center.aup.accept(user, SimTime::EPOCH);
        }
        next_user += w.users;
    }
    // The iGOC operations staff also hold grid credentials (under the
    // iVDGL VO), bringing the authorized-user population to the §7
    // figure of 102.
    for i in 0..7 {
        let user = UserId(next_user + i);
        let dn = format!("/CN=iGOC operator {i}");
        let server = voms
            .iter_mut()
            .find(|s| s.vo == Vo::Ivdgl)
            .expect("iVDGL server");
        server.register(user, dn.clone(), VoRole::VoAdmin, SimTime::EPOCH);
        ca.issue(user, dn, SimTime::from_days(730));
        center.aup.accept(user, SimTime::EPOCH);
    }
    next_user += 7;

    // Trace replay: each distinct (class, user) identity in the log gets
    // real credentials like any synthetic user, in first-occurrence order
    // so UserIds are a pure function of the trace.
    let mut trace_users: BTreeMap<(UserClass, &str), UserId> = BTreeMap::new();
    if let Some(trace) = &cfg.trace {
        for (class, label) in trace.identities() {
            let user = UserId(next_user);
            next_user += 1;
            let dn = format!("/CN={} trace {}", class.name(), label);
            let server = voms
                .iter_mut()
                .find(|s| s.vo == class.vo())
                .expect("server per VO");
            server.register(user, dn.clone(), VoRole::Member, SimTime::EPOCH);
            ca.issue(user, dn, SimTime::from_days(730));
            center.aup.accept(user, SimTime::EPOCH);
            trace_users.insert((class, label), user);
        }
    }
    let arrivals = arrival_table(&cfg, &workloads, &first_users, &trace_users);

    // With the resilience layer on, sites also suffer ongoing
    // configuration drift (§6.2's regressions after validation) at
    // the layer's churn MTBF — giving the feedback loop a steady
    // stream of faults to catch. Applied before schedule sampling so
    // the drift events land in each site's incident stream.
    if let Some(rcfg) = &cfg.resilience {
        for site in sites.iter_mut() {
            site.profile.failures = site
                .profile
                .failures
                .clone()
                .with_misconfig_churn(rcfg.churn_mtbf);
        }
    }

    // Failure incidents per site.
    for site in &sites {
        let mut rng = SimRng::for_label(cfg.seed, &format!("failures/{}", site.profile.name));
        for incident in site.profile.failures.sample_schedule(
            &mut rng,
            SimTime::EPOCH,
            cfg.horizon().since(SimTime::EPOCH),
        ) {
            queue.schedule_at(
                incident.at(),
                GridEvent::Fault(FaultEvent::Incident(site.id, incident)),
            );
        }
    }

    // Correlated multi-site outage storms: every listed site's grid
    // services crash at the same instant.
    for storm in &cfg.storms {
        let at = SimTime::from_days(storm.day) + SimDuration::from_hours(storm.hour);
        if at >= cfg.horizon() {
            continue;
        }
        let outage = SimDuration::from_hours(storm.outage_hours);
        for raw in &storm.sites {
            let site = SiteId(*raw);
            if site.index() < sites.len() {
                queue.schedule_at(
                    at,
                    GridEvent::Fault(FaultEvent::Incident(
                        site,
                        FailureEvent::ServiceCrash { at, outage },
                    )),
                );
            }
        }
    }

    // Deterministic fault injection: the chaos plan is plain data — each
    // planned fault becomes a routed event, so every subsystem exercises
    // its real handling code. Scheduled after storms and before the
    // demonstrator, in plan order (the plan is sorted by time).
    if let Some(plan) = &cfg.chaos {
        use crate::chaos::FaultKind;
        for fault in &plan.faults {
            if fault.at >= cfg.horizon() {
                continue;
            }
            if let Some(site) = fault.kind.site() {
                if site.index() >= sites.len() {
                    continue;
                }
            }
            let event = match fault.kind {
                FaultKind::BlackHole { site, duration } => {
                    GridEvent::Fault(FaultEvent::ChaosBlackHole(site, duration))
                }
                FaultKind::DiskExhaustion {
                    site,
                    external_bytes,
                    cleanup_after,
                } => GridEvent::Fault(FaultEvent::Incident(
                    site,
                    FailureEvent::DiskFull {
                        at: fault.at,
                        external_bytes,
                        cleanup_after,
                    },
                )),
                FaultKind::TransferTruncation { corrupt } => {
                    GridEvent::Staging(StagingEvent::ChaosTruncateTransfer { corrupt })
                }
                FaultKind::StaleReplicas { site, duration } => {
                    GridEvent::Fault(FaultEvent::ChaosRlsStale(site, duration))
                }
                FaultKind::MdsStaleness { site, duration } => {
                    GridEvent::Fault(FaultEvent::ChaosMdsFreeze(site, duration))
                }
                FaultKind::SensorBlackout { site, duration } => {
                    GridEvent::Fault(FaultEvent::ChaosSensorBlackout(site, duration))
                }
                FaultKind::IgocPartition { site, duration } => {
                    GridEvent::Fault(FaultEvent::ChaosIgocPartition(site, duration))
                }
            };
            queue.schedule_at(fault.at, event);
        }
    }

    // The Entrada GridFTP demonstrator (§4.7, §6.3): a matrix over the
    // best-connected persistent sites, hourly, sized for the paper's
    // 2 TB/day goal.
    let demo = if cfg.include_demo {
        let mut ranked: Vec<&Site> = sites
            .iter()
            .filter(|s| topo.specs[s.id.index()].offline_after_day.is_none())
            .filter(|s| topo.specs[s.id.index()].online_from_day == 0)
            .collect();
        ranked.sort_by(|a, b| {
            grid3_simkit::stats::cmp_f64_desc(
                a.profile.wan_bandwidth.as_bytes_per_sec(),
                b.profile.wan_bandwidth.as_bytes_per_sec(),
            )
            .then_with(|| a.id.cmp(&b.id))
        });
        let chosen: Vec<SiteId> = ranked.iter().take(cfg.demo_sites).map(|s| s.id).collect();
        let demo = EntradaDemo::sized_for_daily_target(
            chosen,
            SimDuration::from_hours(1),
            Bytes::from_tb(cfg.demo_daily_target_tb),
        );
        queue.schedule_at(
            SimTime::EPOCH + SimDuration::from_mins(30),
            GridEvent::Staging(StagingEvent::EntradaRound),
        );
        Some(demo)
    } else {
        None
    };

    // DAG-shaped production campaigns (§4.2): MCRunJob writes the
    // chains; a DAGMan instance per campaign releases work into the
    // grid as dependencies complete.
    let mut mc = McRunJob::new();
    let mut campaigns = Vec::with_capacity(cfg.campaigns.len());
    for (i, spec) in cfg.campaigns.iter().enumerate() {
        let dag = mc.write_dag(&ProductionRequest {
            dataset: spec.dataset.clone(),
            events: spec.events,
            events_per_job: spec.events_per_job,
            simulator: spec.simulator,
            operator: UserId(0),
        });
        let mgr = DagManager::new(dag, spec.retries, spec.throttle);
        campaigns.push((spec.dataset.clone(), mgr));
        queue.schedule_at(
            SimTime::from_days(spec.submit_day),
            GridEvent::Brokering(BrokeringEvent::CampaignTick(i)),
        );
    }

    // Monitoring sweeps.
    queue.schedule_at(
        SimTime::EPOCH,
        GridEvent::Reporting(ReportingEvent::MonitorTick),
    );

    let days = cfg.days as usize;
    let viewer = MdViewer::new(SimTime::EPOCH, days);
    let resilience = cfg
        .resilience
        .clone()
        .map(|rc| ResilienceLayer::new(rc, sites.len()));

    let mut ops = if cfg.ops_journal {
        crate::ops::OpsJournal::enabled()
    } else {
        crate::ops::OpsJournal::disabled()
    };
    // The journal's site→grid labelling stays the empty (all-grid-0)
    // default in single-grid runs so records keep their legacy shape.
    if !federation.is_single() {
        ops.set_grid_map(crate::federation::GridMap::new(
            federation.grid_map().to_vec(),
        ));
    }
    let ctx = EngineCtx {
        broker_rng: SimRng::for_entity(cfg.seed, 0xB0B),
        fate_rng: SimRng::for_entity(cfg.seed, 0xFA7E),
        queue,
        traces: TraceStore::new(),
        ops,
        immediates: Vec::new(),
        drain_pool: Vec::new(),
        record_pool: Vec::new(),
    };
    let auditor = if cfg.audit {
        Some(crate::chaos::InvariantAuditor::new())
    } else {
        None
    };
    let profiler = if cfg.profile {
        Some(grid3_simkit::profiler::CostProfiler::new(
            &super::COST_CENTERS,
        ))
    } else {
        None
    };
    let chaos_state = crate::chaos::ChaosState::new(sites.len());
    let mut brokering = Brokering::new(campaigns, arrivals);
    if !federation.is_single() {
        brokering.set_federation(federation.grid_map());
    }
    let fabric = GridFabric {
        resilience,
        cfg,
        topo,
        staging_in: vec![Vec::new(); sites.len()],
        sites,
        gatekeepers,
        gridftp,
        rls,
        center,
        voms,
        ca,
        job_gauge: GaugeTracker::new(SimTime::EPOCH),
        jobs: FastMap::default(),
        job_ids: JobIdGen::new(),
        transfer_purpose: FastMap::default(),
        chaos: chaos_state,
        federation,
    };
    Grid3Engine {
        ctx,
        fabric,
        brokering,
        staging: Staging::new(demo),
        execution: Execution::default(),
        fault: FaultHandling::default(),
        reporting: Reporting::new(viewer),
        auditor,
        profiler,
    }
}

/// The arrival table, latest first (the next arrival is popped off the
/// back): every workload submission inside the horizon and every
/// replayed trace job before it.
///
/// Each row is keyed by `(instant, draw position)`. Positions count
/// through the workloads in config order, each in draw order, then
/// through the trace jobs in log order, so the keys are unique and
/// their sorted order is a stable sort of the rows by instant: exactly
/// the `(time, seq)` order these submissions would fire in had each
/// been scheduled into the queue here, ahead of every other event. The
/// keys are sorted once and the rows gathered from them straight into
/// the table, which is allocated once at its final length.
fn arrival_table(
    cfg: &ScenarioConfig,
    workloads: &[WorkloadSpec],
    first_users: &[UserId],
    trace_users: &BTreeMap<(UserClass, &str), UserId>,
) -> Vec<(Submission, f64)> {
    let horizon = cfg.horizon();
    let drawn: Vec<Vec<Submission>> = workloads
        .iter()
        .zip(first_users)
        .map(|(w, first_user)| {
            let mut rng = SimRng::for_label(cfg.seed, &format!("workload/{}", w.class.name()));
            w.draw(&mut rng, *first_user, horizon)
        })
        .collect();
    // Replayed jobs are fully specified at their logged instants: no
    // RNG draws, so replayed runs are bit-deterministic.
    let trace: &[TraceJob] = cfg.trace.as_ref().map_or(&[], |t| &t.jobs);

    // `starts[i]` is workload `i`'s first position; the last entry is
    // the first trace position.
    let mut starts = Vec::with_capacity(drawn.len() + 1);
    let mut next = 0;
    for subs in &drawn {
        starts.push(next);
        next += subs.len();
    }
    starts.push(next);
    let mut keys: Vec<(SimTime, usize)> = Vec::with_capacity(next + trace.len());
    keys.extend(
        drawn
            .iter()
            .flatten()
            .enumerate()
            .map(|(pos, sub)| (sub.at, pos)),
    );
    for (i, job) in trace.iter().enumerate() {
        if job.at < horizon {
            keys.push((job.at, next + i));
        }
    }
    keys.sort_unstable();

    keys.iter()
        .rev()
        .map(|&(_, pos)| {
            let w = starts.partition_point(|&start| start <= pos) - 1;
            match drawn.get(w) {
                Some(subs) => (subs[pos - starts[w]].clone(), workloads[w].vo_affinity),
                None => {
                    let job = &trace[pos - next];
                    let user = trace_users[&(job.class, job.user.as_str())];
                    let sub = Submission {
                        at: job.at,
                        spec: job.spec(user),
                    };
                    (sub, job.affinity)
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::workloads::grid3_workloads;
    use crate::dsl::JobTrace;
    use grid3_simkit::dist::ArrivalProcess;

    /// The reference table: each workload's `schedule` in config order,
    /// then the trace jobs in log order, stable-sorted by instant and
    /// reversed (latest first). Trace users follow the synthetic users
    /// and the seven iGOC operators, in first-occurrence order.
    fn reference_table(cfg: &ScenarioConfig) -> Vec<(Submission, f64)> {
        let horizon = cfg.horizon();
        let mut rows = Vec::new();
        let mut next_user = 0;
        for w in cfg.scaled_workloads() {
            let mut rng = SimRng::for_label(cfg.seed, &format!("workload/{}", w.class.name()));
            let subs = w.schedule(&mut rng, UserId(next_user), horizon);
            rows.extend(subs.into_iter().map(|sub| (sub, w.vo_affinity)));
            next_user += w.users;
        }
        next_user += 7;
        if let Some(trace) = &cfg.trace {
            let mut identities: Vec<(UserClass, &str)> = Vec::new();
            for job in &trace.jobs {
                if !identities.contains(&(job.class, job.user.as_str())) {
                    identities.push((job.class, job.user.as_str()));
                }
            }
            for job in trace.jobs.iter().filter(|job| job.at < horizon) {
                let index = identities
                    .iter()
                    .position(|&identity| identity == (job.class, job.user.as_str()))
                    .expect("identity listed");
                let user = UserId(next_user + index as u32);
                let sub = Submission {
                    at: job.at,
                    spec: job.spec(user),
                };
                rows.push((sub, job.affinity));
            }
        }
        rows.sort_by_key(|row| row.0.at);
        rows.reverse();
        rows
    }

    /// Assemble `cfg` and compare the brokering table row for row.
    fn assert_table_matches_reference(cfg: ScenarioConfig) {
        let expected = reference_table(&cfg);
        let engine = assemble(cfg);
        let table = engine.brokering.arrival_rows();
        assert_eq!(table.len(), expected.len(), "arrival count");
        for (i, (got, want)) in table.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "row {i} of {}", expected.len());
        }
    }

    fn workload(class: UserClass) -> WorkloadSpec {
        grid3_workloads()
            .into_iter()
            .find(|w| w.class == class)
            .expect("Table 1 class")
    }

    fn every_six_hours() -> Option<ArrivalProcess> {
        Some(ArrivalProcess::Periodic {
            every: SimDuration::from_hours(6),
            offset: SimDuration::ZERO,
        })
    }

    fn small(days: u64) -> ScenarioConfig {
        ScenarioConfig::sc2003().with_days(days).with_demo(false)
    }

    /// Logged jobs on the six-hour grid of [`every_six_hours`] (so each
    /// ties with a workload submission), two of them at one instant, one
    /// past a ten-day horizon, with users shared across jobs.
    fn tied_trace() -> JobTrace {
        let job = |hours: u64, class: UserClass, user: &str, affinity: f64| TraceJob {
            at: SimTime::from_hours(hours),
            class,
            user: user.to_string(),
            runtime: SimDuration::from_secs(600 + hours),
            input_bytes: hours * 1_000,
            output_bytes: 0,
            scratch_bytes: 0,
            staged_files: 1,
            needs_outbound: false,
            registers_output: false,
            walltime_factor: 2.0,
            affinity,
        };
        JobTrace {
            jobs: vec![
                job(12, UserClass::Usatlas, "op1", 0.1),
                job(6, UserClass::Ligo, "op2", 0.2),
                job(12, UserClass::Usatlas, "op3", 0.3),
                job(12, UserClass::Sdss, "op1", 0.4),
                job(300, UserClass::Ligo, "late", 0.5),
                job(0, UserClass::Usatlas, "op1", 0.6),
                job(6, UserClass::Ligo, "op2", 0.7),
            ],
        }
    }

    #[test]
    fn arrival_table_breaks_cross_class_ties_in_config_order() {
        let mut sdss = workload(UserClass::Sdss);
        let mut atlas = workload(UserClass::Usatlas);
        sdss.arrivals = every_six_hours();
        atlas.arrivals = every_six_hours();
        assert_table_matches_reference(small(10).with_workloads(vec![sdss, atlas]));
    }

    #[test]
    fn arrival_table_puts_trace_jobs_after_workload_ties() {
        let mut sdss = workload(UserClass::Sdss);
        sdss.arrivals = every_six_hours();
        let cfg = small(10)
            .with_workloads(vec![sdss, workload(UserClass::Btev)])
            .with_trace(tied_trace());
        assert_table_matches_reference(cfg);
    }

    #[test]
    fn arrival_table_matches_reference_for_a_poisson_workload() {
        let mut sdss = workload(UserClass::Sdss);
        sdss.arrivals = Some(ArrivalProcess::Poisson { per_day: 40.0 });
        let cfg = small(20).with_workloads(vec![workload(UserClass::Ivdgl), sdss]);
        assert_table_matches_reference(cfg);
    }

    #[test]
    fn arrival_table_matches_reference_for_sc2003_with_its_surge() {
        assert_table_matches_reference(ScenarioConfig::sc2003().with_scale(0.25));
    }

    #[test]
    fn arrival_table_matches_reference_when_the_horizon_cuts_november() {
        // Day 25 is mid-SC2003 week: month 1 is drawn in full and its
        // surge straddles the horizon.
        let cfg = ScenarioConfig::sc2003()
            .with_scale(0.1)
            .with_days(25)
            .with_trace(tied_trace());
        assert_table_matches_reference(cfg);
    }
}
