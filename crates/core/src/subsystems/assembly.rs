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
use crate::apps::workloads::Submission;
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
    let mut trace_users: Vec<(UserClass, String, UserId)> = Vec::new();
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
            trace_users.push((class, label.to_string(), user));
        }
    }

    // The arrival table: every workload submission inside the horizon
    // (workloads in config order), then the replayed trace jobs in log
    // order, stable-sorted by instant. That is exactly the `(time, seq)`
    // order these submissions would fire in had each been scheduled
    // into the queue here, ahead of every other event.
    let mut arrivals = Vec::new();
    for (w, first_user) in workloads.iter().zip(&first_users) {
        let mut rng = SimRng::for_label(cfg.seed, &format!("workload/{}", w.class.name()));
        arrivals.extend(
            w.schedule(&mut rng, *first_user, cfg.horizon())
                .into_iter()
                .map(|sub| (sub, w.vo_affinity)),
        );
    }

    // Replay the trace: fully-specified jobs at their logged instants,
    // no RNG draws, so replayed runs are bit-deterministic.
    if let Some(trace) = &cfg.trace {
        for job in &trace.jobs {
            if job.at >= cfg.horizon() {
                continue;
            }
            let user = trace_users
                .iter()
                .find(|(c, u, _)| *c == job.class && *u == job.user)
                .map(|(_, _, id)| *id)
                .expect("trace identity registered");
            let sub = Submission {
                at: job.at,
                spec: job.spec(user),
            };
            arrivals.push((sub, job.affinity));
        }
    }
    arrivals.sort_by_key(|(sub, _)| sub.at);

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
