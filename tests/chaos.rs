//! The deterministic chaos harness: seeded fault plans delivered as
//! routed events, the grid's recovery paths (hung-job watchdog, disk
//! cleanup, transfer resume, rescue DAGs), and the invariant auditor
//! that holds the whole thing to conservation laws.
//!
//! Run just these with `cargo test --release -- chaos` (the CI release
//! job does).

use grid3_sim::core::chaos::{ChaosRates, FaultKind, FaultPlan, PlannedFault};
use grid3_sim::core::ops::OpsEventKind;
use grid3_sim::core::scenario::CampaignSpec;
use grid3_sim::core::{grid3_topology, Grid3Engine, Grid3Report, ScenarioConfig};
use grid3_sim::igoc::tickets::TicketKind;
use grid3_sim::middleware::gridftp::{NetLogEvent, TransferError};
use grid3_sim::simkit::time::{SimDuration, SimTime};
use grid3_sim::simkit::units::Bytes;
use grid3_sim::workflow::mop::CmsSimulator;

/// A fast chaos configuration: 12 days at 1 % scale, no demo, auditor on.
fn chaos_cfg(seed: u64) -> ScenarioConfig {
    let base = ScenarioConfig::sc2003()
        .with_days(12)
        .with_scale(0.01)
        .with_demo(false)
        .with_seed(seed)
        .with_audit(true);
    let plan = FaultPlan::sample(
        &ChaosRates::grid3_default(),
        seed,
        grid3_topology().len(),
        base.horizon().since(SimTime::EPOCH),
    );
    base.with_chaos(plan)
}

/// Drain a configuration to quiescence and assert the auditor saw a
/// conserved, balanced run: every job terminal exactly once, storage
/// within bounds, report totals matching the audited ledger.
fn run_audited(cfg: ScenarioConfig) -> (Grid3Engine, Grid3Report) {
    drain_audited(Grid3Engine::new(cfg))
}

/// [`run_audited`] for an engine that may already be part-way through
/// its window.
fn drain_audited(mut sim: Grid3Engine) -> (Grid3Engine, Grid3Report) {
    sim.run_until_idle();
    let report = Grid3Report::extract(&sim);
    sim.audit_verify_report(&report);
    let audit = sim.audit().expect("auditor enabled");
    assert_eq!(
        audit.violation_count(),
        0,
        "invariant violations: {:#?}",
        audit.violations()
    );
    assert_eq!(sim.active_jobs(), 0, "jobs leaked past quiescence");
    assert!(sim.queue().is_empty(), "queue not drained");
    (sim, report)
}

/// How many journal lines of the run match `pred`.
fn journal_count(sim: &Grid3Engine, pred: impl Fn(&OpsEventKind) -> bool) -> usize {
    sim.ops_journal()
        .records()
        .iter()
        .filter(|r| pred(&r.kind))
        .count()
}

/// Journal lines of transfer cuts whose partial file passed (`false`)
/// or failed (`true`) its checksum.
fn journaled_cuts(sim: &Grid3Engine, corrupt: bool) -> usize {
    let label = if corrupt {
        "truncated_corrupt"
    } else {
        "truncated_resumed"
    };
    journal_count(
        sim,
        |k| matches!(k, OpsEventKind::FaultInjected { kind } if kind == label),
    )
}

/// Journal lines of cleanup sweeps scheduled after a stage-in bounced.
fn journaled_cleanups(sim: &Grid3Engine) -> usize {
    journal_count(sim, |k| *k == OpsEventKind::CleanupScheduled)
}

#[test]
fn chaos_property_random_plans_drain_clean() {
    // The headline property: random fault plans across seeds must drain
    // to quiescence with zero auditor violations and no leaked jobs.
    // (grid3-core's `queue_backends_agree_on_drained_chaos_plans` holds
    // the binary-heap reference queue to the same reports.)
    for seed in [5u64, 71, 2003] {
        let cfg = chaos_cfg(seed);
        assert!(
            !cfg.chaos.as_ref().unwrap().is_empty(),
            "seed {seed}: sampled plan is empty — rates too low for the window"
        );
        let (sim, report) = run_audited(cfg);
        // Every allocated job is accounted for in the audited ledger.
        let audit = sim.audit().unwrap();
        let (completed, failed) = audit.ledger();
        assert_eq!(completed + failed, audit.terminal_jobs());
        assert_eq!(audit.terminal_jobs(), report.total_jobs);
    }
}

#[test]
fn chaos_seeded_plan_replay_is_bit_identical() {
    let a = run_audited(chaos_cfg(71)).1.to_json();
    let b = run_audited(chaos_cfg(71)).1.to_json();
    assert_eq!(a, b, "same plan, same seed, different bytes");
}

#[test]
fn black_hole_sites_swallow_jobs_until_the_watchdog_reaps_them() {
    // Black-hole every early site for two days mid-window. Jobs keep
    // being dispatched into the holes and hang; the wall-clock watchdog
    // must reap every one of them, so the run still drains with all jobs
    // terminal and zero violations — and the holes show up as extra
    // failures relative to the fault-free run.
    let base = ScenarioConfig::sc2003()
        .with_days(10)
        .with_scale(0.02)
        .with_demo(false)
        .with_seed(404)
        .with_audit(true);
    let baseline_failed = {
        let mut sim = Grid3Engine::new(base.clone());
        sim.run_until_idle();
        sim.audit().unwrap().ledger().1
    };
    let holes: Vec<PlannedFault> = (0..8)
        .map(|s| PlannedFault {
            at: SimTime::from_days(2),
            kind: FaultKind::BlackHole {
                site: grid3_sim::simkit::ids::SiteId(s),
                duration: SimDuration::from_days(2),
            },
        })
        .collect();
    let (sim, _) = run_audited(base.with_chaos(FaultPlan::new(holes)));
    let (_, failed) = sim.audit().unwrap().ledger();
    assert!(
        failed > baseline_failed,
        "black holes swallowed no jobs (failed {failed} vs baseline {baseline_failed})"
    );
}

#[test]
fn disk_exhaustion_opens_pressure_tickets_and_recovers() {
    // Exhaust storage at several sites with far more external data than
    // the disks hold: the shortfall must surface as DiskPressure tickets
    // (not vanish), cleanup must reclaim the space, and the run must
    // still drain clean. Each fill lands a minute after a monitor tick,
    // so the broker's MDS view of the site stays stale for most of the
    // two-hour interval and keeps sending it jobs whose stage-in bounces
    // off the full disk; a bounce schedules a cleanup sweep.
    let faults: Vec<PlannedFault> = (1..=8u64)
        .flat_map(|day| {
            (0..6u32).map(move |s| PlannedFault {
                at: SimTime::from_days(day)
                    + SimDuration::from_hours(2 * u64::from(s))
                    + SimDuration::from_mins(1),
                kind: FaultKind::DiskExhaustion {
                    site: grid3_sim::simkit::ids::SiteId(s),
                    external_bytes: Bytes::from_tb(500),
                    cleanup_after: SimDuration::from_hours(8),
                },
            })
        })
        .collect();
    let cfg = ScenarioConfig::sc2003()
        .with_days(10)
        .with_scale(0.02)
        .with_demo(false)
        .with_seed(17)
        .with_ops_journal(true)
        .with_audit(true)
        .with_chaos(FaultPlan::new(faults));
    let (sim, _) = run_audited(cfg);
    let pressure = sim
        .center()
        .tickets
        .tickets()
        .iter()
        .filter(|t| t.kind == TicketKind::DiskPressure)
        .count();
    assert!(
        pressure > 0,
        "500 TB into a site SE must leave a recorded shortfall ticket"
    );
    assert!(
        journaled_cleanups(&sim) > 0,
        "no stage-in bounced off a full disk"
    );
    // Cleanup reclaimed the external fill: no site ends the run with its
    // storage pinned full.
    for site in sim.sites() {
        assert!(
            site.storage.free() > Bytes::ZERO,
            "site {} still wedged full after cleanup",
            site.id
        );
    }
}

#[test]
fn rescue_dags_rearm_permanently_failed_campaigns() {
    // A campaign with zero per-node retries dies on its first node
    // failure — unless rescue DAGs re-arm it. Black-hole the whole grid
    // for the campaign's opening hours so first-wave failures are
    // guaranteed, and give the campaign rescue budget to recover with
    // (each node that goes Permanent while the grid is sick burns one).
    let holes: Vec<PlannedFault> = (0..27)
        .map(|s| PlannedFault {
            at: SimTime::from_days(1),
            kind: FaultKind::BlackHole {
                site: grid3_sim::simkit::ids::SiteId(s),
                duration: SimDuration::from_hours(6),
            },
        })
        .collect();
    let cfg = ScenarioConfig::sc2003()
        .with_days(20)
        .with_scale(0.002)
        .with_demo(false)
        .with_seed(9)
        .with_ops_journal(true)
        .with_audit(true)
        .with_chaos(FaultPlan::new(holes))
        .with_campaign(CampaignSpec {
            dataset: "rescue_test".into(),
            events: 1_500,
            events_per_job: 250,
            simulator: CmsSimulator::Cmsim,
            submit_day: 1,
            retries: 0,
            throttle: 12,
            rescue_dags: 20,
        });
    let (sim, _) = run_audited(cfg);
    let rearmed: u64 = sim
        .ops_journal()
        .records()
        .iter()
        .filter_map(|r| match r.kind {
            OpsEventKind::RescueDag { rearmed, .. } => Some(rearmed),
            _ => None,
        })
        .sum();
    assert!(
        rearmed > 0,
        "no rescue DAG fired despite guaranteed node failures"
    );
    let progress = sim.campaign_progress();
    let (_, _, done, total) = &progress[0];
    assert!(
        *done > 0,
        "rescued campaign made no progress ({done}/{total})"
    );
}

#[test]
fn transfer_truncation_resumes_and_still_balances() {
    // Cut in-flight transfers repeatedly over the window, half of them
    // with corrupt partials. Resumed transfers must re-deliver the data:
    // the run drains with zero violations and jobs still complete. At 2 %
    // scale a job transfer is in flight at only a few instants of the
    // window, so a cut is planned every ten minutes from day 1 on; the
    // rest fizzle.
    let faults: Vec<PlannedFault> = (0..9 * 24 * 6)
        .map(|i| PlannedFault {
            at: SimTime::from_days(1) + SimDuration::from_mins(10 * i),
            kind: FaultKind::TransferTruncation {
                corrupt: i % 2 == 0,
            },
        })
        .collect();
    let cfg = ScenarioConfig::sc2003()
        .with_days(10)
        .with_scale(0.02)
        .with_demo(false)
        .with_seed(23)
        .with_ops_journal(true)
        .with_audit(true)
        .with_chaos(FaultPlan::new(faults));
    let (sim, report) = run_audited(cfg);
    let (completed, _) = sim.audit().unwrap().ledger();
    assert!(completed > 0, "nothing completed under truncation chaos");
    assert!(report.total_jobs > 0);
    let cuts = journaled_cuts(&sim, true) + journaled_cuts(&sim, false);
    assert!(cuts > 0, "no transfer was in flight at any planned cut");
}

#[test]
fn chaos_actions_without_another_record_are_counted() {
    // Transfer cuts and bounce-triggered cleanup sweeps each write one
    // ops journal line. Every cut lands under exactly one checksum
    // outcome, and their sum must equal the cuts GridFTP's NetLogger
    // stream reports; the resumed run still drains clean.
    let cfg = ScenarioConfig::sc2003_chaos()
        .with_scale(0.3)
        .with_demo(false)
        .with_ops_journal(true)
        .with_audit(true);
    let (truncated, sim) = count_netlogger_truncations(cfg);
    let (sim, _) = drain_audited(sim);
    let corrupt = journaled_cuts(&sim, true);
    let resumed = journaled_cuts(&sim, false);
    assert!(
        corrupt > 0 && resumed > 0,
        "cuts: {corrupt} corrupt, {resumed} resumed"
    );
    assert_eq!(corrupt + resumed, truncated);
    assert!(journaled_cleanups(&sim) > 0);
}

/// Run `cfg` to its horizon and count the transfers that GridFTP's
/// NetLogger stream reports as truncated. Each monitor sweep ships the
/// stream to the iGOC archive, which keeps no per-error breakdown, so
/// the run stops just before every sweep to read what the stream holds.
/// A cut planned at a sweep's own instant would fire first and be
/// shipped unread, so the plan must place none there. Returns the count
/// and the engine, stopped at the horizon.
fn count_netlogger_truncations(cfg: ScenarioConfig) -> (usize, Grid3Engine) {
    let interval = cfg.monitor_interval;
    let horizon = cfg.horizon();
    let plan = cfg.chaos.as_ref().expect("a chaos scenario");
    assert!(
        plan.faults.iter().all(|f| {
            !matches!(f.kind, FaultKind::TransferTruncation { .. })
                || f.at.since(SimTime::EPOCH).as_micros() % interval.as_micros() != 0
        }),
        "a cut is planned at a monitor sweep's instant"
    );
    let mut sim = Grid3Engine::new(cfg);
    let mut truncated = 0;
    let mut stop = SimTime::EPOCH;
    while stop < horizon {
        stop = (stop + interval).min(horizon);
        sim.run_until(stop);
        truncated += sim
            .gridftp()
            .log()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    NetLogEvent::Error {
                        error: TransferError::Truncated,
                        ..
                    }
                )
            })
            .count();
    }
    (truncated, sim)
}
