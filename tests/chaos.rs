//! The deterministic chaos harness: seeded fault plans delivered as
//! routed events, the grid's recovery paths (hung-job watchdog, disk
//! cleanup, transfer resume, rescue DAGs), and the invariant auditor
//! that holds the whole thing to conservation laws.
//!
//! Run just these with `cargo test --release -- chaos` (the CI release
//! job does).

use grid3_sim::core::chaos::{ChaosRates, FaultKind, FaultPlan, PlannedFault};
use grid3_sim::core::scenario::CampaignSpec;
use grid3_sim::core::{grid3_topology, Grid3Engine, Grid3Report, ScenarioConfig};
use grid3_sim::igoc::tickets::TicketKind;
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
    let mut sim = Grid3Engine::new(cfg);
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
        .with_telemetry(true)
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
        sim.telemetry().counter_total("chaos", "cleanup_scheduled") > 0,
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
        .with_telemetry(true)
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
    assert!(
        sim.telemetry().counter_total("dagman", "rescued") > 0,
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
        .with_telemetry(true)
        .with_audit(true)
        .with_chaos(FaultPlan::new(faults));
    let (sim, report) = run_audited(cfg);
    let (completed, _) = sim.audit().unwrap().ledger();
    assert!(completed > 0, "nothing completed under truncation chaos");
    assert!(report.total_jobs > 0);
    let t = sim.telemetry();
    let cuts =
        t.counter("chaos", "truncated_corrupt", "") + t.counter("chaos", "truncated_resumed", "");
    assert!(cuts > 0, "no transfer was in flight at any planned cut");
    assert_eq!(cuts, t.counter_total("gridftp", "truncated"));
}

#[test]
fn chaos_actions_without_another_record_are_counted() {
    // Transfer cuts and bounce-triggered cleanup sweeps leave no ops
    // journal record, so their telemetry counters are their only
    // account. Every cut lands under exactly one checksum outcome, and
    // GridFTP's own truncation tally must agree; the resumed run still
    // drains clean.
    let (sim, _) = run_audited(
        ScenarioConfig::sc2003_chaos()
            .with_scale(0.3)
            .with_demo(false)
            .with_telemetry(true)
            .with_audit(true),
    );
    let t = sim.telemetry();
    let corrupt = t.counter("chaos", "truncated_corrupt", "");
    let resumed = t.counter("chaos", "truncated_resumed", "");
    assert!(
        corrupt > 0 && resumed > 0,
        "cuts: {corrupt} corrupt, {resumed} resumed"
    );
    assert_eq!(corrupt + resumed, t.counter_total("gridftp", "truncated"));
    assert!(t.counter_total("chaos", "cleanup_scheduled") > 0);
}
