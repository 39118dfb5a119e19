//! Whole-grid integration: submissions → brokering → middleware → batch
//! execution → staging → registration → monitoring, across every crate.

use grid3_sim::core::{Grid3Engine, ScenarioConfig};
use grid3_sim::site::vo::UserClass;

fn small() -> ScenarioConfig {
    ScenarioConfig::sc2003()
        .with_scale(0.01)
        .with_seed(101)
        .with_demo(false)
}

#[test]
fn every_submission_reaches_a_terminal_or_in_flight_state() {
    let mut sim = Grid3Engine::new(small());
    sim.run();
    let terminal = sim.acdc().total_records();
    let in_flight = sim.active_jobs() as u64;
    assert!(terminal > 500, "substantial work processed: {terminal}");
    // Nothing vanished: records + active == all submissions inside the
    // horizon (cross-checked by the per-class quota sum).
    let expected: u64 = sim
        .config()
        .scaled_workloads()
        .iter()
        .map(|w| {
            // Only the first 30 days of each workload's schedule fall in
            // this scenario: months 0 and part of 1.
            let mut rng = grid3_sim::simkit::rng::SimRng::for_label(
                sim.config().seed,
                &format!("workload/{}", w.class.name()),
            );
            // The whole seven-month schedule, clipped here rather than by
            // the generator, so the count is independent of the engine's
            // own horizon clipping.
            w.schedule(
                &mut rng,
                grid3_sim::simkit::ids::UserId(0),
                grid3_sim::simkit::time::SimTime::from_days(10_000),
            )
            .into_iter()
            .filter(|s| s.at < sim.config().horizon())
            .count() as u64
        })
        .sum();
    assert_eq!(terminal + in_flight, expected);
}

#[test]
fn repeated_runs_are_bit_identical() {
    let report_a = small().run();
    let report_b = small().run();
    assert_eq!(report_a.to_json(), report_b.to_json());
}

#[test]
fn different_seeds_differ() {
    let a = small().run();
    let b = small().with_seed(202).run();
    assert_ne!(a.total_jobs, b.total_jobs);
}

#[test]
fn larger_scale_processes_more_work() {
    let small_run = small().run();
    let big_run = small().with_scale(0.03).run();
    assert!(big_run.total_jobs > small_run.total_jobs * 2);
}

#[test]
fn all_table1_classes_appear_in_a_thirty_day_window() {
    let report = small().run();
    for stats in &report.table1 {
        // LIGO's jobs are in December; everyone else has October/November
        // activity.
        if stats.class == UserClass::Ligo {
            continue;
        }
        assert!(
            stats.jobs > 0,
            "{} should complete jobs in the SC2003 window",
            stats.class
        );
    }
}

#[test]
fn figures_series_are_well_formed() {
    let report = small().run();
    // Figure 2 cumulative curves are monotone.
    for (vo, series) in &report.fig2_integrated {
        assert_eq!(series.len(), 30);
        for w in series.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{vo}");
        }
    }
    // Figure 3 differential never exceeds total CPUs online.
    let peak_cpus = report.metrics.cpus_peak as f64;
    for v in &report.fig3_total {
        assert!(*v <= peak_cpus);
    }
    // Figure 5 cumulative is monotone.
    for w in report.fig5_cumulative_tb.windows(2) {
        assert!(w[1] >= w[0] - 1e-9);
    }
}

#[test]
fn rls_holds_registered_outputs() {
    use grid3_sim::monitoring::trace::TraceEvent;
    let mut sim = Grid3Engine::new(small());
    sim.run();
    // Registering classes completed jobs, so the catalog is non-trivial.
    assert!(sim.rls().lfn_count() > 0);
    assert_eq!(sim.rls().replica_count(), sim.rls().lfn_count());
    // Each output is registered once, in the same step that records
    // `Registered` in its job's trace: a lost or doubled registration
    // breaks the equality.
    let traces = sim.traces();
    let registered = (0..traces.len() as u32)
        .filter_map(|jid| traces.find_by_execution_id(grid3_sim::simkit::ids::JobId(jid)))
        .filter(|t| {
            t.events
                .iter()
                .any(|(_, e)| matches!(e, TraceEvent::Registered))
        })
        .count();
    assert_eq!(sim.rls().replica_count(), registered);
    assert_eq!(sim.rls().lfn_count(), registered);
}

#[test]
fn gatekeepers_tracked_all_accepted_jobs() {
    use grid3_sim::site::job::FailureCause;
    let mut sim = Grid3Engine::new(small());
    sim.run();
    let accepted: u64 = sim.gatekeepers().iter().map(|g| g.accepted_count()).sum();
    // Every job record except broker rejections and submit-time refusals
    // passed through an accepted gatekeeper submission; jobs still in
    // flight at the horizon are accepted too.
    let submit_refusals: u64 = sim
        .acdc()
        .failure_breakdown()
        .iter()
        .filter(|(c, _)| {
            matches!(
                c,
                FailureCause::GatekeeperOverload
                    | FailureCause::ServiceFailure
                    | FailureCause::NoEligibleSite
            )
        })
        .map(|(_, n)| *n)
        .sum();
    let total = sim.acdc().total_records() + sim.active_jobs() as u64;
    assert!(accepted >= total - submit_refusals);
    assert!(accepted <= total);
}
