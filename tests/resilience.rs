//! The adaptive fault-handling layer end-to-end: broker blacklisting,
//! GRAM retry/backoff, and the IGOC feedback loop (storm tickets →
//! revalidation → repaired sites).
//!
//! Calibration target (the m-eff row): with the resilience layer running
//! on the SC2003 month, *validated* sites complete ≥ 90 % of their jobs
//! while the overall ATLAS/CMS efficiency stays in the paper's ≈70 %
//! band — the gap being the unvalidated/degraded tail the operations
//! center is busy re-validating.

use grid3_sim::core::resilience::SiteState;
use grid3_sim::core::{Grid3Engine, Grid3Report, ScenarioConfig};
use grid3_sim::igoc::tickets::{TicketKind, TicketStatus};
use grid3_sim::site::vo::UserClass;

fn operated(seed: u64) -> Grid3Engine {
    let mut sim = Grid3Engine::new(
        ScenarioConfig::sc2003_operated()
            .with_scale(0.05)
            .with_seed(seed)
            .with_demo(false),
    );
    sim.run();
    sim
}

#[test]
fn validated_sites_clear_ninety_percent_overall_stays_in_band() {
    for seed in [2003u64, 7, 42] {
        let sim = operated(seed);
        let validated = sim.site_ledger().efficiency(SiteState::Validated);
        assert!(
            validated >= 0.90,
            "seed {seed}: validated-site efficiency {validated:.3} < 0.90"
        );
        let overall = sim.acdc().overall_efficiency();
        assert!(
            (0.70..=0.90).contains(&overall),
            "seed {seed}: overall efficiency {overall:.3} out of band"
        );
        for class in [UserClass::Usatlas, UserClass::Uscms] {
            let eff = sim.acdc().efficiency(class);
            assert!(
                (0.55..=0.85).contains(&eff),
                "seed {seed}: {class} efficiency {eff:.3} left the ≈70 % band"
            );
        }
        // The ledger splits cleanly: unvalidated sites do much worse, so
        // the overall number sits between the two regimes.
        let unvalidated = sim.site_ledger().efficiency(SiteState::Unvalidated);
        assert!(
            unvalidated < validated - 0.2,
            "seed {seed}: unvalidated {unvalidated:.3} too close to validated {validated:.3}"
        );
    }
}

#[test]
fn failure_storms_open_tickets_and_repairs_revalidate_sites() {
    let sim = operated(2003);
    let r = sim.resilience().expect("operated scenario");
    assert!(r.storms_opened > 0, "churn must trip the storm detector");
    assert!(r.retries_scheduled > 0, "transient failures must retry");
    // Repairs lag storms by the revalidation turnaround; by month's end
    // nearly every opened storm has been worked.
    assert!(
        r.repairs_completed + 5 >= r.storms_opened,
        "repairs {} lag storms {}",
        r.repairs_completed,
        r.storms_opened
    );
    // Every completed repair resolved its FailureStorm ticket.
    let storm_tickets: Vec<_> = sim
        .center()
        .tickets
        .tickets()
        .iter()
        .filter(|t| t.kind == TicketKind::FailureStorm)
        .cloned()
        .collect();
    assert_eq!(storm_tickets.len() as u64, r.storms_opened);
    let resolved = storm_tickets
        .iter()
        .filter(|t| matches!(t.status, TicketStatus::Resolved(_)))
        .count() as u64;
    assert_eq!(resolved, r.repairs_completed);
}

#[test]
fn report_breaks_down_efficiency_by_site_state() {
    let sim = operated(7);
    let report = Grid3Report::extract(&sim);
    let states: Vec<&str> = report
        .site_state_efficiency
        .iter()
        .map(|row| row.state.as_str())
        .collect();
    assert_eq!(states, vec!["validated", "unvalidated", "degraded"]);
    for row in &report.site_state_efficiency {
        assert!(row.completed + row.failed > 0, "{} bucket empty", row.state);
        assert!((0.0..=1.0).contains(&row.efficiency));
    }
    // The render carries the calibration row.
    let text = report.render_metrics();
    assert!(
        text.contains("Eff. by site state"),
        "metrics table must include the site-state breakdown"
    );
    // And the machine-readable report round-trips it.
    let json = report.to_json();
    assert!(json.contains("site_state_efficiency"));
}

#[test]
fn baseline_scenario_keeps_resilience_off() {
    // sc2003 without the operations overlay must not instantiate the
    // layer at all — the baseline stream alignment depends on it.
    let mut sim = Grid3Engine::new(
        ScenarioConfig::sc2003()
            .with_scale(0.01)
            .with_seed(5)
            .with_demo(false),
    );
    sim.run();
    assert!(sim.resilience().is_none());
    // The ledger still buckets (everything lands by validation state),
    // but no storms, repairs, or retries can have happened.
    let (c, f) = sim.site_ledger().counts(SiteState::Degraded);
    assert_eq!(c + f, 0, "no bans without the resilience layer");
}
