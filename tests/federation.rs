//! Federated multi-grid integration tests: the bit-identity contract
//! for degenerate federations, hierarchical MDS peering edge cases
//! (stale-directory veto, epoch skew, the `MdsStaleness` chaos fault
//! hitting one grid of two), cross-grid stage-in accounting, and the
//! federation config's JSON round trip.
//!
//! Run just these with `cargo test --release -- federation` (the CI
//! release job does).

use grid3_sim::core::chaos::{FaultKind, FaultPlan, PlannedFault};
use grid3_sim::core::{
    grid3_topology, Federation, Grid3Engine, Grid3Report, GridSpec, ScenarioConfig,
};
use grid3_sim::middleware::backend::BackendKind;
use grid3_sim::middleware::mds::MdsPeering;
use grid3_sim::simkit::ids::{GridId, SiteId};
use grid3_sim::simkit::time::{SimDuration, SimTime};
use grid3_sim::site::vo::Vo;

/// A fast federated configuration: 12 days at 1 % scale, no demo.
fn fed_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig::sc2003_federated()
        .with_days(12)
        .with_scale(0.01)
        .with_demo(false)
        .with_seed(seed)
}

#[test]
fn federation_single_grid_vdt_is_bit_identical_to_no_federation() {
    // The conservative contract: an explicit one-grid `Vdt` federation
    // must not move a byte of the report against the classic engine —
    // same RNG draws, same placements, same JSON.
    let base = ScenarioConfig::sc2003()
        .with_days(12)
        .with_scale(0.01)
        .with_seed(7);
    let baseline_run = base.clone().run_full();
    let degenerate_run = base
        .with_federation(Federation::new(vec![GridSpec {
            name: "grid3".to_string(),
            backend: BackendKind::Vdt,
            sites: Vec::new(),
            admits: None,
        }]))
        .run_full();
    let baseline = baseline_run.report.to_json();
    let degenerate = degenerate_run.report.to_json();
    assert_eq!(baseline, degenerate, "one-grid Vdt federation drifted");
    // The event stream is identical too, not just its accounting.
    assert_eq!(
        degenerate_run.events_processed, baseline_run.events_processed,
        "single-grid federation changed the event stream"
    );
    // And the degenerate report carries no federated fields at all.
    assert!(!degenerate.contains("per_grid_efficiency"));
    assert!(!degenerate.contains("\"federation\""));
}

#[test]
fn peering_vetoes_stale_directories_and_measures_epoch_skew() {
    let mut p = MdsPeering::new(2, SimDuration::from_hours(6));
    let t0 = SimTime::EPOCH;
    // Never-synced grids are not live, even at the epoch.
    assert!(!p.is_live(GridId(0), t0));
    assert!(!p.is_live(GridId(1), t0));
    // Grid 0 syncs fresh data every two hours; grid 1 advanced once.
    let mut now = t0;
    for i in 1..=4u64 {
        now = t0 + SimDuration::from_hours(2 * i);
        p.sync(GridId(0), now, now);
    }
    p.sync(GridId(1), t0 + SimDuration::from_hours(1), now);
    assert!(p.is_live(GridId(0), now));
    // Grid 1 *synced* this sweep, but its freshest record lags `now` by
    // seven hours — past the six-hour horizon, so the federation vetoes
    // it even though its own directory may look fine to itself.
    assert!(!p.is_live(GridId(1), now));
    assert_eq!(p.epoch_of(GridId(0)), 4);
    assert_eq!(p.epoch_of(GridId(1)), 1);
    assert_eq!(p.epoch_skew(), 3);
    // A sync that does not advance freshness bumps no epoch.
    p.sync(GridId(0), t0, now);
    assert_eq!(p.epoch_of(GridId(0)), 4);
    // Once grid 1 catches up it is offered cross-grid work again.
    p.sync(GridId(1), now, now);
    assert!(p.is_live(GridId(1), now));
    assert_eq!(p.epoch_skew(), 2);
}

#[test]
fn mds_staleness_fault_on_one_grid_of_two_starves_its_peering_epoch() {
    // Freeze every GRIS of the EDG member grid for the rest of the run:
    // its per-grid directory stops advancing, the federation-level index
    // stops bumping its epoch, and by the horizon the grid is vetoed for
    // cross-grid placement while the VDT grid stays live.
    let topo = grid3_topology();
    let edg_sites = [
        "FNAL_CMS_Tier1",
        "Caltech_Tier2",
        "UCSD_Tier2",
        "UFlorida_Tier2",
        "KNU_KISTI",
        "Rice_CMS",
    ];
    let frozen_at = SimTime::EPOCH + SimDuration::from_hours(48);
    let faults: Vec<PlannedFault> = edg_sites
        .iter()
        .map(|name| {
            let idx = topo
                .specs
                .iter()
                .position(|s| s.name == *name)
                .unwrap_or_else(|| panic!("{name} missing from the catalog"));
            PlannedFault {
                at: frozen_at,
                kind: FaultKind::MdsStaleness {
                    site: SiteId(idx as u32),
                    duration: SimDuration::from_hours(24 * 30),
                },
            }
        })
        .collect();
    let cfg = fed_cfg(2003).with_chaos(FaultPlan::new(faults));
    let horizon = cfg.horizon();
    let mut sim = Grid3Engine::new(cfg);
    sim.run();
    let report = Grid3Report::extract(&sim);
    assert!(report.total_jobs > 0, "frozen grid stalled the whole run");

    let fed = sim.federation();
    let peering = &fed.peering;
    // The VDT grid republished all month; the EDG grid froze on day 2.
    assert!(peering.is_live(GridId(0), horizon), "VDT grid went stale");
    assert!(
        !peering.is_live(GridId(1), horizon),
        "frozen EDG grid still offered cross-grid work"
    );
    assert!(
        peering.epoch_of(GridId(0)) > peering.epoch_of(GridId(1)),
        "frozen directory kept advancing"
    );
    assert!(peering.epoch_skew() > 0);
    // Work still completes grid-wide: the VDT grid absorbs what the
    // stale grid cannot be offered.
    assert!(fed.tally_of(GridId(0)).completed > 0);
}

#[test]
fn federated_run_reports_per_grid_split_and_cross_grid_traffic() {
    // SDSS archives at FNAL — inside the EDG grid, which refuses SDSS —
    // so its stage-ins must cross the grid boundary over GridFTP.
    let report = ScenarioConfig::sc2003_federated().with_scale(0.02).run();
    assert_eq!(report.per_grid_efficiency.len(), 2);
    let g0 = &report.per_grid_efficiency[0];
    let g1 = &report.per_grid_efficiency[1];
    assert_eq!(
        (g0.grid.as_str(), g0.backend.as_str()),
        ("grid3", "VDT-1.1.8")
    );
    assert_eq!(
        (g1.grid.as_str(), g1.backend.as_str()),
        ("edg", "EDG-2.0-LCG1")
    );
    assert_eq!(g1.sites, 6);
    assert!(g0.completed > 0 && g1.completed > 0, "a grid sat idle");

    let fed = report.federation.as_ref().expect("federated rollup");
    assert_eq!(fed.grids, 2);
    assert_eq!(fed.completed, g0.completed + g1.completed);
    assert_eq!(fed.failed, g0.failed + g1.failed);
    assert!(fed.cross_grid_stage_ins > 0, "no stage-in crossed grids");
    assert!(fed.cross_grid_stage_in_tb > 0.0);

    let json = report.to_json();
    assert!(json.contains("per_grid_efficiency"));
    assert!(json.contains("cross_grid_stage_ins"));
    let rendered = report.render_federation();
    assert!(rendered.contains("EDG-2.0-LCG1"));
    assert!(rendered.contains("cross-grid stage-ins"));
}

#[test]
fn federation_vo_admission_keeps_refused_work_off_a_grid() {
    // The EDG grid admits only USCMS and BTeV: no other VO's jobs may
    // land there, however attractive its sites look.
    let mut sim = Grid3Engine::new(fed_cfg(11));
    sim.run();
    let fed = sim.federation();
    for vo in [Vo::Uscms, Vo::Btev] {
        assert_eq!(fed.home_grid(vo), GridId(1), "{vo:?} should home on edg");
    }
    for vo in [Vo::Usatlas, Vo::Sdss, Vo::Ligo, Vo::Ivdgl] {
        assert_eq!(fed.home_grid(vo), GridId(0), "{vo:?} should home on grid3");
    }
    let report = Grid3Report::extract(&sim);
    // ACDC tracks completed jobs by executing site; no class outside the
    // admission policy may have run inside the EDG grid.
    use grid3_sim::site::vo::UserClass;
    for class in UserClass::ALL {
        if matches!(class.vo(), Vo::Uscms | Vo::Btev) {
            continue;
        }
        for (site, jobs) in sim.acdc().jobs_by_site(class) {
            assert!(
                fed.grid_of(site) != GridId(1) || jobs == 0,
                "{class:?} ran {jobs} jobs on the edg grid"
            );
        }
    }
    assert!(report.total_jobs > 0);
}

#[test]
fn federation_config_round_trips_through_json() {
    let cfg = ScenarioConfig::sc2003_federated();
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let back: ScenarioConfig = serde_json::from_str(&json).expect("config parses");
    assert_eq!(back.federation, cfg.federation);
    assert_eq!(
        serde_json::to_string(&back).expect("round trip serializes"),
        json
    );
    // Legacy configs predating the federation field still parse (the
    // missing key lifts to `None`), keeping archived scenario JSON valid.
    let legacy = serde_json::to_string(&ScenarioConfig::sc2003()).expect("serializes");
    let parsed: ScenarioConfig = serde_json::from_str(&legacy).expect("legacy parses");
    assert!(parsed.federation.is_none());
}
