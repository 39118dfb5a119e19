//! Cross-crate middleware integration: VOMS → grid-map → GSI authorization
//! (§5.3), Pacman onboarding → MDS publication (§5.1), and the gatekeeper
//! load law (§6.4) driven by a real workload shape.

use grid3_sim::core::{Grid3Engine, ScenarioConfig};
use grid3_sim::middleware::gram::{sustained_load, Gatekeeper};
use grid3_sim::middleware::gsi::{CertificateAuthority, GridMapFile};
use grid3_sim::middleware::voms::{mkgridmap, total_distinct_users, VoRole, VomsServer};
use grid3_sim::simkit::ids::{JobId, SiteId, UserId};
use grid3_sim::simkit::time::{SimDuration, SimTime};
use grid3_sim::site::vo::Vo;

#[test]
fn voms_to_gridmap_to_authorization_end_to_end() {
    // Register members across two VOs, generate a site grid-map honouring
    // policy, and authorize a certificate through it (§5.3's pipeline).
    let mut ca = CertificateAuthority::new("/CN=DOEGrids CA 1");
    let mut atlas = VomsServer::new(Vo::Usatlas);
    let mut cms = VomsServer::new(Vo::Uscms);
    let cert = ca.issue(UserId(1), "/CN=Alice", SimTime::from_days(365));
    atlas.register(UserId(1), "/CN=Alice", VoRole::Member, SimTime::EPOCH);
    cms.register(UserId(2), "/CN=Bob", VoRole::AppAdmin, SimTime::EPOCH);

    // An ATLAS-only site admits Alice, not Bob.
    let servers = vec![atlas, cms];
    let map: GridMapFile = mkgridmap(&servers, |vo| vo == Vo::Usatlas);
    assert_eq!(map.len(), 1);
    assert_eq!(map.authorize(&cert, &ca, SimTime::EPOCH), Ok("usatlas"));
    assert_eq!(total_distinct_users(&servers), 2);
}

#[test]
fn scenario_populates_the_full_identity_stack() {
    let sim = Grid3Engine::new(
        ScenarioConfig::sc2003()
            .with_scale(0.005)
            .with_seed(71)
            .with_demo(false),
    );
    // 102 users hold certificates, VOMS memberships and AUP acceptance.
    assert_eq!(total_distinct_users(sim.voms()), 102);
    assert_eq!(sim.ca().issued_count(), 102);
    assert_eq!(sim.center().aup.permitted_count(), 102);
    // Every VO has a server; HEP VOs have the big populations.
    let atlas = sim.voms().iter().find(|s| s.vo == Vo::Usatlas).unwrap();
    assert_eq!(atlas.member_count(), 25);
}

#[test]
fn onboarding_publishes_glue_records_with_grid3_extensions() {
    let sim = Grid3Engine::new(
        ScenarioConfig::sc2003()
            .with_scale(0.005)
            .with_seed(72)
            .with_demo(false),
    );
    // Every site (30 incl. surge entries) published at onboarding.
    assert_eq!(sim.center().mds.len(), 30);
    let rec = sim.center().mds.lookup(SiteId(0)).expect("BNL published");
    assert!(rec.app_install_area.contains("BNL"));
    assert_eq!(rec.vdt_version, "VDT-1.1.8");
    assert!(rec.max_walltime >= SimDuration::from_hours(96));
}

#[test]
fn gatekeeper_load_law_under_production_shapes() {
    // §6.4's calibration points, checked against the live gatekeeper.
    assert!((sustained_load(1000, 1.0) - 225.0).abs() < 1e-9);

    let mut gk = Gatekeeper::with_threshold(SiteId(0), f64::INFINITY);
    let t0 = SimTime::EPOCH;
    // 1000 managed long jobs with minimal staging (factor 2).
    for i in 0..1000 {
        gk.submit(JobId(i), 2.0, t0).unwrap();
    }
    let sustained = gk.load_one_min(t0 + SimDuration::from_mins(5));
    assert!((sustained - 450.0).abs() < 1e-9);

    // A short-high-frequency burst on top spikes the load sharply.
    let burst_at = t0 + SimDuration::from_mins(10);
    for i in 1000..1100 {
        gk.submit(JobId(i), 1.0, burst_at).unwrap();
    }
    let spiked = gk.load_one_min(burst_at + SimDuration::from_secs(10));
    assert!(
        spiked > sustained + 150.0,
        "burst load {spiked:.0} vs sustained {sustained:.0}"
    );
}

#[test]
fn gridftp_and_rls_carry_scenario_data() {
    let mut sim = Grid3Engine::new(
        ScenarioConfig::sc2003()
            .with_scale(0.01)
            .with_seed(73)
            .with_demo(false),
    );
    sim.run();
    // Staging moved real bytes and registrations landed in RLS.
    assert!(sim.bytes_delivered().as_gb_f64() > 100.0);
    assert!(sim.rls().lfn_count() > 50);
    // Archive sites hold the registered replicas.
    let bnl_replicas = sim
        .rls()
        .replicas_at(sim.topology().archive_site(Vo::Usatlas));
    assert!(bnl_replicas > 0, "BNL archives ATLAS outputs");
}
