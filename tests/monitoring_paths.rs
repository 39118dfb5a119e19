//! The Figure 1 monitoring architecture and its §5.2 redundancy property:
//! "similar information [is] collected by different paths … permitting
//! crosschecks on the data collected."

use grid3_sim::core::{Grid3Engine, ScenarioConfig};
use grid3_sim::monitoring::framework::{fig1_topology, ComponentKind};
use grid3_sim::monitoring::monalisa::SeriesKey;
use grid3_sim::monitoring::trace::{SubmitSideId, TraceEvent};
use grid3_sim::site::vo::Vo;

fn run_small() -> Grid3Engine {
    let mut sim = Grid3Engine::new(
        ScenarioConfig::sc2003()
            .with_scale(0.01)
            .with_seed(33)
            .with_demo(false),
    );
    sim.run();
    sim
}

#[test]
fn fig1_has_the_paper_component_set() {
    let (components, edges) = fig1_topology();
    let names: Vec<&str> = components.iter().map(|c| c.name).collect();
    for expected in [
        "Ganglia",
        "MDS GRIS",
        "MonALISA",
        "ML repository",
        "ACDC Job DB",
        "VO GIIS",
        "MDViewer",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
    assert!(!edges.is_empty());
}

#[test]
fn fig1_every_path_terminates_at_a_consumer() {
    let (components, edges) = fig1_topology();
    // Walk forward from every producer and intermediary; a dead end that
    // is not a consumer would be collected-but-never-used data.
    for (i, c) in components.iter().enumerate() {
        if c.kind == ComponentKind::Consumer {
            continue;
        }
        let mut stack = vec![i];
        let mut reached_consumer = false;
        let mut seen = vec![false; components.len()];
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            if components[n].kind == ComponentKind::Consumer {
                reached_consumer = true;
                break;
            }
            for (a, b) in &edges {
                if *a == n {
                    stack.push(*b);
                }
            }
        }
        assert!(reached_consumer, "{} feeds no consumer", c.name);
    }
}

#[test]
fn crosscheck_acdc_vs_mdviewer_job_counts() {
    // The same job records flow to ACDC and MDViewer by separate paths;
    // the §5.2 crosscheck must agree.
    let sim = run_small();
    assert_eq!(sim.acdc().total_records(), sim.viewer().jobs_seen());
}

#[test]
fn crosscheck_acdc_cpu_days_vs_mdviewer_integration() {
    // Two independent computations of USCMS CPU-days: ACDC sums completed
    // job runtimes; MDViewer integrates occupancy intervals (which also
    // counts failed jobs' burn, so it must be ≥ the ACDC figure).
    let sim = run_small();
    let acdc_cms: f64 = sim
        .acdc()
        .cpu_days_by_site(grid3_sim::site::vo::UserClass::Uscms)
        .values()
        .sum();
    let viewer_cms = sim.viewer().total_cpu_days(Vo::Uscms);
    assert!(
        viewer_cms >= acdc_cms - 1e-6,
        "viewer {viewer_cms:.2} < acdc {acdc_cms:.2}"
    );
    // And they agree within the failed-job burn margin (2× is generous).
    assert!(viewer_cms <= acdc_cms * 2.0 + 1.0);
}

/// How many gatekeeper acceptances and refusals the trace store saw.
fn traced_gatekeeper_verdicts(sim: &Grid3Engine) -> (u64, u64) {
    let traces = sim.traces();
    let (mut accepted, mut refused) = (0, 0);
    for n in 0..traces.len() as u64 {
        let trace = traces
            .find_by_submit_id(SubmitSideId(n))
            .expect("dense ids");
        for (_, event) in &trace.events {
            match event {
                TraceEvent::GatekeeperAccepted => accepted += 1,
                TraceEvent::GatekeeperRefused => refused += 1,
                _ => {}
            }
        }
    }
    (accepted, refused)
}

#[test]
fn crosscheck_gram_counter_vs_acdc_records() {
    // §5.2 redundancy: the gatekeepers' own acceptance tallies, the trace
    // store and the ACDC record database count the same population by
    // independent paths. Every ACDC record is an unplaced, refused or
    // terminal accepted job; accepted jobs still in flight at the
    // horizon are counted but have no record yet. A refusal is traced
    // whether the gatekeeper was overloaded or down; its own tally
    // counts overload refusals only.
    let sim = run_small();
    let accepted: u64 = sim.gatekeepers().iter().map(|g| g.accepted_count()).sum();
    assert!(accepted > 0, "no accepted jobs counted");
    let (traced_accepted, refused) = traced_gatekeeper_verdicts(&sim);
    assert_eq!(accepted, traced_accepted);
    let terminal_accepted = sim.acdc().total_records() - refused - sim.unplaced_jobs();
    assert_eq!(accepted, terminal_accepted + sim.active_jobs() as u64);
}

#[test]
fn crosscheck_gridftp_bytes_vs_netlogger() {
    // Three paths count the bytes GridFTP delivered: the NetLogger
    // archive correlates the §4.7 event stream's Start/End records, the
    // accounting funnel credits each completed transfer, and MDViewer
    // bins the same credits into Figure 5. A transfer killed mid-flight
    // credits its partial bytes but logs an Error, not an End, so the
    // paths agree exactly only when no transfer errored.
    let sim = run_small();
    let stats = sim.center().netlogger.stats();
    assert_eq!(stats.errored, 0, "an errored transfer splits the paths");
    let logged = stats.bytes_completed.as_u64();
    assert!(logged > 0, "no transfer bytes logged");
    assert_eq!(logged, sim.bytes_delivered().as_u64());
    let fig5_tb = *sim
        .viewer()
        .fig5_cumulative_tb_total()
        .last()
        .expect("a non-empty window");
    let fig5_bytes = fig5_tb * 1e12;
    assert!(
        (fig5_bytes - logged as f64).abs() <= logged as f64 * 1e-12,
        "Figure 5 reads {fig5_bytes} bytes, NetLogger {logged}"
    );
}

#[test]
fn ganglia_web_sees_every_online_site() {
    let sim = run_small();
    // 27 production sites reported by the end (surge sites may be offline
    // at the horizon but reported earlier).
    // SMU joins after the 30-day window, so 29 of 30 entries report.
    assert!(sim.center().ganglia_web.summaries().count() >= 27);
    let reported = sim.center().ganglia_web.total_cpus();
    assert!(reported >= sim.topology().steady_cpus());
    assert!(reported <= sim.topology().peak_cpus());
}

#[test]
fn monalisa_repository_holds_per_site_series() {
    let sim = run_small();
    // Every site that reported to Ganglia has its 8 MonALISA series:
    // queue depth, gatekeeper load and running jobs for each of 6 VOs.
    assert_eq!(
        sim.center().monalisa.series_count(),
        8 * sim.center().ganglia_web.summaries().count()
    );
    // Gatekeeper-load series exist for the Tier-1s.
    for site in [0u32, 1] {
        assert!(
            sim.center()
                .monalisa
                .series(&SeriesKey::GkLoad(grid3_sim::simkit::ids::SiteId(site)))
                .is_some(),
            "site {site} missing gatekeeper-load series"
        );
    }
}

#[test]
fn status_catalog_probed_everyone() {
    let sim = run_small();
    let entries: Vec<_> = sim.center().status_catalog.entries().collect();
    assert!(entries.len() >= 27);
    for (id, e) in entries {
        // Sites that never came online inside the window (SMU joins in
        // December) are registered but unprobed.
        if sim.topology().specs[id.index()].online_from_day >= sim.config().days {
            continue;
        }
        assert!(e.probes > 0, "{id} never probed");
    }
}
