//! Regenerate every table and figure of the Grid2003 paper at full scale.
//!
//! ```sh
//! cargo run --release -p grid3-bench --bin figures -- all
//! cargo run --release -p grid3-bench --bin figures -- table1
//! cargo run --release -p grid3-bench --bin figures -- fig2 fig3 fig5
//! ```
//!
//! Scenario-DSL front ends (scenarios as data, no code changes):
//!
//! ```sh
//! figures -- --scenario scenarios/cms_igt_1m.json     # run one scenario file
//! figures -- --trace mylog.jsonl                      # replay a submission log
//! figures -- campaign scenarios                       # sweep a directory
//! figures -- export-scenarios                         # regenerate scenarios/*.json
//! figures -- smoke-scenarios                          # 1 sim-hour of every file
//! figures -- autopsy runs/run-0003.snap               # inspect a crash snapshot
//! ```
//!
//! Artifacts: ASCII tables on stdout and machine-readable JSON under
//! `results/` (one file per scenario), so the numbers in EXPERIMENTS.md
//! are auditable. An unknown subcommand prints the valid list and exits
//! with status 2.

use grid3_bench::gatekeeper_load_sweep;
use grid3_core::campaign::{run_with_threads, CampaignPlan};
use grid3_core::report::Grid3Report;
use grid3_core::scenario::ScenarioConfig;
use grid3_simkit::stats::Summary;
use grid3_site::vo::Vo;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const SEED: u64 = 2003;

/// The figure and experiment keywords, in the order they run.
const FIGURES: [&str; 13] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "metrics", "gkload", "variance", "ablation",
    "trace", "heat", "ops",
];

/// Keywords that are neither figures nor path-taking modes.
const MODES: [&str; 3] = ["all", "export-scenarios", "smoke-scenarios"];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Peel off the value-taking DSL modes before building the keyword set.
    let mut args: BTreeSet<String> = BTreeSet::new();
    let mut scenario_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut campaign_dir: Option<PathBuf> = None;
    let mut autopsy_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if matches!(flag, "--scenario" | "--trace" | "campaign" | "autopsy") {
            let Some(v) = raw.get(i + 1) else {
                eprintln!("[figures] {flag} needs a path argument");
                std::process::exit(2);
            };
            let path = PathBuf::from(v);
            match flag {
                "--scenario" => scenario_path = Some(path),
                "--trace" => trace_path = Some(path),
                "autopsy" => autopsy_path = Some(path),
                _ => campaign_dir = Some(path),
            }
            i += 2;
        } else {
            args.insert(flag.to_string());
            i += 1;
        }
    }
    if let Some(bad) = args
        .iter()
        .find(|a| !FIGURES.contains(&a.as_str()) && !MODES.contains(&a.as_str()))
    {
        eprintln!("[figures] unknown subcommand `{bad}`");
        eprintln!(
            "[figures] valid: {} {} | campaign <dir> | autopsy <file.snap> | \
             --scenario <file.json> | --trace <log.jsonl>",
            FIGURES.join(" "),
            MODES.join(" ")
        );
        std::process::exit(2);
    }

    if args.remove("export-scenarios") {
        export_scenarios();
        return;
    }
    if args.remove("smoke-scenarios") {
        smoke_scenarios();
        return;
    }
    if let Some(snap) = autopsy_path {
        autopsy_cli(&snap);
        return;
    }
    if let Some(dir) = campaign_dir {
        run_campaign_dir_cli(&dir);
        return;
    }
    if scenario_path.is_some() || trace_path.is_some() {
        run_scenario_cli(scenario_path.as_deref(), trace_path.as_deref());
        return;
    }

    let want = |k: &str| args.is_empty() || args.contains(k) || args.contains("all");

    std::fs::create_dir_all("results").ok();

    // One run per scenario window, reused across the artifacts it feeds.
    let mut sc2003: Option<Grid3Report> = None;
    let mut cms: Option<Grid3Report> = None;
    let mut seven: Option<Grid3Report> = None;

    let mut get = |which: &str| -> Grid3Report {
        let (slot, cfg): (&mut Option<Grid3Report>, ScenarioConfig) = match which {
            "sc2003" => (&mut sc2003, ScenarioConfig::sc2003().with_seed(SEED)),
            "cms" => (&mut cms, ScenarioConfig::cms_production().with_seed(SEED)),
            _ => (&mut seven, ScenarioConfig::seven_months().with_seed(SEED)),
        };
        if slot.is_none() {
            eprintln!("[figures] running {which} scenario at full scale…");
            let report = cfg.run();
            std::fs::write(format!("results/{which}.json"), report.to_json()).ok();
            *slot = Some(report);
        }
        slot.clone().expect("just created")
    };

    if want("fig2") {
        let r = get("sc2003");
        println!("Figure 2 — integrated CPU usage (CPU-days) over the 30-day SC2003 window, by VO");
        for vo in Vo::ALL {
            let series = &r.fig2_integrated[vo.name()];
            let last = series.last().copied().unwrap_or(0.0);
            println!(
                "  {:<9} {:>10.1} CPU-days (day 10: {:>8.1}, day 20: {:>8.1})",
                vo.name(),
                last,
                series[9],
                series[19]
            );
        }
        println!();
    }

    if want("fig3") {
        let r = get("sc2003");
        println!("Figure 3 — differential usage (time-averaged CPUs per day), by VO");
        println!(
            "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "day", "BTEV", "iVDGL", "LIGO", "SDSS", "USATLAS", "USCMS", "TOTAL"
        );
        for day in (0..30).step_by(3) {
            print!("  {day:<6}");
            for vo in Vo::ALL {
                print!(" {:>8.1}", r.fig3_differential[vo.name()][day]);
            }
            println!(" {:>8.1}", r.fig3_total[day]);
        }
        let peak = r.fig3_total.iter().cloned().fold(0.0, f64::max);
        println!("  peak daily average: {peak:.0} CPUs\n");
    }

    if want("fig4") {
        let r = get("cms");
        println!("Figure 4 — CMS cumulative usage over 150 days, by site (CPU-days)");
        let mut by_site = r.fig4_by_site.clone();
        by_site.sort_by(|a, b| grid3_simkit::stats::cmp_f64_desc(a.1, b.1));
        for (site, days) in &by_site {
            println!("  {site:<24} {days:>10.1}");
        }
        println!(
            "  cumulative total: {:.1} CPU-days across {} sites\n",
            r.fig4_cumulative.last().copied().unwrap_or(0.0),
            by_site.len()
        );
    }

    if want("fig5") {
        let r = get("sc2003");
        println!("Figure 5 — data consumed over the 30-day window, by VO");
        for (vo, tb) in &r.fig5_by_vo_tb {
            println!("  {vo:<9} {tb:>8.2} TB");
        }
        println!(
            "  TOTAL     {:>8.2} TB (paper: ≈100 TB, demonstrator-dominated)\n",
            r.fig5_cumulative_tb.last().copied().unwrap_or(0.0)
        );
    }

    if want("fig6") {
        let r = get("seven");
        println!("Figure 6 — jobs run on Grid3 by month");
        println!("{}", Grid3Report::render_series("", &r.fig6_monthly_jobs));
    }

    if want("table1") {
        let r = get("seven");
        println!("{}", r.render_table1());
    }

    if want("metrics") {
        let r = get("seven");
        println!("{}", r.render_metrics());
        println!("{}", r.render_efficiency());
        println!("Failure breakdown:");
        for (cause, n) in &r.failure_breakdown {
            println!("  {cause:<28} {n:>8}");
        }
        println!();
    }

    if want("gkload") {
        println!("Gatekeeper load law (§6.4): sustained 1-min load");
        println!(
            "  {:<14} {:>8} {:>8} {:>8} {:>8}",
            "managed jobs", "×1", "×2", "×3", "×4"
        );
        let sweep = gatekeeper_load_sweep();
        for jobs in [100usize, 250, 500, 750, 1_000, 1_500, 2_000] {
            print!("  {jobs:<14}");
            for factor in [1.0, 2.0, 3.0, 4.0] {
                let load = sweep
                    .iter()
                    .find(|(j, f, _)| *j == jobs && *f == factor)
                    .map(|(_, _, l)| *l)
                    .unwrap();
                print!(" {load:>8.1}");
            }
            println!();
        }
        println!("  (paper calibration: ~225 at ~1000 jobs, ×2–4 under staging)\n");
    }

    if want("variance") {
        println!("Seed robustness (30-day window, 10% scale, 8 seeds, one run per core):");
        let plan = CampaignPlan::single(
            "variance",
            ScenarioConfig::sc2003().with_seed(0).with_scale(0.1),
            (1..=8).collect(),
        );
        let outcome = run_with_threads(&plan, cores());
        let row = |name: &str, metric: &dyn Fn(&Grid3Report) -> f64| {
            let mut st = Summary::new();
            for r in &outcome.reports[0] {
                st.record(metric(r));
            }
            println!(
                "  {name:<24} mean {:>8.3}  σ {:>7.3}  min {:>8.3}  max {:>8.3}",
                st.mean(),
                st.std_dev(),
                st.min(),
                st.max()
            );
        };
        row("efficiency", &|r| r.metrics.overall_efficiency);
        row("peak concurrent jobs", &|r| r.metrics.peak_concurrent_jobs);
        row("site-problem fraction", &|r| {
            r.metrics.site_problem_fraction
        });
        row("total data (TB)", &|r| r.metrics.total_data.as_tb_f64());
        println!();
    }

    if want("ablation") {
        println!("§8 ablations (30-day window, 25% scale):");
        let base = ScenarioConfig::sc2003().with_seed(SEED).with_scale(0.25);
        let grid3 = base.clone().run();
        let srm = base.clone().with_srm(true).run();
        // §8's storage lesson: reservations turn mid-flight storage
        // deaths (a job loses hours of work when the archive fills under
        // it) into cheap fail-fast rejections at submit time.
        let storage_deaths = |r: &Grid3Report| count(r, "stage-out-failure");
        println!(
            "  {:<26} efficiency {:>5.1}%   mid-flight storage deaths {:>6}   fail-fast {:>6}",
            "Grid3 as operated",
            grid3.metrics.overall_efficiency * 100.0,
            storage_deaths(&grid3),
            count(&grid3, "disk-full"),
        );
        println!(
            "  {:<26} efficiency {:>5.1}%   mid-flight storage deaths {:>6}   fail-fast {:>6}",
            "+ SRM reservations",
            srm.metrics.overall_efficiency * 100.0,
            storage_deaths(&srm),
            count(&srm, "disk-full"),
        );
        // The install-pipeline ablation is dominated by *which* sites ship
        // latent faults, so average it over seeds.
        let plan = CampaignPlan::single("manual", base.clone(), (1..=6).collect()).with_variant(
            "automated",
            base.with_pipeline(grid3_pacman::install::InstallPipeline::automated()),
        );
        let outcome = run_with_threads(&plan, cores());
        let mis = |reports: &[Grid3Report]| -> (f64, f64) {
            let mean = |it: Vec<f64>| it.iter().sum::<f64>() / it.len() as f64;
            (
                mean(
                    reports
                        .iter()
                        .map(|r| count(r, "misconfiguration") as f64)
                        .collect(),
                ),
                mean(
                    reports
                        .iter()
                        .map(|r| r.metrics.overall_efficiency)
                        .collect(),
                ),
            )
        };
        let (mis_manual, _) = mis(&outcome.reports[0]);
        let (mis_auto, eff_auto) = mis(&outcome.reports[1]);
        println!(
            "  {:<26} efficiency {:>5.1}%   misconfig failures {:>6.0} (vs {:.0}; 6-seed mean)",
            "+ automated install",
            eff_auto * 100.0,
            mis_auto,
            mis_manual
        );
        println!();
    }

    if want("trace") {
        println!("Trace — every job's phases over the SC2003 window");
        eprintln!("[figures] running sc2003 scenario at full scale…");
        let mut sim = grid3_core::Grid3Engine::new(ScenarioConfig::sc2003().with_seed(SEED));
        sim.run();
        println!("  events processed: {}", sim.events_processed());
        println!("  (per-event-type cost ranking: figures -- heat)");
        let trace = sim.traces().chrome_trace();
        println!(
            "  jobs traced: {} (Chrome trace of their phases: {:.1} MB)",
            sim.traces().len(),
            trace.len() as f64 / 1e6
        );
        std::fs::write("results/trace_sc2003.json", trace).ok();
        println!("  wrote results/trace_sc2003.json\n");
    }

    if want("heat") {
        println!("Heat — ranked cost attribution (scale_out grid, 10× sites, profiler on)");
        eprintln!("[figures] running profiled scale_out scenario at full depth…");
        let artifacts = ScenarioConfig::scale_out()
            .with_seed(SEED)
            .with_profile(true)
            .run_full();
        let profile = artifacts.profile.expect("profiling was enabled");
        println!(
            "  {} events attributed across {} cost centers, {:.1} ms handler self time",
            profile.total_events(),
            profile.rows().len(),
            profile.total_ns() as f64 / 1e6
        );
        println!(
            "  {:<10} {:<18} {:>9} {:>9} {:>8} {:>10} {:>9} {:>7}",
            "subsystem", "event", "events", "ns/event", "fan-out", "allocs/ev", "bytes/ev", "share"
        );
        let rows = profile.rows();
        for row in rows.iter().take(12) {
            println!(
                "  {:<10} {:<18} {:>9} {:>9.0} {:>8.2} {:>10.2} {:>9.0} {:>6.1}%",
                row.center.subsystem,
                row.center.event,
                row.events,
                row.ns_per_event,
                row.fanout_per_event,
                row.allocs_per_event,
                row.bytes_per_event,
                row.share_pct
            );
        }
        let top: Vec<String> = rows
            .iter()
            .take(3)
            .map(|r| format!("{}/{}", r.center.subsystem, r.center.event))
            .collect();
        println!("  top-3 cost centers by ns/event: {}", top.join(", "));
        if rows.iter().all(|r| r.allocs_per_event == 0.0) {
            println!("  (allocs/bytes are 0: rebuild with --features grid3-simkit/count-allocs)");
        }
        std::fs::write("results/heat.json", profile.to_json()).ok();
        println!("  wrote results/heat.json\n");
    }

    if want("ops") {
        use grid3_core::ops::OpsEventKind;
        println!("Ops — operational narrative of the operated SC2003 window");
        eprintln!("[figures] running journaled sc2003_operated scenario at full scale…");
        let artifacts = ScenarioConfig::sc2003_operated()
            .with_seed(SEED)
            .with_ops_journal(true)
            .run_full();
        let records = artifacts.ops.records();
        let topo = grid3_core::topology::grid3_topology();
        let site_name = |site: Option<grid3_simkit::ids::SiteId>| -> String {
            match site {
                Some(s) => topo
                    .specs
                    .get(s.0 as usize)
                    .map(|spec| spec.name.clone())
                    .unwrap_or_else(|| s.to_string()),
                None => "(grid-wide)".to_string(),
            }
        };
        let kind_label = |k: &OpsEventKind| -> String {
            match k {
                OpsEventKind::FaultInjected { kind } => format!("fault {kind}"),
                OpsEventKind::TicketOpened { ticket, kind } => {
                    format!("ticket {ticket} opened ({kind})")
                }
                OpsEventKind::TicketResolved { ticket } => format!("ticket {ticket} resolved"),
                OpsEventKind::SiteSuspended => "suspended from brokering".to_string(),
                OpsEventKind::SiteReinstated => "reinstated".to_string(),
                OpsEventKind::SiteRepaired => "repaired (re-validated)".to_string(),
                OpsEventKind::StormDetected { ticket } => {
                    format!("failure storm detected (ticket {ticket})")
                }
                OpsEventKind::RescueDag { campaign, rearmed } => {
                    format!("rescue DAG on campaign {campaign} re-armed {rearmed} nodes")
                }
                OpsEventKind::WatchdogReap { job } => format!("watchdog reaped {job}"),
                OpsEventKind::CleanupScheduled => "disk cleanup sweep scheduled".to_string(),
            }
        };

        // Per-site state timeline: every suspension/reinstate/repair, in
        // site-id order, compressed to one line per site.
        println!("  per-site state timeline (suspensions ⇄ reinstatements):");
        let mut by_site: std::collections::BTreeMap<u32, Vec<String>> =
            std::collections::BTreeMap::new();
        for r in &records {
            let transition = match &r.kind {
                OpsEventKind::SiteSuspended => Some("⏸"),
                OpsEventKind::SiteReinstated => Some("▶"),
                OpsEventKind::SiteRepaired => Some("✔"),
                _ => None,
            };
            if let (Some(mark), Some(site)) = (transition, r.site) {
                by_site
                    .entry(site.0)
                    .or_default()
                    .push(format!("{mark}{}", &r.at.to_string()[5..16]));
            }
        }
        for (site, marks) in by_site.iter().take(16) {
            println!(
                "    {:<24} {}",
                site_name(Some(grid3_simkit::ids::SiteId(*site))),
                marks.join("  ")
            );
        }
        if by_site.len() > 16 {
            println!("    … and {} more sites", by_site.len() - 16);
        }

        // Efficiency by operational state at finish time (§7 m-eff split).
        println!("  efficiency by site state at job finish:");
        for s in &artifacts.report.site_state_efficiency {
            println!(
                "    {:<12} {:>8} completed {:>8} failed   {:>5.1}%",
                s.state,
                s.completed,
                s.failed,
                s.efficiency * 100.0
            );
        }

        // Incident log: the operator console scrollback.
        println!("  incident log ({} records; first 20):", records.len());
        for r in records.iter().take(20) {
            println!(
                "    {}  {:<24} {}",
                r.at,
                site_name(r.site),
                kind_label(&r.kind)
            );
        }
        std::fs::write("results/ops.jsonl", artifacts.ops.to_jsonl()).ok();
        println!("  wrote results/ops.jsonl\n");
    }

    eprintln!("[figures] done; JSON artifacts in results/");
}

/// `figures -- --scenario f.json [--trace log.jsonl]` /
/// `figures -- --trace log.jsonl`: run one scenario file (default:
/// the built-in sc2003) with an optional replayed submission log.
fn run_scenario_cli(scenario: Option<&Path>, trace: Option<&Path>) {
    let mut cfg = match scenario {
        Some(path) => {
            eprintln!("[figures] loading scenario {}…", path.display());
            grid3_core::dsl::load_config(path).unwrap_or_else(|e| {
                eprintln!("[figures] {e}");
                std::process::exit(1);
            })
        }
        None => ScenarioConfig::sc2003().with_seed(SEED),
    };
    if let Some(path) = trace {
        eprintln!("[figures] loading trace {}…", path.display());
        let log = grid3_core::dsl::JobTrace::load_jsonl(path).unwrap_or_else(|e| {
            eprintln!("[figures] {e}");
            std::process::exit(1);
        });
        eprintln!(
            "[figures] replaying {} jobs from {} identities",
            log.jobs.len(),
            log.identities().len()
        );
        cfg = cfg.with_trace(log);
    }
    let report = cfg.run();
    println!("{}", report.render_metrics());
    println!("{}", report.render_efficiency());
    let stem = scenario
        .and_then(|p| p.file_stem())
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace_replay".to_string());
    std::fs::create_dir_all("results").ok();
    let out = format!("results/scenario_{stem}.json");
    std::fs::write(&out, report.to_json()).ok();
    eprintln!("[figures] wrote {out}");
}

/// `figures -- campaign <dir>`: sweep every scenario file in a
/// directory across seeds and print the merged percentile bands.
fn run_campaign_dir_cli(dir: &Path) {
    let seeds: Vec<u64> = (1..=4).collect();
    eprintln!(
        "[figures] sweeping scenario files in {} across seeds {seeds:?}…",
        dir.display()
    );
    let outcome = grid3_core::campaign::run_campaign_dir(dir, seeds).unwrap_or_else(|e| {
        eprintln!("[figures] {e}");
        std::process::exit(1);
    });
    println!(
        "Campaign — {} runs across {} scenario files",
        outcome.summary.runs,
        outcome.summary.variants.len()
    );
    for v in &outcome.summary.variants {
        println!(
            "  {:<24} efficiency p50 {:>6.3} [p5 {:>6.3} … p95 {:>6.3}]  jobs p50 {:>9.0}",
            v.name, v.efficiency.p50, v.efficiency.p5, v.efficiency.p95, v.total_jobs.p50
        );
    }
    for s in &outcome.summary.skipped {
        eprintln!("[figures] skipped {}: {}", s.path, s.error);
    }
    std::fs::create_dir_all("results").ok();
    let json = serde_json::to_string(&outcome.summary).expect("summary serializes");
    std::fs::write("results/campaign.json", json).ok();
    eprintln!("[figures] wrote results/campaign.json");
}

/// `figures -- autopsy <file.snap>`: time-travel debugging for a run
/// that hung or panicked under a resumable campaign. Loads the run's
/// retained checkpoint snapshot, restores the engine at that instant,
/// and prints the mid-flight state: the simulation clock, queue depth,
/// and the accounting extracted from the restored engine — the grid as
/// it looked the moment before things went wrong.
fn autopsy_cli(path: &Path) {
    let snap = grid3_core::EngineSnapshot::read_from(path).unwrap_or_else(|e| {
        eprintln!("[figures] {}: {e}", path.display());
        std::process::exit(1);
    });
    let cfg = snap.scenario();
    println!("Autopsy — {}", path.display());
    println!(
        "  scenario: seed {}, {} days, scale {:.4}{}",
        cfg.seed,
        cfg.days,
        cfg.scale,
        if cfg.federation.is_some() {
            ", federated"
        } else {
            ""
        }
    );
    println!(
        "  captured at: sim day {:.2}  ({} events processed, {} pending)",
        snap.sim_now()
            .since(grid3_simkit::time::SimTime::EPOCH)
            .as_days_f64(),
        snap.events_processed(),
        snap.pending_events()
    );
    let engine = grid3_core::Grid3Engine::restore(snap);
    let report = Grid3Report::extract(&engine);
    println!("\nState at capture (accounting extracted from the restored engine):\n");
    println!("{}", report.render_metrics());
    std::fs::create_dir_all("results").ok();
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    let out = format!("results/autopsy_{stem}.json");
    std::fs::write(&out, report.to_json()).ok();
    eprintln!("[figures] wrote {out}");
}

/// `figures -- export-scenarios`: regenerate `scenarios/<name>.json`
/// from every built-in constructor (the files the conformance suite
/// asserts byte-identical).
fn export_scenarios() {
    std::fs::create_dir_all("scenarios").ok();
    for (name, cfg) in grid3_core::dsl::builtin_scenarios() {
        let path = format!("scenarios/{name}.json");
        std::fs::write(&path, grid3_core::dsl::export_config(&cfg))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[figures] wrote {path}");
    }
}

/// `figures -- smoke-scenarios`: load every committed scenario file and
/// run one sim-hour of each (the CI gate that no file under `scenarios/`
/// can rot).
fn smoke_scenarios() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir("scenarios")
        .unwrap_or_else(|e| {
            eprintln!("[figures] cannot read scenarios/: {e}");
            std::process::exit(1);
        })
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    for path in &paths {
        let cfg = grid3_core::dsl::load_config(path).unwrap_or_else(|e| {
            eprintln!("[figures] {}: {e}", path.display());
            std::process::exit(1);
        });
        let report = cfg.with_horizon_hours(1).run();
        println!(
            "  {:<28} 1 sim-hour OK ({} job records)",
            path.file_name().unwrap_or_default().to_string_lossy(),
            report.total_jobs
        );
    }
    eprintln!("[figures] smoked {} scenario files", paths.len());
}

/// Worker threads for the multi-run experiments: one per available core.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn count(r: &Grid3Report, cause: &str) -> u64 {
    r.failure_breakdown
        .iter()
        .find(|(c, _)| c == cause)
        .map(|(_, n)| *n)
        .unwrap_or(0)
}
