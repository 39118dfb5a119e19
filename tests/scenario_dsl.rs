//! Differential conformance suite for the declarative scenario DSL.
//!
//! The lock: every built-in scenario constructor is exported to a
//! committed file under `scenarios/`, and that file — re-loaded through
//! the DSL — must reproduce the constructor's golden hash bit-for-bit.
//! Schema drift, default drift, or converter asymmetry all surface here
//! as either a byte diff against the committed file or a golden-hash
//! mismatch. Run just these with `cargo test --release -- scenario_dsl`
//! (the CI release job does).

use grid3_core::dsl::{self, DslError, JobTrace, TraceJob};
use grid3_core::resilience::ResilienceConfig;
use grid3_core::scenario::{CampaignSpec, ScenarioConfig, StormSpec};
use grid3_core::workflow::mop::CmsSimulator;
use grid3_pacman::install::InstallPipeline;
use grid3_simkit::dist::{ArrivalProcess, DurationDist, SizeDist};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::vo::UserClass;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Same FNV-1a as `tests/determinism.rs`: stable across platforms and
/// sensitive to every byte of the report JSON.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The golden table of `tests/determinism.rs`, keyed by scenario name:
/// the DSL-loaded scenario file must land on the very same hashes the
/// constructors do (identical in debug and release builds).
const GOLDEN: [(&str, u64, u64); 9] = [
    ("sc2003", 2003, 0x9a81fc63ba6ab37f),
    ("sc2003_operated", 2003, 0x4890551a29889f49),
    ("sc2003", 7, 0x26e1d0268b73dbe9),
    ("sc2003_operated", 7, 0xf8331cf49d875fc1),
    ("sc2003", 42, 0x3bd788fab98bd8f6),
    ("sc2003_operated", 42, 0xebb4869a66a3aa75),
    ("sc2003_operated", 1234, 0x55138bc19796295f),
    ("sc2003_chaos", 2003, 0x428edf429c32422b),
    ("sc2003_federated", 2003, 0x11d025ba3c2cec18),
];

fn config_json(cfg: &ScenarioConfig) -> String {
    serde_json::to_string(cfg).expect("config serializes")
}

// ---------------------------------------------------------------------------
// Conformance: committed files ⇄ constructors ⇄ goldens
// ---------------------------------------------------------------------------

/// Every built-in constructor's export is byte-identical to its
/// committed `scenarios/<name>.json` (regenerate with
/// `figures -- export-scenarios` after an intentional schema change).
#[test]
fn scenario_dsl_exports_match_committed_files() {
    for (name, cfg) in dsl::builtin_scenarios() {
        let path = scenarios_dir().join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing committed scenario {}: {e}", path.display()));
        assert_eq!(
            dsl::export_config(&cfg),
            committed,
            "scenarios/{name}.json drifted from its constructor"
        );
    }
}

/// Loading a committed file reproduces the constructor's config exactly,
/// and re-exporting the loaded config reproduces the file bytes — the
/// converter is a bijection on the canonical corpus.
#[test]
fn scenario_dsl_committed_files_load_to_constructor_configs() {
    for (name, cfg) in dsl::builtin_scenarios() {
        let path = scenarios_dir().join(format!("{name}.json"));
        let loaded = dsl::load_config(&path).expect("committed scenario loads");
        assert_eq!(
            config_json(&loaded),
            config_json(&cfg),
            "{name}: loaded config differs from constructor"
        );
        assert_eq!(
            dsl::export_config(&loaded),
            std::fs::read_to_string(&path).expect("readable"),
            "{name}: load → export is not idempotent"
        );
    }
}

/// The headline differential check: every golden hash of
/// `tests/determinism.rs` reproduces from the DSL-loaded scenario file.
#[test]
fn scenario_dsl_goldens_reproduce_from_loaded_files() {
    for (name, seed, expected) in GOLDEN {
        let path = scenarios_dir().join(format!("{name}.json"));
        let cfg = dsl::load_config(&path)
            .expect("committed scenario loads")
            .with_scale(0.02)
            .with_seed(seed);
        let report = cfg.run();
        let hash = fnv1a64(report.to_json().as_bytes());
        assert_eq!(
            hash, expected,
            "{name} seed {seed}: DSL-loaded run hashed {hash:#018x}, golden {expected:#018x}"
        );
    }
}

/// Satellite 4: the minimal document `{}` is exactly the
/// `ScenarioConfig::default()` baseline — defaults live in one place.
#[test]
fn scenario_dsl_minimal_doc_is_the_default_config() {
    let cfg = dsl::parse_str("{}").expect("empty object parses");
    assert_eq!(config_json(&cfg), config_json(&ScenarioConfig::default()));
    // And null-valued fields count as absent, not as overrides.
    let nulled = dsl::parse_str(r#"{"seed": null, "federation": null, "trace": null}"#)
        .expect("nulls parse");
    assert_eq!(
        config_json(&nulled),
        config_json(&ScenarioConfig::default())
    );
}

/// The two data-only CMS reconstruction scenarios are pure data — no
/// constructor exists for them — and run green from their committed
/// files.
#[test]
fn scenario_dsl_cms_data_scenarios_run_green() {
    for name in ["cms_igt_1m", "cms_us_eu_split"] {
        let path = scenarios_dir().join(format!("{name}.json"));
        let cfg = dsl::load_config(&path).expect("CMS scenario loads");
        assert!(
            cfg.workloads.as_ref().is_some_and(|w| !w.is_empty()),
            "{name}: carries its own workload table"
        );
        assert!(!cfg.campaigns.is_empty(), "{name}: carries a campaign");
        let report = cfg.with_scale(0.05).with_horizon_hours(48).run();
        assert!(report.total_jobs > 0, "{name}: no jobs ran");
    }
    let split = dsl::load_config(&scenarios_dir().join("cms_us_eu_split.json")).unwrap();
    assert_eq!(
        split.federation.expect("federated").grids.len(),
        2,
        "the US/EU split is a two-grid federation"
    );
}

/// `campaign <dir>` sweeps are data-driven: the committed scenario
/// directory lowers to a campaign plan with one variant per file, in
/// sorted filename order regardless of directory-listing order.
#[test]
fn scenario_dsl_campaign_plan_builds_from_scenario_dir() {
    let plan = grid3_core::campaign::plan_from_dir(&scenarios_dir(), vec![1, 2])
        .expect("scenario dir lowers to a plan")
        .plan;
    assert_eq!(plan.variants.len(), 9, "one variant per committed file");
    assert_eq!(plan.len(), 18);
    let names: Vec<&str> = plan.variants.iter().map(|v| v.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "variants follow filename order");
    assert!(names.contains(&"cms_igt_1m") && names.contains(&"sc2003"));
    // An empty/absent directory is a typed error, not a panic.
    assert!(matches!(
        grid3_core::campaign::plan_from_dir(Path::new("/nonexistent"), vec![1]),
        Err(DslError::Io { .. })
    ));
}

// ---------------------------------------------------------------------------
// Malformed inputs: typed errors naming the offending field, no panics
// ---------------------------------------------------------------------------

#[test]
fn scenario_dsl_unknown_field_is_a_typed_error() {
    let err = dsl::parse_str(r#"{"sead": 1}"#).unwrap_err();
    assert_eq!(err.field_path(), Some("sead"));
    assert!(err.to_string().contains("unknown field"), "{err}");
    // Nested objects name the full dotted path.
    let err = dsl::parse_str(r#"{"demo": {"enabled": true, "stes": 3}}"#).unwrap_err();
    assert_eq!(err.field_path(), Some("demo.stes"));
}

#[test]
fn scenario_dsl_bad_vo_name_is_a_typed_error() {
    let text = r#"{"federation": {"grids": [{"name": "g", "admits": ["CDF"]}]}}"#;
    let err = dsl::parse_str(text).unwrap_err();
    assert_eq!(err.field_path(), Some("federation.grids[0].admits[0]"));
    assert!(err.to_string().contains("unknown VO `CDF`"), "{err}");
}

#[test]
fn scenario_dsl_negative_arrival_rate_is_a_typed_error() {
    let text = r#"{"workloads": [{"class": "USCMS",
                    "arrivals": {"Poisson": {"per_day": -3.0}}}]}"#;
    let err = dsl::parse_str(text).unwrap_err();
    assert_eq!(err.field_path(), Some("workloads[0].arrivals.per_day"));
    assert!(err.to_string().contains("-3"), "{err}");
}

#[test]
fn scenario_dsl_truncated_file_is_a_syntax_error_with_position() {
    match dsl::parse_str("{\"seed\": 2003,\n  \"days\":").unwrap_err() {
        DslError::Syntax { line, .. } => assert_eq!(line, 2, "error on the truncated line"),
        other => panic!("expected a syntax error, got {other}"),
    }
}

#[test]
fn scenario_dsl_malformed_documents_never_panic() {
    let cases: &[(&str, &str)] = &[
        (r#"{"scale": 0.0}"#, "scale"),
        (r#"{"scale": -1.5}"#, "scale"),
        (r#"{"site_replicas": 0}"#, "site_replicas"),
        (r#"{"queue": "lifo"}"#, "queue"),
        (r#"{"telemetry": true}"#, "telemetry"),
        (r#"{"pipeline": "manual"}"#, "pipeline"),
        (r#"{"resilience": "heroic"}"#, "resilience"),
        (r#"{"seed": "lots"}"#, "seed"),
        (r#"{"days": -4}"#, "days"),
        (
            r#"{"monitor_interval_mins": 5, "monitor_interval_us": 9}"#,
            "monitor_interval_us",
        ),
        (r#"{"chaos": {}}"#, "chaos"),
        (r#"{"chaos": {"plan": [], "rates": "grid3"}}"#, "chaos"),
        (r#"{"chaos": {"rates": "mild"}}"#, "chaos.rates"),
        (r#"{"trace": {}}"#, "trace"),
        (r#"{"trace": {"path": "a", "jobs": []}}"#, "trace"),
        (r#"{"storms": [{"day": 1}]}"#, "storms[0]"),
        (
            r#"{"storms": [{"day": 1, "hour": 2, "outage_hours": 3, "sites": 7}]}"#,
            "storms[0].sites",
        ),
        (r#"{"campaigns": [{"events": 10}]}"#, "campaigns[0]"),
        (
            r#"{"campaigns": [{"dataset": "d", "events": 0}]}"#,
            "campaigns[0].events",
        ),
        (
            r#"{"campaigns": [{"dataset": "d", "events": 5, "simulator": "geant"}]}"#,
            "campaigns[0].simulator",
        ),
        (r#"{"workloads": [{}]}"#, "workloads[0]"),
        (r#"{"workloads": [{"class": "CDF"}]}"#, "workloads[0].class"),
        (
            r#"{"workloads": [{"class": "LIGO", "users": 0}]}"#,
            "workloads[0].users",
        ),
        (
            r#"{"workloads": [{"class": "LIGO", "admin_share": 1.5}]}"#,
            "workloads[0].admin_share",
        ),
        (
            r#"{"workloads": [{"class": "LIGO", "walltime_margin": 0.0}]}"#,
            "workloads[0].walltime_margin",
        ),
        (r#"{"federation": {"grids": []}}"#, "federation.grids"),
        (
            r#"{"federation": {"grids": [{"backend": "vdt"}]}}"#,
            "federation.grids[0]",
        ),
        (
            r#"{"federation": {"grids": [{"name": "g", "backend": "condor"}]}}"#,
            "federation.grids[0].backend",
        ),
        (
            r#"{"trace": {"jobs": [{"class": "LIGO", "user": "u"}]}}"#,
            "trace.jobs[0]",
        ),
        (
            r#"{"trace": {"jobs": [{"at_us": 1, "class": "LIGO", "user": "u",
            "runtime_us": 5, "walltime_factor": 0.0}]}}"#,
            "trace.jobs[0].walltime_factor",
        ),
        ("[1, 2, 3]", ""),
        // Documents the engine cannot run: a zero monitor interval would
        // reschedule its tick at the same instant forever, and the demo
        // transfer matrix needs two distinct sites.
        (
            r#"{"days": 1, "scale": 0.01, "monitor_interval_mins": 0}"#,
            "monitor_interval_mins",
        ),
        (
            r#"{"days": 1, "scale": 0.01, "monitor_interval_us": 0}"#,
            "monitor_interval_us",
        ),
        (
            r#"{"days": 1, "scale": 0.01, "demo": {"enabled": true, "sites": 1}}"#,
            "demo.sites",
        ),
        (
            r#"{"days": 1, "scale": 0.01, "demo": {"enabled": true, "sites": 0}}"#,
            "demo.sites",
        ),
        // Counts of minutes, hours and days whose microseconds overflow
        // the simulation clock's u64.
        (
            r#"{"days": 1, "scale": 0.01, "monitor_interval_mins": 1000000000000}"#,
            "monitor_interval_mins",
        ),
        (
            r#"{"days": 300000000000, "scale": 0.01, "chaos": {"rates": "grid3"}}"#,
            "days",
        ),
        (
            r#"{"days": 1, "scale": 0.01, "horizon_hours": 10000000000000}"#,
            "horizon_hours",
        ),
        (
            r#"{"federation": {"staleness_mins": 1000000000000, "grids": [{"name": "g"}]}}"#,
            "federation.staleness_mins",
        ),
        (
            r#"{"storms": [{"day": 300000000000, "hour": 0, "outage_hours": 1, "sites": [0]}]}"#,
            "storms[0].day",
        ),
        (
            r#"{"storms": [{"day": 0, "hour": 10000000000000, "outage_hours": 1, "sites": [0]}]}"#,
            "storms[0].hour",
        ),
        (
            r#"{"storms": [{"day": 213503982, "hour": 9, "outage_hours": 1, "sites": [0]}]}"#,
            "storms[0].hour",
        ),
        (
            r#"{"storms": [{"day": 0, "hour": 0, "outage_hours": 10000000000000, "sites": [0]}]}"#,
            "storms[0].outage_hours",
        ),
        (
            r#"{"campaigns": [{"dataset": "d", "events": 5, "submit_day": 300000000000}]}"#,
            "campaigns[0].submit_day",
        ),
    ];
    for (text, path) in cases {
        match dsl::parse_str(text) {
            Err(err) => assert_eq!(
                err.field_path(),
                Some(*path),
                "case {text}: wrong path in {err}"
            ),
            Ok(_) => panic!("case {text}: expected a typed error"),
        }
    }
    // File-level failures are typed too.
    assert!(matches!(
        dsl::load_config(Path::new("/nonexistent/scenario.json")),
        Err(DslError::Io { .. })
    ));
    // Nesting past the parser's 128-level bound is a positioned syntax
    // error, not a stack overflow. Under the document object, the 128th
    // `[` opens level 129: the parser gives up at its column, 137.
    let deep = format!(
        "{{\"seed\": {}1{}}}",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    match dsl::parse_str(&deep) {
        Err(DslError::Syntax { line, column, .. }) => assert_eq!((line, column), (1, 137)),
        other => panic!("deep nesting: expected a syntax error, got {other:?}"),
    }
    let dir = std::env::temp_dir().join(format!("grid3_dsl_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, &deep).expect("write deep document");
    let loaded = dsl::load_config(&path);
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(loaded, Err(DslError::Syntax { .. })));
}

// ---------------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------------

/// A deterministic synthetic submission log (simple SplitMix-style
/// generator; no wall-clock anywhere).
fn synthetic_trace(n: usize) -> JobTrace {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let classes = [
        UserClass::Uscms,
        UserClass::Usatlas,
        UserClass::Ligo,
        UserClass::Sdss,
    ];
    let mut jobs = Vec::with_capacity(n);
    let mut at_us: u64 = 0;
    for _ in 0..n {
        at_us += 1_000_000 + next() % 30_000_000;
        let class = classes[(next() % classes.len() as u64) as usize];
        let output_bytes = next() % 500_000_000;
        jobs.push(TraceJob {
            at: SimTime::EPOCH + SimDuration::from_micros(at_us),
            class,
            user: format!("op{:02}", next() % 24),
            runtime: SimDuration::from_secs(300 + next() % 5_400),
            input_bytes: next() % 2_000_000_000,
            output_bytes,
            scratch_bytes: output_bytes,
            staged_files: (next() % 3) as u32,
            needs_outbound: next() % 2 == 0,
            registers_output: next() % 3 == 0,
            walltime_factor: 2.0,
            affinity: (next() % 100) as f64 / 100.0,
        });
    }
    JobTrace { jobs }
}

fn trace_config(trace: JobTrace) -> ScenarioConfig {
    // Workload table emptied: every submission comes from the log.
    ScenarioConfig::sc2003()
        .with_days(6)
        .with_demo(false)
        .with_workloads(Vec::new())
        .with_trace(trace)
        .with_seed(11)
}

/// Satellite 3, part 1: a 10k-job log replayed twice yields
/// byte-identical reports (trace jobs draw no randomness at all), and
/// the report lands on a pinned hash, so neither the user ids the log's
/// `(class, user)` identities get nor the order its jobs arrive in can
/// change unnoticed.
#[test]
fn scenario_dsl_trace_replay_is_byte_deterministic() {
    const PINNED: u64 = 0x784b6585e95e532b;
    let trace = synthetic_trace(10_000);
    let a = trace_config(trace.clone()).run();
    let b = trace_config(trace).run();
    assert!(a.total_jobs >= 10_000, "every logged job produced a record");
    assert_eq!(a.to_json().as_bytes(), b.to_json().as_bytes());
    let got = fnv1a64(a.to_json().as_bytes());
    assert_eq!(got, PINNED, "trace replay report hash {got:#018x}");
}

/// Satellite 3, part 2: replay is thread-count independent through the
/// campaign runner — 1 worker and 4 workers serialize the same summary.
#[test]
fn scenario_dsl_trace_replay_is_thread_count_independent() {
    use grid3_core::campaign::{run_with_threads, CampaignPlan};
    let plan = CampaignPlan::single("replay", trace_config(synthetic_trace(2_000)), vec![1, 2]);
    let one = run_with_threads(&plan, 1);
    let four = run_with_threads(&plan, 4);
    let json = |o: &grid3_core::campaign::CampaignOutcome| {
        serde_json::to_string(&o.summary).expect("summary serializes")
    };
    assert_eq!(json(&one).as_bytes(), json(&four).as_bytes());
}

/// Replayed trace jobs are rebuilt from the config on restore, not
/// carried in the snapshot: a replay cut mid-run — at an instant two
/// logged jobs share, with another same-instant pair already delivered —
/// goes through the binary format and finishes on the uninterrupted
/// report byte for byte.
#[test]
fn scenario_dsl_trace_replay_survives_a_snapshot_cut() {
    let mut trace = synthetic_trace(2_000);
    trace.jobs[400].at = trace.jobs[399].at;
    trace.jobs[1_001].at = trace.jobs[1_000].at;
    let cut = trace.jobs[1_000].at;
    let cfg = trace_config(trace);
    let uninterrupted = cfg.run().to_json();

    let mut engine = grid3_core::Grid3Engine::new(cfg);
    engine.run_until(cut);
    let bytes = engine.snapshot().to_bytes();
    drop(engine);
    let snap = grid3_core::EngineSnapshot::from_bytes(&bytes).expect("snapshot parses");
    assert!(snap.sim_now() < cut, "the pair at the cut is still pending");
    let mut engine = grid3_core::Grid3Engine::restore(snap);
    engine.run();
    let resumed = grid3_core::Grid3Report::extract(&engine).to_json();
    assert_eq!(resumed.as_bytes(), uninterrupted.as_bytes());
}

/// The JSONL front end round-trips, skips comments/blanks, and names
/// the offending log line in errors.
#[test]
fn scenario_dsl_trace_jsonl_round_trips_and_reports_line_numbers() {
    let trace = synthetic_trace(500);
    let text = trace.to_jsonl();
    assert_eq!(JobTrace::parse_jsonl(&text).expect("round trip"), trace);

    let commented = format!("# submission log\n\n{text}");
    assert_eq!(
        JobTrace::parse_jsonl(&commented).expect("comments skipped"),
        trace
    );

    // Line 3 carries the defect (line 1 is a comment, line 2 is valid).
    let bad = "# log\n\
               {\"at_us\": 1, \"class\": \"LIGO\", \"user\": \"u\", \"runtime_us\": 5}\n\
               {\"at_us\": 2, \"class\": \"CDF\", \"user\": \"u\", \"runtime_us\": 5}\n";
    let err = JobTrace::parse_jsonl(bad).unwrap_err();
    assert_eq!(err.field_path(), Some("line 3.class"));

    let truncated = "{\"at_us\": 1, \"class\": \"LIGO\", \"user\": \"u\", \"runtime_us\": 5}\n\
                     {\"at_us\": 2,";
    match JobTrace::parse_jsonl(truncated).unwrap_err() {
        DslError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("expected syntax error, got {other}"),
    }
}

/// A scenario file can reference its log by path, resolved relative to
/// the scenario file's own directory.
#[test]
fn scenario_dsl_trace_path_resolves_relative_to_scenario_file() {
    let dir = std::env::temp_dir().join("grid3_dsl_trace_path_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = synthetic_trace(40);
    std::fs::write(dir.join("log.jsonl"), trace.to_jsonl()).expect("write log");
    std::fs::write(
        dir.join("scenario.json"),
        r#"{"days": 3, "demo": {"enabled": false}, "workloads": [], "trace": {"path": "log.jsonl"}}"#,
    )
    .expect("write scenario");
    let cfg = dsl::load_config(&dir.join("scenario.json")).expect("loads");
    assert_eq!(cfg.trace.as_ref().expect("trace loaded"), &trace);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property-based round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ScenarioConfig` → JSON → `ScenarioConfig` with every block set:
    /// exporting a config and loading it back yields an equal config,
    /// and exporting that again yields the same bytes, for randomized
    /// knob settings across campaigns, storms, workloads with Poisson
    /// arrivals, an inline trace, both pipeline presets, the resilience
    /// preset, the demo block and a 30-minute monitor sweep.
    #[test]
    fn scenario_dsl_docs_round_trip_through_json(
        seed in 0u64..1_000_000, days in 1u64..400, scale_milli in 1u64..3_000,
        demo in any::<bool>(), cmsim in any::<bool>(), replicas in 1usize..4,
        srm in any::<bool>(), audit in any::<bool>(), automated in any::<bool>(),
        storm_day in 0u64..30, storm_sites in 1u32..6,
        per_day in 1u64..500, users in 1u32..40, events in 1u64..100_000,
        at_us in 0u64..10_000_000_000, affinity_pct in 0u64..101,
    ) {
        let cfg = ScenarioConfig {
            seed,
            days,
            scale: scale_milli as f64 / 1000.0,
            include_demo: demo,
            demo_sites: 5,
            demo_daily_target_tb: 2,
            monitor_interval: SimDuration::from_mins(30),
            pipeline: if automated {
                InstallPipeline::automated()
            } else {
                InstallPipeline::grid3_default()
            },
            srm_reservations: srm,
            campaigns: vec![CampaignSpec {
                dataset: "prop_dataset".into(),
                events,
                events_per_job: 250,
                simulator: if cmsim { CmsSimulator::Cmsim } else { CmsSimulator::Oscar },
                submit_day: storm_day,
                retries: 2,
                throttle: 40,
                rescue_dags: 1,
            }],
            resilience: Some(ResilienceConfig::grid3_default()),
            storms: vec![StormSpec {
                day: storm_day,
                hour: 4,
                outage_hours: 6,
                sites: (0..storm_sites).collect(),
            }],
            site_replicas: replicas,
            audit,
            workloads: Some(vec![grid3_core::apps::workloads::WorkloadSpec {
                class: UserClass::Uscms,
                users,
                admin_share: 0.5,
                monthly_jobs: vec![events, events / 2],
                runtime: DurationDist::Uniform {
                    lo: SimDuration::from_mins(10),
                    hi: SimDuration::from_hours(4),
                },
                input: SizeDist::Fixed(1_000_000),
                output: SizeDist::Fixed(2_000_000),
                staged_files: 1,
                needs_outbound: demo,
                registers_output: srm,
                walltime_margin: 2.5,
                walltime_underestimate_prob: 0.1,
                vo_affinity: affinity_pct as f64 / 100.0,
                sc2003_surge_frac: 0.0,
                arrivals: Some(ArrivalProcess::Poisson { per_day: per_day as f64 }),
            }]),
            trace: Some(JobTrace {
                jobs: vec![TraceJob {
                    at: SimTime::EPOCH + SimDuration::from_micros(at_us),
                    class: UserClass::Ligo,
                    user: "trace-user".into(),
                    runtime: SimDuration::from_secs(1800),
                    input_bytes: 5_000_000,
                    output_bytes: 9_000_000,
                    scratch_bytes: 9_000_000,
                    staged_files: 2,
                    needs_outbound: true,
                    registers_output: false,
                    walltime_factor: 3.0,
                    affinity: affinity_pct as f64 / 100.0,
                }],
            }),
            ..ScenarioConfig::default()
        };
        let text = dsl::export_config(&cfg);
        let back = dsl::parse_str(&text).expect("export re-parses");
        prop_assert_eq!(config_json(&back), config_json(&cfg));
        prop_assert_eq!(dsl::export_config(&back), text);
    }

    /// `ScenarioConfig` → JSON → `ScenarioConfig` is the identity on
    /// configs reachable from the builders.
    #[test]
    fn scenario_dsl_configs_survive_the_full_cycle(
        seed in 0u64..100_000, days in 1u64..200, scale_milli in 1u64..2_000,
        demo in any::<bool>(), srm in any::<bool>(), operated in any::<bool>(),
    ) {
        let cfg = if operated {
            ScenarioConfig::sc2003_operated()
        } else {
            ScenarioConfig::sc2003()
        }
        .with_seed(seed)
        .with_days(days)
        .with_scale(scale_milli as f64 / 1000.0)
        .with_demo(demo)
        .with_srm(srm);
        let text = dsl::export_config(&cfg);
        let back = dsl::parse_str(&text).expect("export re-parses");
        prop_assert_eq!(config_json(&back), config_json(&cfg));
        // Export is stable: exporting the round-tripped config is a
        // byte-identical document.
        prop_assert_eq!(dsl::export_config(&back), text);
    }

    /// Trace logs survive `TraceJob` ⇄ JSONL for randomized job shapes.
    #[test]
    fn scenario_dsl_trace_jobs_round_trip_through_jsonl(
        at_us in 0u64..100_000_000_000, runtime_s in 1u64..100_000,
        input in 0u64..10_000_000_000, output in 0u64..10_000_000_000,
        files in 0u32..5, outbound in any::<bool>(), registers in any::<bool>(),
        class_i in 0usize..7, affinity_pct in 0u64..101,
    ) {
        let job = TraceJob {
            at: SimTime::EPOCH + SimDuration::from_micros(at_us),
            class: UserClass::ALL[class_i],
            user: format!("user-{at_us}"),
            runtime: SimDuration::from_secs(runtime_s),
            input_bytes: input,
            output_bytes: output,
            scratch_bytes: output / 2,
            staged_files: files,
            needs_outbound: outbound,
            registers_output: registers,
            walltime_factor: 1.5,
            affinity: affinity_pct as f64 / 100.0,
        };
        let trace = JobTrace { jobs: vec![job] };
        let back = JobTrace::parse_jsonl(&trace.to_jsonl()).expect("round trip");
        prop_assert_eq!(back, trace);
    }
}
