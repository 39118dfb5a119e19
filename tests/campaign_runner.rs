//! The parallel campaign runner must be a pure reordering of the serial
//! loop: same reports, same merged summary, for any thread count.

use grid3_sim::core::campaign::{run_with_threads, CampaignPlan};
use grid3_sim::core::scenario::ScenarioConfig;

fn plan() -> CampaignPlan {
    // 8 seeds at a tiny scale: big enough to exercise the merge, small
    // enough for a debug-profile test run.
    let cfg = ScenarioConfig::sc2003()
        .with_scale(0.004)
        .with_days(6)
        .with_demo(false);
    CampaignPlan::single("sc2003-tiny", cfg, vec![1, 2, 3, 5, 8, 13, 21, 34])
}

#[test]
fn parallel_campaign_matches_serial_loop() {
    let plan = plan();
    let serial = run_with_threads(&plan, 1);
    let parallel = run_with_threads(&plan, 4);

    // Every per-run report identical and in plan order.
    assert_eq!(serial.reports.len(), 1);
    assert_eq!(parallel.reports[0].len(), 8);
    for (s, p) in serial.reports[0].iter().zip(&parallel.reports[0]) {
        assert_eq!(s.to_json(), p.to_json());
    }
    // And therefore an identical merged summary.
    assert_eq!(
        serde_json::to_string(&serial.summary).unwrap(),
        serde_json::to_string(&parallel.summary).unwrap()
    );
}

#[test]
fn campaign_summary_is_independent_of_thread_count() {
    let plan = plan();
    let reference = serde_json::to_string(&run_with_threads(&plan, 1).summary).unwrap();
    for threads in [1, 2, 4] {
        let got = serde_json::to_string(&run_with_threads(&plan, threads).summary).unwrap();
        assert_eq!(got, reference, "summary diverged at {threads} threads");
    }
}

#[test]
fn campaign_bands_cover_the_seed_spread() {
    let plan = plan();
    let outcome = run_with_threads(&plan, 2);
    let v = &outcome.summary.variants[0];
    assert_eq!(v.seeds.len(), 8);
    assert_eq!(outcome.summary.runs, 8);
    // The band brackets every per-run efficiency.
    for r in &outcome.reports[0] {
        let e = r.metrics.overall_efficiency;
        assert!(v.efficiency.min <= e && e <= v.efficiency.max);
    }
    assert!(v.efficiency.p5 <= v.efficiency.p50 && v.efficiency.p50 <= v.efficiency.p95);
    assert!(v.total_jobs.min > 0.0);
}

#[test]
fn mixed_validity_scenario_dir_skips_bad_files_and_sweeps_the_rest() {
    // One malformed file must not abort the sweep: it is recorded as a
    // typed per-file skip in the summary and the valid scenarios run.
    use grid3_sim::core::campaign::{plan_from_dir, run_campaign_dir};
    let dir = std::env::temp_dir().join(format!("grid3-mixed-dir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let tiny = ScenarioConfig::sc2003()
        .with_scale(0.004)
        .with_days(5)
        .with_demo(false);
    std::fs::write(
        dir.join("a_good.json"),
        grid3_sim::core::dsl::export_config(&tiny),
    )
    .expect("write valid scenario");
    std::fs::write(dir.join("b_bad.json"), r#"{"sead": 1}"#).expect("write invalid scenario");
    std::fs::write(
        dir.join("c_good.json"),
        grid3_sim::core::dsl::export_config(&tiny.clone().with_srm(true)),
    )
    .expect("write valid scenario");
    std::fs::write(dir.join("notes.txt"), "not a scenario").expect("write decoy");

    // The graceful planner keeps the valid files and types the error.
    let dir_plan = plan_from_dir(&dir, vec![1]).expect("plan builds");
    let names: Vec<&str> = dir_plan
        .plan
        .variants
        .iter()
        .map(|v| v.name.as_str())
        .collect();
    assert_eq!(names, ["a_good", "c_good"], "valid files in filename order");
    assert_eq!(dir_plan.skipped.len(), 1);
    let (bad_path, err) = &dir_plan.skipped[0];
    assert!(bad_path.ends_with("b_bad.json"));
    assert_eq!(
        err.field_path(),
        Some("sead"),
        "typed error names the field"
    );

    // The sweep itself degrades the same way and surfaces the skip in
    // the summary.
    let outcome = run_campaign_dir(&dir, vec![1]).expect("sweep runs");
    assert_eq!(outcome.summary.variants.len(), 2);
    assert_eq!(outcome.summary.runs, 2);
    assert_eq!(outcome.summary.skipped.len(), 1);
    assert!(outcome.summary.skipped[0].path.ends_with("b_bad.json"));
    assert!(
        outcome.summary.skipped[0].error.contains("unknown field"),
        "{}",
        outcome.summary.skipped[0].error
    );

    // An all-invalid directory is still a typed error, not an empty sweep.
    let all_bad = dir.join("all_bad");
    std::fs::create_dir_all(&all_bad).expect("mkdir");
    std::fs::write(all_bad.join("only.json"), "{").expect("write");
    assert!(run_campaign_dir(&all_bad, vec![1]).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
