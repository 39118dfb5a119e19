//! The run's own instruments, end to end: a one-day run must yield a
//! valid Chrome trace of the three traced job phases (engine, gram,
//! gridftp) built from the trace store, and the cost profiler must
//! account for every dispatch. The trace survives a snapshot cut.

use grid3_sim::core::{CampaignSpec, Grid3Engine, ScenarioConfig};
use grid3_sim::monitoring::trace::SubmitSideId;
use grid3_sim::simkit::time::SimTime;
use grid3_sim::workflow::mop::CmsSimulator;
use serde_json::Value;
use std::collections::BTreeSet;

/// One day of SC2003 with a small CMSIM campaign, so every traced phase
/// (engine, gram, gridftp) and DAGMan see real work inside the window.
fn one_day() -> ScenarioConfig {
    ScenarioConfig::sc2003()
        .with_scale(0.05)
        .with_seed(17)
        .with_days(1)
        .with_demo(false)
        .with_campaign(CampaignSpec {
            dataset: "trace_test".into(),
            events: 150,
            events_per_job: 50,
            simulator: CmsSimulator::Cmsim,
            submit_day: 0,
            retries: 3,
            throttle: 9,
            rescue_dags: 0,
        })
}

/// The [`one_day`] run.
fn run_one_day() -> Grid3Engine {
    let mut sim = Grid3Engine::new(one_day());
    sim.run();
    sim
}

/// The `traceEvents` array of a Chrome trace document.
fn trace_events(trace: &str) -> Vec<Value> {
    let parsed: Value = serde_json::from_str(trace).expect("chrome trace must be valid JSON");
    parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn chrome_trace_is_valid_json_with_three_subsystems() {
    let sim = run_one_day();
    let events = trace_events(&sim.traces().chrome_trace());
    assert!(!events.is_empty(), "no phases traced");
    let cats: BTreeSet<String> = events
        .iter()
        .map(|e| {
            e.get("cat")
                .and_then(Value::as_str)
                .expect("cat string")
                .to_string()
        })
        .collect();
    let want: BTreeSet<String> = ["engine", "gram", "gridftp"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(cats, want);
    // Every complete event carries the required trace_event fields.
    for e in &events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
        assert!(e.get("dur").and_then(Value::as_u64).is_some());
        assert!(e.get("tid").and_then(Value::as_u64).is_some());
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        assert!(!name.is_empty());
    }
}

#[test]
fn span_exports_are_wellformed_and_job_linked() {
    // Each complete event (a span, in trace-viewer terms) links back to
    // a trace-store job, and every terminal trace has its engine/job
    // span — the trace covers the whole run, not a window of it.
    let sim = run_one_day();
    let events = trace_events(&sim.traces().chrome_trace());
    let mut engine_jobs = 0usize;
    for e in &events {
        let args = e.get("args").expect("args object");
        let job = args
            .get("job")
            .and_then(Value::as_u64)
            .expect("every span carries a job id");
        let id = grid3_sim::simkit::ids::JobId(job as u32);
        let trace = sim.traces().trace(id).expect("span job is in the store");
        assert!(args.get("error").is_some());
        if e.get("cat").and_then(Value::as_str) == Some("engine") {
            engine_jobs += 1;
            assert!(trace.is_terminal(), "job {job} has a span but no end");
        }
    }
    let terminal = (0..sim.traces().len() as u64)
        .filter_map(|n| sim.traces().find_by_submit_id(SubmitSideId(n)))
        .filter(|t| t.is_terminal())
        .count();
    assert!(terminal > 0);
    assert_eq!(engine_jobs, terminal);
}

#[test]
fn restored_run_exports_the_same_trace() {
    // The trace store is checkpointed, so a run cut at hour 12 and
    // restored traces every job exactly as the uninterrupted run does.
    let whole = run_one_day().traces().chrome_trace();
    let mut first = Grid3Engine::new(one_day());
    first.run_until(SimTime::from_hours(12));
    let mut resumed = Grid3Engine::restore(first.snapshot());
    resumed.run();
    assert!(
        resumed.traces().chrome_trace() == whole,
        "the restored run traced the jobs differently"
    );
}

#[test]
fn event_loop_profile_covers_the_run() {
    // The cost profiler is the one per-dispatch account: every timed pop
    // and every immediate it fans out lands on exactly one cost center.
    let mut sim = Grid3Engine::new(one_day().with_profile(true));
    sim.run();
    let profile = sim.profiler().expect("profiling was enabled");
    let fanout: u64 = profile.stats().iter().map(|s| s.fanout).sum();
    assert_eq!(profile.total_events(), sim.events_processed() + fanout);
    let rows = profile.rows();
    assert!(!rows.is_empty());
    // Rows are ranked by self time per event, most expensive first.
    for pair in rows.windows(2) {
        assert!(pair[0].ns_per_event >= pair[1].ns_per_event);
    }
}
