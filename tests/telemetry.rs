//! The grid-wide instrumentation layer, end to end: an instrumented
//! one-day run must yield a valid Chrome trace with spans from the four
//! core subsystems, well-formed JSON-lines and registry exports, and a
//! monitoring-bus feed — while never perturbing the simulation itself.

use grid3_sim::core::{CampaignSpec, Grid3Engine, ScenarioConfig};
use grid3_sim::monitoring::framework::{MonitoringBus, TelemetryProducer};
use grid3_sim::simkit::time::SimTime;
use grid3_sim::workflow::mop::CmsSimulator;
use serde_json::Value;
use std::collections::BTreeSet;

/// One day of SC2003 with a small CMSIM campaign, so every
/// span-emitting subsystem (gram, gridftp, dagman, engine) does real work
/// inside the window.
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

/// The instrumented [`one_day`] run.
fn run_one_day() -> Grid3Engine {
    let mut sim = Grid3Engine::new(one_day().with_telemetry(true));
    sim.run();
    sim
}

#[test]
fn chrome_trace_is_valid_json_with_four_subsystems() {
    let sim = run_one_day();
    let trace = sim.telemetry().chrome_trace();
    let parsed: Value = serde_json::from_str(&trace).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no spans recorded");
    let cats: BTreeSet<String> = events
        .iter()
        .map(|e| {
            e.get("cat")
                .and_then(Value::as_str)
                .expect("cat string")
                .to_string()
        })
        .collect();
    for subsystem in ["engine", "gram", "gridftp", "dagman"] {
        assert!(cats.contains(subsystem), "no {subsystem} spans in trace");
    }
    // Every complete event carries the required trace_event fields.
    for e in events {
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
    let sim = run_one_day();
    let jsonl = sim.telemetry().spans_jsonl();
    let mut engine_spans = 0usize;
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("each span line is JSON");
        if v.get("subsystem").and_then(Value::as_str) == Some("engine") {
            engine_spans += 1;
            // Engine job spans link back to TraceStore job ids.
            let job = v
                .get("job")
                .and_then(Value::as_u64)
                .expect("engine span carries a job id");
            let id = grid3_sim::simkit::ids::JobId(job as u32);
            assert!(
                sim.traces().trace(id).is_some(),
                "span job {job} missing from the trace store"
            );
        }
        let begin = v.get("begin_us").and_then(Value::as_u64).expect("begin_us");
        let end = v.get("end_us").and_then(Value::as_u64).expect("end_us");
        assert!(end >= begin);
    }
    assert!(engine_spans > 0, "no engine job spans exported");
    // The registry snapshot parses too.
    let registry: Value =
        serde_json::from_str(&sim.telemetry().registry_json()).expect("registry JSON");
    let counters = registry
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters array");
    assert!(!counters.is_empty());
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

#[test]
fn telemetry_feeds_the_monitoring_bus() {
    let sim = run_one_day();
    let mut bus = MonitoringBus::new();
    let producer = TelemetryProducer::new(sim.telemetry().clone());
    let published = producer.publish_to(&mut bus, SimTime::from_days(1));
    assert!(published > 0, "producer published nothing");
    assert_eq!(bus.published_count(), published as u64);
}
