//! Allocs/event budget smoke: pins the hot path's per-event heap
//! traffic so allocation regressions fail CI instead of silently
//! eroding the arena/SoA win.
//!
//! Gated behind the `count-allocs` feature (which forwards to
//! `grid3-simkit/count-allocs`, installing the counting global
//! allocator): `cargo test --release --features count-allocs --test
//! alloc_budget -- --nocapture`.
#![cfg(feature = "count-allocs")]

use grid3_core::engine::Grid3Engine;
use grid3_core::scenario::ScenarioConfig;
use grid3_simkit::profiler::alloc_snapshot;
use std::sync::{Mutex, MutexGuard};

/// The allocation counter is process-global, and the default test runner
/// runs tests on parallel threads: each test body holds this lock so no
/// other test's allocations land in its reading.
static COUNTER: Mutex<()> = Mutex::new(());

/// Exclusive use of the allocation counter (a poisoned lock only means
/// another test failed; the counter itself is still sound).
fn exclusive_counter() -> MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whole-run allocations divided by events processed for one scenario.
fn allocs_per_event(cfg: ScenarioConfig) -> (f64, u64) {
    let mut sim = Grid3Engine::new(cfg);
    let (a0, _) = alloc_snapshot();
    sim.run();
    let (a1, _) = alloc_snapshot();
    let events = sim.events_processed();
    ((a1 - a0) as f64 / events.max(1) as f64, events)
}

/// The `scale_out` smoke depth (the CI-speed version of the stress
/// grid) must stay under the pinned allocs/event ceiling.
///
/// Pre-arena baseline on this config measured 40.19 allocs/event; the
/// arena/SoA engine ran at ~5.5 (monitor ticks dominate at smoke depth,
/// and their publish/sample buffers are now reused; the trace store's
/// dense tables and reserved event vectors removed most of the rest).
/// Row-mask site selection, a caller-owned dispatch buffer and a status
/// catalog probe that no longer clones the site name brought it to 2.80
/// (2.86 before the next change). Append-ordered monitoring then took
/// it to 0.59: MonALISA series and trace events append to two chunked
/// logs instead of one growing list per series and per job, storage
/// files append to a sorted table, and the NetLogger drain keeps its
/// buffer. Measured with the counter to itself, the ceiling of 0.74 is
/// 1.25× the 0.59 reading, so only a real regression trips the guard.
#[test]
fn scale_out_smoke_stays_under_alloc_budget() {
    const CEILING: f64 = 0.74;
    let _counter = exclusive_counter();
    let cfg = ScenarioConfig::scale_out().with_scale(0.1).with_days(4);
    let (per_event, events) = allocs_per_event(cfg);
    println!("[alloc_budget] scale_out smoke: {events} events, {per_event:.2} allocs/event");
    assert!(
        per_event <= CEILING,
        "scale_out smoke allocates {per_event:.2} allocs/event, over the {CEILING} ceiling"
    );
}

/// Disabled-observer paths must not build telemetry/journal payloads:
/// with telemetry, ops journal, and profiler all off (the default
/// sc2003 configuration), per-event allocation must stay at the same
/// order as the instrumented run — a leak of eager `format!` label
/// construction shows up as a multiple, not a few percent.
#[test]
fn disabled_observers_allocate_nothing_extra_per_event() {
    let _counter = exclusive_counter();
    let base = ScenarioConfig::sc2003().with_scale(0.05).with_days(6);
    let (plain, events) = allocs_per_event(base.clone());
    let (observed, ev2) = allocs_per_event(
        base.with_telemetry(true)
            .with_ops_journal(true)
            .with_profile(true),
    );
    assert_eq!(events, ev2, "observers must not change the event stream");
    println!(
        "[alloc_budget] sc2003 smoke: disabled {plain:.2} vs observed {observed:.2} allocs/event"
    );
    // The disabled run must never allocate more than the fully
    // instrumented one: eager label construction on a disabled handle
    // is exactly the bug this guards against.
    assert!(
        plain <= observed + 0.01,
        "disabled-observer run allocates more ({plain:.2}) than instrumented run ({observed:.2})"
    );
}
