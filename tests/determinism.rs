//! Golden-hash determinism tests for the routed-subsystem engine.
//!
//! The subsystem refactor (routed events, per-subsystem state, immediate
//! dispatch) must preserve *bit-identical* results against the
//! pre-refactor monolithic engine: same RNG stream draws, same FIFO
//! tie-breaks, same report JSON down to the last float digit. The hashes
//! below were recorded from the monolith immediately before the split
//! (identical in debug and release builds); any drift in event ordering,
//! RNG consumption, or report assembly shows up here as a hash mismatch.
//!
//! Run just these with `cargo test --release -- determinism` (the CI
//! release job does).

use grid3_core::scenario::ScenarioConfig;

/// FNV-1a over the full report JSON: stable across platforms and rustc
/// versions (unlike `DefaultHasher`), and sensitive to every byte of
/// every figure series.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden hashes recorded from the pre-refactor monolithic engine at
/// 2 % workload scale over the full 30-day windows (demo included).
const GOLDEN: [(&str, u64, u64); 10] = [
    ("sc2003", 2003, 0x9a81fc63ba6ab37f),
    ("sc2003_operated", 2003, 0x4890551a29889f49),
    ("sc2003", 7, 0x26e1d0268b73dbe9),
    ("sc2003_operated", 7, 0xf8331cf49d875fc1),
    ("sc2003", 42, 0x3bd788fab98bd8f6),
    ("sc2003_operated", 42, 0xebb4869a66a3aa75),
    // Recorded with the heap-backed engine immediately before the ladder
    // queue became the default: the queue swap must not move a byte.
    ("sc2003_operated", 1234, 0x55138bc19796295f),
    // The chaos scenario (sampled fault plan + auditor on), recorded when
    // the chaos layer landed: seeded fault replay must stay bit-identical
    // (identical in debug and release builds).
    ("sc2003_chaos", 2003, 0x428edf429c32422b),
    // The two-grid federated scenario (VDT grid3 + EDG/LCG grid, MDS
    // peering, cross-grid stage-ins), recorded when the federation layer
    // landed (identical in debug and release builds).
    ("sc2003_federated", 2003, 0x11d025ba3c2cec18),
    // The 300-site stress grid, recorded before site selection moved to
    // 64-bit row masks: the only golden wider than one mask word
    // (identical in debug and release builds).
    ("scale_out", 2003, 0x6aed4329e0b8c4bb),
];

fn config(scenario: &str, seed: u64) -> ScenarioConfig {
    let base = match scenario {
        "sc2003" => ScenarioConfig::sc2003(),
        "sc2003_operated" => ScenarioConfig::sc2003_operated(),
        "sc2003_chaos" => ScenarioConfig::sc2003_chaos(),
        "sc2003_federated" => ScenarioConfig::sc2003_federated(),
        "scale_out" => ScenarioConfig::scale_out(),
        other => panic!("unknown scenario {other}"),
    };
    base.with_scale(0.02).with_seed(seed)
}

#[test]
fn determinism_golden_hashes_baseline_and_operated() {
    for (scenario, seed, want) in GOLDEN {
        let json = config(scenario, seed).run().to_json();
        let got = fnv1a64(json.as_bytes());
        assert_eq!(
            got, want,
            "{scenario} seed {seed}: report drifted from the pre-refactor \
             golden hash (got 0x{got:016x}, want 0x{want:016x})"
        );
    }
}

#[test]
fn determinism_same_seed_same_hash_across_repeats() {
    // The pure-function property the golden hashes rely on: a config is
    // a complete description of a run.
    let a = config("sc2003_operated", 7).run().to_json();
    let b = config("sc2003_operated", 7).run().to_json();
    assert_eq!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
}

#[test]
fn determinism_auditor_is_bit_neutral() {
    // The invariant auditor is observation-only: enabling it on the
    // baseline scenario must reproduce the baseline golden hash exactly —
    // no RNG draws, no queue events, no report fields.
    let json = config("sc2003", 2003).with_audit(true).run().to_json();
    assert_eq!(
        fnv1a64(json.as_bytes()),
        GOLDEN[0].2,
        "auditor perturbed the run"
    );
}

#[test]
fn determinism_profiler_and_ops_journal_are_bit_neutral() {
    // The cost profiler times handlers and the ops journal records
    // operational events, but both are observation-only: every golden
    // hash must reproduce exactly with every observer enabled. This is
    // the tentpole guarantee — "the engine explains where its time
    // goes" without moving a single simulated byte.
    for (scenario, seed, want) in GOLDEN {
        let artifacts = config(scenario, seed)
            .with_profile(true)
            .with_ops_journal(true)
            .run_full();
        let got = fnv1a64(artifacts.report.to_json().as_bytes());
        assert_eq!(
            got, want,
            "{scenario} seed {seed}: profiler/ops journal perturbed the run \
             (got 0x{got:016x}, want 0x{want:016x})"
        );
        // The instrumented run really did profile: every dispatch — timed
        // queue pops plus the immediates they fanned out — is attributed
        // to exactly one cost center.
        let profile = artifacts.profile.expect("profiling was enabled");
        let attributed: u64 = profile.stats().iter().map(|s| s.events).sum();
        let fanout: u64 = profile.stats().iter().map(|s| s.fanout).sum();
        assert_eq!(
            attributed,
            artifacts.events_processed + fanout,
            "{scenario} seed {seed}: cost attribution lost events"
        );
    }
}

#[test]
fn determinism_ops_journal_round_trips_as_jsonl() {
    // The chaos scenario exercises every journal record kind family:
    // fault injections, tickets, suspensions, reinstates, storms.
    let artifacts = config("sc2003_chaos", 2003)
        .with_ops_journal(true)
        .run_full();
    let records = artifacts.ops.records();
    assert!(!records.is_empty(), "chaos month produced no ops records");
    // Timestamps are non-decreasing (the journal is an event-order log).
    for pair in records.windows(2) {
        assert!(pair[0].at <= pair[1].at, "journal out of order");
    }
    // Every line of the JSONL export parses back to the identical record.
    let jsonl = artifacts.ops.to_jsonl();
    let mut parsed = Vec::new();
    for line in jsonl.lines() {
        parsed.push(grid3_core::ops::OpsRecord::from_json_line(line).expect("journal line parses"));
    }
    assert_eq!(parsed, records, "JSONL round trip changed the journal");
}

#[test]
fn determinism_seeds_actually_differ() {
    // Guard against the degenerate "hash matches because the report
    // ignores the seed" failure mode.
    let a = config("sc2003", 2003).run().to_json();
    let b = config("sc2003", 7).run().to_json();
    assert_ne!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
}
