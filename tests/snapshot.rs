//! Differential lock-down of engine snapshot/restore.
//!
//! The contract: interrupt a run at time T, snapshot, serialize the
//! snapshot through the on-disk binary format, restore in a fresh
//! engine, run to the horizon — and the extracted report is
//! *byte-identical* to the uninterrupted run. The suite pins that
//! against every golden hash `tests/determinism.rs` holds, which
//! transitively proves every piece of run-mutated state (queue contents
//! and ladder rung refinement, RNG stream positions,
//! site/middleware/fabric tables, subsystem accumulators, auditor state)
//! survives the round trip exactly.

use grid3_core::scenario::ScenarioConfig;
use grid3_core::snapshot::EngineSnapshot;
use grid3_core::{Grid3Engine, Grid3Report};
use grid3_simkit::time::{SimDuration, SimTime};

/// The determinism suite's goldens, verbatim (see tests/determinism.rs).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("sc2003", 2003, 0x9a81fc63ba6ab37f),
    ("sc2003_operated", 2003, 0x4890551a29889f49),
    ("sc2003", 7, 0x26e1d0268b73dbe9),
    ("sc2003_operated", 7, 0xf8331cf49d875fc1),
    ("sc2003", 42, 0x3bd788fab98bd8f6),
    ("sc2003_operated", 42, 0xebb4869a66a3aa75),
    ("sc2003_operated", 1234, 0x55138bc19796295f),
    ("sc2003_chaos", 2003, 0x428edf429c32422b),
    ("sc2003_federated", 2003, 0x11d025ba3c2cec18),
    ("scale_out", 2003, 0x6aed4329e0b8c4bb),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

/// Run `cfg` uninterrupted except for one snapshot/restore cut at
/// `frac` of the horizon (the snapshot crosses the binary wire format
/// both ways), and return the final report's JSON hash. Capturing the
/// restored engine again must reproduce the snapshot byte for byte:
/// nothing process-local leaks into a checkpoint.
fn hash_with_cut(cfg: ScenarioConfig, frac: f64) -> u64 {
    let horizon = cfg.horizon();
    let cut = SimTime::EPOCH
        + SimDuration::from_secs_f64(horizon.since(SimTime::EPOCH).as_secs_f64() * frac);
    let mut engine = Grid3Engine::new(cfg);
    engine.run_until(cut);
    let snap = engine.snapshot();
    let bytes = snap.to_bytes();
    drop(engine);
    drop(snap);
    let restored = EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes parse");
    let mut engine = Grid3Engine::restore(restored);
    assert!(
        engine.snapshot().to_bytes() == bytes,
        "re-capturing the restored engine changed the snapshot bytes"
    );
    engine.run();
    fnv1a64(Grid3Report::extract(&engine).to_json().as_bytes())
}

#[test]
fn snapshot_restore_reproduces_every_golden() {
    for &(scenario, seed, want) in GOLDEN {
        let got = hash_with_cut(config(scenario, seed), 0.5);
        assert_eq!(
            got, want,
            "{scenario}/seed {seed}: restored run diverged from golden ({got:#018x})"
        );
    }
}

/// The cut point must not matter: immediately after assembly, early,
/// late, and exactly at the horizon (where the restored engine has
/// nothing left to do but finalize).
#[test]
fn snapshot_restore_is_exact_at_any_cut_point() {
    let (scenario, seed, want) = ("sc2003_chaos", 2003, 0x428edf429c32422b);
    for frac in [0.0, 0.1, 0.9, 1.0] {
        let got = hash_with_cut(config(scenario, seed), frac);
        assert_eq!(
            got, want,
            "{scenario}/seed {seed}: cut at {frac} diverged ({got:#018x})"
        );
    }
}

/// Chained snapshots: interrupting an already-restored run again must
/// still land on the golden — resumability is not a one-shot property.
#[test]
fn snapshot_of_a_restored_engine_still_reproduces_the_golden() {
    let (scenario, seed, want) = ("sc2003_operated", 7, 0xf8331cf49d875fc1);
    let cfg = config(scenario, seed);
    let horizon = cfg.horizon();
    let span = horizon.since(SimTime::EPOCH).as_secs_f64();
    let mut engine = Grid3Engine::new(cfg);
    for frac in [0.25, 0.5, 0.75] {
        engine.run_until(SimTime::EPOCH + SimDuration::from_secs_f64(span * frac));
        let bytes = engine.snapshot().to_bytes();
        engine = Grid3Engine::restore(EngineSnapshot::from_bytes(&bytes).expect("parses"));
    }
    engine.run();
    let got = fnv1a64(Grid3Report::extract(&engine).to_json().as_bytes());
    assert_eq!(got, want, "doubly-restored run diverged ({got:#018x})");
}

/// The file front end: write_to/read_from round-trips, the header is
/// self-describing, and flipping any payload byte fails closed.
#[test]
fn snapshot_files_round_trip_and_fail_closed_on_corruption() {
    let cfg = config("sc2003", 7).with_days(2);
    let mut engine = Grid3Engine::new(cfg);
    engine.run_until(SimTime::from_days(1));
    let snap = engine.snapshot();
    assert_eq!(snap.sim_now(), engine.now());
    assert!(snap.pending_events() > 0);

    let dir = std::env::temp_dir().join(format!("grid3-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("engine.snap");
    snap.write_to(&path).expect("write");
    let reread = EngineSnapshot::read_from(&path).expect("read");
    assert_eq!(reread.to_bytes(), snap.to_bytes());
    assert_eq!(reread.scenario().seed, 7);

    let mut bytes = snap.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    assert!(
        EngineSnapshot::from_bytes(&bytes).is_err(),
        "corrupt payload must not parse"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Both file writers stream the payload behind a zero checksum and patch
/// the checksum in: the checkpoint written straight from the live engine
/// and `write_to` of an owned snapshot must each hold exactly the bytes
/// `to_bytes` builds in memory, at two cuts of every golden.
#[test]
fn streamed_snapshot_files_equal_the_in_memory_encoding() {
    let dir = std::env::temp_dir().join(format!("grid3-snap-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (live, owned) = (dir.join("live.snap"), dir.join("owned.snap"));
    for &(scenario, seed, _) in GOLDEN {
        let cfg = config(scenario, seed);
        let span = cfg.horizon().since(SimTime::EPOCH).as_secs_f64();
        let mut engine = Grid3Engine::new(cfg);
        for frac in [0.3, 0.7] {
            engine.run_until(SimTime::EPOCH + SimDuration::from_secs_f64(span * frac));
            let want = engine.snapshot().to_bytes();
            engine.write_snapshot(&live).expect("checkpoint writes");
            engine.snapshot().write_to(&owned).expect("snapshot writes");
            for path in [&live, &owned] {
                assert!(
                    std::fs::read(path).expect("read back") == want,
                    "{scenario}/seed {seed} at {frac}: {} differs from to_bytes",
                    path.display()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
