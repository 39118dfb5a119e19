//! The `figures` command line: a known subcommand runs, a misspelt one
//! fails loudly instead of silently doing nothing, and `autopsy` restores
//! a checkpoint or refuses it with a typed message.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use grid3_core::scenario::ScenarioConfig;
use grid3_core::Grid3Engine;
use grid3_simkit::time::SimTime;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grid3-figures-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `figures <args>` in `dir` (figures write `results/` into the
/// working directory).
fn figures_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("figures runs")
}

/// Run `figures <arg>` in a scratch directory of its own.
fn figures(arg: &str) -> Output {
    let dir = scratch(arg);
    let out = figures_in(&dir, &[arg]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn known_subcommand_succeeds() {
    let out = figures("gkload");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Gatekeeper load law"));
}

#[test]
fn unknown_subcommand_exits_2_and_lists_the_valid_ones() {
    let out = figures("gklaod");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand `gklaod`"), "{stderr}");
    assert!(stderr.contains("gkload"), "valid list missing: {stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn autopsy_restores_a_fresh_checkpoint() {
    let dir = scratch("autopsy");
    let mut engine = Grid3Engine::new(ScenarioConfig::sc2003().with_scale(0.02).with_days(2));
    engine.run_until(SimTime::from_days(1));
    engine
        .snapshot()
        .write_to(&dir.join("day1.snap"))
        .expect("checkpoint writes");
    let out = figures_in(&dir, &["autopsy", "day1.snap"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Autopsy"));
    let json = std::fs::read_to_string(dir.join("results").join("autopsy_day1.json"))
        .expect("autopsy writes its report");
    serde_json::from_str::<serde_json::Value>(&json).expect("the report is JSON");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn autopsy_rejects_a_version_2_snapshot() {
    // Versions 3 to 6 are refused the same way.
    for version in [2u32, 3, 4, 5, 6] {
        let dir = scratch(&format!("autopsy-v{version}"));
        let mut file = b"G3ENGSNP".to_vec();
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&[0; 8]);
        file.push(0);
        std::fs::write(dir.join("old.snap"), &file).expect("write old snapshot");
        let out = figures_in(&dir, &["autopsy", "old.snap"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("unsupported snapshot version {version}")),
            "{stderr}"
        );
        assert!(!dir.join("results").exists(), "nothing was written");
        std::fs::remove_dir_all(&dir).ok();
    }
}
