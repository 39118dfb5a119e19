//! The `figures` command line: a known subcommand runs, a misspelt one
//! fails loudly instead of silently doing nothing.

use std::process::Command;

/// Run `figures <arg>` in a fresh scratch directory (figures write
/// `results/` into the working directory).
fn figures(arg: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("grid3-figures-cli-{}-{arg}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg(arg)
        .current_dir(&dir)
        .output()
        .expect("figures runs");
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
