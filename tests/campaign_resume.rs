//! Crash-safe campaign lock-down: the write-ahead journal, resume
//! semantics, warm starts, watchdogs, and torn-write tolerance.
//!
//! The central property: however a campaign is interrupted — after any
//! prefix of runs, mid-run with a checkpoint on disk, or mid-append
//! with a torn journal record — resuming it produces merged percentile
//! bands *byte-identical* to a sweep that was never interrupted.

use std::path::PathBuf;
use std::time::Duration;

use grid3_core::campaign::{
    plan_fingerprint, run_campaign_resumable, run_with_threads, CampaignJournal, CampaignPlan,
    ResumableOptions, RunFailure, WalRecord,
};
use grid3_core::scenario::ScenarioConfig;
use grid3_core::Grid3Engine;
use grid3_simkit::time::SimTime;
use proptest::prelude::*;

fn tiny() -> ScenarioConfig {
    ScenarioConfig::sc2003()
        .with_scale(0.004)
        .with_days(5)
        .with_demo(false)
}

fn tiny_plan() -> CampaignPlan {
    CampaignPlan::single("base", tiny(), vec![1, 2]).with_variant("srm", tiny().with_srm(true))
}

/// A unique scratch directory per test (removed on success; leftovers
/// from a failed run are in the OS temp dir and harmless).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grid3-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn summary_json(outcome: &grid3_core::campaign::CampaignOutcome) -> String {
    serde_json::to_string(&outcome.summary).expect("summary serializes")
}

#[test]
fn uninterrupted_resumable_campaign_matches_plain_serial_byte_for_byte() {
    let plan = tiny_plan();
    let dir = scratch("plain");
    let resumable =
        run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("campaign runs");
    let serial = run_with_threads(&plan, 1);
    assert!(resumable.failures.is_empty());
    assert_eq!(resumable.replayed, 0);
    assert_eq!(resumable.warm_started, 0);
    assert_eq!(summary_json(&resumable.outcome), summary_json(&serial));
    // A second invocation against the same directory replays everything
    // from the journal — no run re-executes — and is still identical.
    let replayed =
        run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("replay runs");
    assert_eq!(replayed.replayed, plan.len());
    assert_eq!(summary_json(&replayed.outcome), summary_json(&serial));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_interruption_skips_finished_runs_and_matches_uninterrupted() {
    let plan = tiny_plan();
    let serial = run_with_threads(&plan, 1);
    // Simulate a campaign killed after its first two runs: a journal
    // holding exactly those two Finished records, written through the
    // same WAL the executor uses.
    let dir = scratch("interrupt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut journal, recovered) =
        CampaignJournal::open(&dir.join("campaign.wal"), plan_fingerprint(&plan))
            .expect("fresh journal");
    assert!(recovered.is_empty());
    for (index, report) in serial.reports[0].iter().enumerate() {
        journal
            .append(&WalRecord::Finished {
                index: index as u64,
                report: report.clone(),
                profile: None,
            })
            .expect("append");
    }
    drop(journal);
    let resumed = run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("resume runs");
    assert_eq!(resumed.replayed, serial.reports[0].len());
    assert!(resumed.failures.is_empty());
    assert_eq!(summary_json(&resumed.outcome), summary_json(&serial));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_in_reverse_plan_order_resumes_to_identical_bands() {
    // Workers journal runs as they finish, so a journal's records need
    // not follow the plan: here the last two runs finished, the later
    // one first. Replay is keyed by index, and the two runs left run on
    // the pool; the bands match the serial reference byte for byte.
    let plan = tiny_plan();
    let serial = run_with_threads(&plan, 1);
    let dir = scratch("reverse");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut journal, _) =
        CampaignJournal::open(&dir.join("campaign.wal"), plan_fingerprint(&plan))
            .expect("fresh journal");
    for (index, report) in serial.reports[1].iter().enumerate().rev() {
        journal
            .append(&WalRecord::Finished {
                index: (serial.reports[0].len() + index) as u64,
                report: report.clone(),
                profile: None,
            })
            .expect("append");
    }
    drop(journal);
    let resumed = run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("resume runs");
    assert_eq!(resumed.replayed, serial.reports[1].len());
    assert!(resumed.failures.is_empty());
    assert_eq!(summary_json(&resumed.outcome), summary_json(&serial));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_warm_starts_an_interrupted_run_from_its_checkpoint() {
    let plan = CampaignPlan::single("base", tiny(), vec![1, 2]);
    let serial = run_with_threads(&plan, 1);
    // Simulate a campaign killed mid-run 1: run 0 journaled, run 1 two
    // sim-days in with a checkpoint snapshot on disk.
    let dir = scratch("warm");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut journal, _) =
        CampaignJournal::open(&dir.join("campaign.wal"), plan_fingerprint(&plan))
            .expect("fresh journal");
    journal
        .append(&WalRecord::Finished {
            index: 0,
            report: serial.reports[0][0].clone(),
            profile: None,
        })
        .expect("append");
    drop(journal);
    let mut engine = Grid3Engine::new(tiny().with_seed(2));
    engine.run_until(SimTime::from_days(2));
    engine
        .snapshot()
        .write_to(&dir.join("run-0001.snap"))
        .expect("checkpoint writes");
    let resumed = run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("resume runs");
    assert_eq!(resumed.replayed, 1);
    assert_eq!(resumed.warm_started, 1, "run 1 resumed from its snapshot");
    assert_eq!(summary_json(&resumed.outcome), summary_json(&serial));
    // The completed run's checkpoint is cleaned up.
    assert!(!dir.join("run-0001.snap").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_checkpoint_from_a_different_config_degrades_to_a_cold_start() {
    let plan = CampaignPlan::single("base", tiny(), vec![1]);
    let serial = run_with_threads(&plan, 1);
    let dir = scratch("stale");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A snapshot of a *different* configuration squatting on run 0's
    // checkpoint path must be ignored, not resumed into a wrong result.
    let mut other = Grid3Engine::new(tiny().with_seed(999));
    other.run_until(SimTime::from_days(1));
    other
        .snapshot()
        .write_to(&dir.join("run-0000.snap"))
        .expect("stale snapshot writes");
    let resumed =
        run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("campaign runs");
    assert_eq!(resumed.warm_started, 0, "mismatched snapshot ignored");
    assert_eq!(summary_json(&resumed.outcome), summary_json(&serial));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_campaign_is_byte_identical_to_plain_serial() {
    // Checkpointing (run_until stepping + mid-run snapshots) must be
    // observation-only: same bands as the uninterrupted executor. Runs
    // checkpoint side by side, and each one's checkpoint goes once its
    // journal record is synced: none is left behind.
    let plan = CampaignPlan::single("base", tiny(), vec![7, 8]);
    let dir = scratch("ckpt");
    let opts = ResumableOptions::new(&dir)
        .with_checkpoint_every(grid3_simkit::time::SimDuration::from_days(2));
    let resumable = run_campaign_resumable(&plan, &opts).expect("campaign runs");
    let serial = run_with_threads(&plan, 1);
    assert_eq!(summary_json(&resumable.outcome), summary_json(&serial));
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("campaign dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name != "campaign.wal")
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_budget_runs_fail_typed_and_the_campaign_completes_then_recovers() {
    let plan = tiny_plan();
    let dir = scratch("budget");
    // A 1 ns budget trips the watchdog on every run: each is recorded
    // as a typed timeout and the campaign still completes, with empty
    // partial bands.
    let strangled = run_campaign_resumable(
        &plan,
        &ResumableOptions::new(&dir).with_run_budget(Duration::from_nanos(1)),
    )
    .expect("campaign completes despite failures");
    assert_eq!(strangled.failures.len(), plan.len());
    for (i, f) in strangled.failures.iter().enumerate() {
        assert_eq!(f.index, i, "failures come back in plan order");
        assert!(matches!(f.failure, RunFailure::TimedOut { .. }), "{f:?}");
    }
    assert_eq!(strangled.outcome.summary.runs, 0);
    // The journal holds exactly one Failed record per run, in whatever
    // order the workers finished.
    let (journal, records) =
        CampaignJournal::open(&dir.join("campaign.wal"), plan_fingerprint(&plan))
            .expect("journal reopens");
    drop(journal);
    let mut failed: Vec<u64> = records
        .iter()
        .map(|rec| match rec {
            WalRecord::Failed { index, .. } => *index,
            other => panic!("unexpected record {other:?}"),
        })
        .collect();
    failed.sort_unstable();
    assert_eq!(failed, (0..plan.len() as u64).collect::<Vec<_>>());
    // Failed runs re-execute on resume: with a sane budget the same
    // directory recovers to the uninterrupted bands.
    let recovered = run_campaign_resumable(
        &plan,
        &ResumableOptions::new(&dir).with_run_budget(Duration::from_secs(600)),
    )
    .expect("resume runs");
    assert!(recovered.failures.is_empty());
    assert_eq!(
        summary_json(&recovered.outcome),
        summary_json(&run_with_threads(&plan, 1))
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Torn-write tolerance (property): truncating the journal at *any* byte
// never corrupts a resume — the intact record prefix survives, the torn
// tail is discarded, and the journal accepts further appends.
// ---------------------------------------------------------------------

/// Build a journal of `n` cheap records and return its bytes plus the
/// per-record frame boundaries (byte offsets where record i ends).
fn journal_fixture(n: usize, fingerprint: u64, dir: &std::path::Path) -> (Vec<u8>, Vec<usize>) {
    std::fs::create_dir_all(dir).expect("mkdir");
    let path = dir.join("campaign.wal");
    std::fs::remove_file(&path).ok();
    let (mut journal, _) = CampaignJournal::open(&path, fingerprint).expect("fresh journal");
    let mut boundaries = vec![std::fs::metadata(&path).expect("meta").len() as usize];
    for i in 0..n {
        journal
            .append(&WalRecord::Failed {
                index: i as u64,
                failure: RunFailure::Panicked {
                    message: format!("synthetic failure #{i} {}", "x".repeat(i % 13)),
                },
            })
            .expect("append");
        boundaries.push(std::fs::metadata(&path).expect("meta").len() as usize);
    }
    drop(journal);
    (std::fs::read(&path).expect("read journal"), boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncating_the_wal_anywhere_preserves_the_intact_prefix(
        n in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch(&format!("torn-{n}"));
        let fingerprint = 0x5EED;
        let (bytes, boundaries) = journal_fixture(n, fingerprint, &dir);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let path = dir.join("campaign.wal");
        std::fs::write(&path, &bytes[..cut]).expect("write torn journal");
        // Reopen: recovered records are exactly the records whose
        // frames fit inside the cut — the torn tail record is gone,
        // nothing before it is.
        let expect_intact = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let (mut journal, recovered) =
            CampaignJournal::open(&path, fingerprint).expect("torn journal reopens");
        // boundaries[0] is the header frame; records after it count.
        let intact_records = expect_intact.saturating_sub(1);
        prop_assert_eq!(recovered.len(), intact_records, "cut at {} of {}", cut, bytes.len());
        for (i, rec) in recovered.iter().enumerate() {
            prop_assert!(
                matches!(rec, WalRecord::Failed { index, .. } if *index == i as u64),
                "prefix record {} is intact", i
            );
        }
        // The truncated journal is immediately appendable and the new
        // record survives a further reopen.
        journal.append(&WalRecord::Failed {
            index: 99,
            failure: RunFailure::TimedOut { budget_secs: 1.0 },
        }).expect("append after torn reopen");
        drop(journal);
        let (_, after) = CampaignJournal::open(&path, fingerprint).expect("reopens again");
        prop_assert_eq!(after.len(), intact_records + 1);
        let tail_ok = matches!(
            after.last().expect("appended record"),
            WalRecord::Failed { index: 99, .. }
        );
        prop_assert!(tail_ok, "appended record survives reopen");
        std::fs::remove_dir_all(&dir).ok();
    }
}
