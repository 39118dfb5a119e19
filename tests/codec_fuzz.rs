//! Fixed-seed mutation fuzzing of the input boundaries: the two binary
//! ones, engine snapshots (`EngineSnapshot::from_bytes`) and campaign
//! journal frames (`CampaignJournal::open`), and the two text ones,
//! scenario documents (`dsl::parse_str`) and JSONL submission logs
//! (`JobTrace::parse_jsonl`).
//!
//! Each case takes a real encoding and applies one mutation — bit flips,
//! byte overwrites, a truncation, an insertion, or a length field set to
//! `u64::MAX` (or one past the bytes left) — then recomputes the checksum
//! so the mutated bytes reach the decoder rather than stopping at the
//! integrity check. Neither boundary may panic: a snapshot decodes or
//! fails with a typed `SnapshotError`, and a journal keeps its intact
//! record prefix. Text cases take the same byte mutations, or replace a
//! number with an extreme value; a document or log parses or fails with
//! a typed `DslError`.

use std::path::PathBuf;

use grid3_core::campaign::{
    plan_fingerprint, run_campaign_resumable, run_with_threads, CampaignJournal, CampaignPlan,
    ResumableOptions, WalError, WalRecord,
};
use grid3_core::dsl::{self, DslError, JobTrace, TraceJob};
use grid3_core::scenario::ScenarioConfig;
use grid3_core::snapshot::{EngineSnapshot, SnapshotError};
use grid3_core::Grid3Engine;
use grid3_simkit::ids::UserId;
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Mutated inputs per boundary.
const CASES: usize = 2_000;

/// Snapshot header: magic, version, checksum.
const SNAP_HEADER: usize = 8 + 4 + 8;

/// Journal frame header: payload length (u32), checksum (u64).
const FRAME_HEADER: usize = 4 + 8;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grid3-fuzz-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Offsets of the 8-byte windows that read as a plausible length: a
/// non-zero count no larger than the bytes after the window. Every
/// encoded length is one; so are some ids and counters, which is fine.
fn length_like_offsets(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len().saturating_sub(8))
        .filter(|&i| {
            let v = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
            v > 0 && v <= (bytes.len() - i - 8) as u64
        })
        .collect()
}

/// Apply one random mutation to `bytes` and describe it. `lengths` are
/// the length-like offsets of `bytes`; without any, lengths stay intact.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>, lengths: &[usize]) -> String {
    let at = |rng: &mut StdRng, n: usize| rng.gen_range(0..n.max(1));
    let kinds = if lengths.is_empty() { 4 } else { 5 };
    match rng.gen_range(0..kinds) {
        0 => {
            let flips = rng.gen_range(1..5usize);
            for _ in 0..flips {
                let i = at(rng, bytes.len());
                if let Some(b) = bytes.get_mut(i) {
                    *b ^= 1 << rng.gen_range(0..8u32);
                }
            }
            format!("{flips} bit flips")
        }
        1 => {
            let i = at(rng, bytes.len());
            let n = rng
                .gen_range(1..9usize)
                .min(bytes.len() - i.min(bytes.len()));
            for b in &mut bytes[i..i + n] {
                *b = rng.next_u32() as u8;
            }
            format!("{n} bytes overwritten at {i}")
        }
        2 => {
            let cut = at(rng, bytes.len());
            bytes.truncate(cut);
            format!("truncated to {cut}")
        }
        3 => {
            let i = at(rng, bytes.len() + 1);
            let n = rng.gen_range(1..9usize);
            let extra: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
            bytes.splice(i..i, extra);
            format!("{n} bytes inserted at {i}")
        }
        _ => {
            let i = lengths[at(rng, lengths.len())];
            let huge = if rng.gen_bool(0.5) {
                u64::MAX
            } else {
                (bytes.len() - i - 8) as u64 + 1
            };
            bytes[i..i + 8].copy_from_slice(&huge.to_le_bytes());
            format!("length at {i} set to {huge}")
        }
    }
}

/// A small real checkpoint: `sc2003` at 2% scale, one simulated day in.
fn day_one_snapshot() -> Vec<u8> {
    let cfg = ScenarioConfig::sc2003().with_scale(0.02).with_seed(2003);
    let mut engine = Grid3Engine::new(cfg);
    engine.run_until(SimTime::from_days(1));
    engine.snapshot().to_bytes()
}

#[test]
fn mutated_snapshots_decode_or_fail_typed() {
    let file = day_one_snapshot();
    let (header, payload) = file.split_at(SNAP_HEADER);
    EngineSnapshot::from_bytes(&file).expect("the unmutated snapshot decodes");
    let lengths = length_like_offsets(payload);
    assert!(!lengths.is_empty());
    let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
    let (mut decoded, mut truncated, mut invalid, mut version) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut mutated = payload.to_vec();
        let what = mutate(&mut rng, &mut mutated, &lengths);
        let mut bytes = header.to_vec();
        bytes[12..SNAP_HEADER].copy_from_slice(&fnv1a64(&mutated).to_le_bytes());
        bytes.extend_from_slice(&mutated);
        let outcome = std::panic::catch_unwind(|| EngineSnapshot::from_bytes(&bytes).err())
            .unwrap_or_else(|_| panic!("case {case} ({what}) panicked the snapshot decoder"));
        match outcome {
            None => decoded += 1,
            Some(SnapshotError::Truncated) => truncated += 1,
            Some(SnapshotError::Decode(_)) => invalid += 1,
            // The payload opens with the schema version.
            Some(SnapshotError::UnsupportedVersion(_)) => version += 1,
            Some(other) => panic!("case {case} ({what}): unexpected {other:?}"),
        }
    }
    // The checksum was recomputed, so the mutations reached the decoder
    // and it both accepted and rejected some of them.
    assert!(
        decoded > 0 && truncated > 0 && invalid > 0,
        "decoded {decoded}, truncated {truncated}, invalid {invalid}, version {version}"
    );
}

/// Frame boundaries of a journal: `(start, end)` of every frame.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + FRAME_HEADER + len;
        out.push((pos, end));
        pos = end;
    }
    out
}

fn tiny_plan() -> CampaignPlan {
    let cfg = ScenarioConfig::sc2003()
        .with_scale(0.004)
        .with_days(5)
        .with_demo(false);
    CampaignPlan::single("base", cfg, vec![1, 2])
}

#[test]
fn mutated_journals_keep_their_intact_prefix() {
    let dir = scratch("wal");
    let plan = tiny_plan();
    run_campaign_resumable(&plan, &ResumableOptions::new(dir.join("run"))).expect("campaign runs");
    let journal = std::fs::read(dir.join("run").join("campaign.wal")).expect("journal");
    let fingerprint = plan_fingerprint(&plan);
    let frames = frames(&journal);
    assert_eq!(frames.len(), 3, "a header and two finished runs");
    let records: Vec<Vec<u8>> = frames[1..]
        .iter()
        .map(|&(s, e)| journal[s + FRAME_HEADER..e].to_vec())
        .collect();
    let lengths: Vec<Vec<usize>> = frames
        .iter()
        .map(|&(s, e)| length_like_offsets(&journal[s + FRAME_HEADER..e]))
        .collect();

    let path = dir.join("campaign.wal");
    let mut rng = StdRng::seed_from_u64(0x0A11_F00D);
    for case in 0..CASES {
        // Mutate one frame: its payload, re-framed with a fresh length
        // and checksum, or (one case in five) its raw frame header.
        let k = rng.gen_range(0..frames.len());
        let (start, end) = frames[k];
        let mut bytes = journal[..start].to_vec();
        let what = if rng.gen_range(0..5u32) == 0 {
            let mut frame = journal[start..end].to_vec();
            let huge = if rng.gen_bool(0.5) {
                u32::MAX
            } else {
                rng.next_u32()
            };
            frame[..4].copy_from_slice(&huge.to_le_bytes());
            bytes.extend_from_slice(&frame);
            format!("frame {k} length set to {huge}")
        } else {
            let mut payload = journal[start + FRAME_HEADER..end].to_vec();
            let what = mutate(&mut rng, &mut payload, &lengths[k]);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            format!("frame {k}: {what}")
        };
        bytes.extend_from_slice(&journal[end..]);
        std::fs::write(&path, &bytes).expect("write mutated journal");
        let opened = std::panic::catch_unwind(|| CampaignJournal::open(&path, fingerprint))
            .unwrap_or_else(|_| panic!("case {case} ({what}) panicked the journal scan"));
        match opened {
            Ok((_, recovered)) => {
                // Every record framed before the mutated one survives.
                let intact = k.saturating_sub(1);
                assert!(
                    recovered.len() >= intact,
                    "case {case} ({what}): {} of {intact} intact records",
                    recovered.len()
                );
                for (i, rec) in recovered[..intact].iter().enumerate() {
                    assert_eq!(
                        serde::binary::to_bytes(rec),
                        records[i],
                        "case {case} ({what}): record {i} changed"
                    );
                }
            }
            // A mutated header may decode as another plan's header or as
            // a record that is no header at all.
            Err(WalError::PlanMismatch) if k == 0 => {}
            Err(e) => panic!("case {case} ({what}): {e}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The pre-v3 tagged value layout of a journal payload: an object of
/// one variant key holding an object of `u64` fields.
fn value_tree_record(variant: &str, fields: &[(&str, u64)]) -> Vec<u8> {
    const TAG_U64: u8 = 3;
    const TAG_OBJECT: u8 = 8;
    fn key(out: &mut Vec<u8>, k: &str) {
        out.extend_from_slice(&(k.len() as u64).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
    }
    let mut out = vec![TAG_OBJECT];
    out.extend_from_slice(&1u64.to_le_bytes());
    key(&mut out, variant);
    out.push(TAG_OBJECT);
    out.extend_from_slice(&(fields.len() as u64).to_le_bytes());
    for (k, v) in fields {
        key(&mut out, k);
        out.push(TAG_U64);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_value_tree_journal_reopens_empty_and_every_run_re_executes() {
    let dir = scratch("old-wal");
    let plan = tiny_plan();
    let fingerprint = plan_fingerprint(&plan);
    let path = dir.join("campaign.wal");
    let mut old = frame(&value_tree_record(
        "Header",
        &[("fingerprint", fingerprint)],
    ));
    old.extend(frame(&value_tree_record(
        "Finished",
        &[("index", 0), ("report", 0)],
    )));
    std::fs::write(&path, &old).expect("write old journal");

    let (journal, recovered) =
        CampaignJournal::open(&path, fingerprint).expect("an old journal is no plan mismatch");
    drop(journal);
    assert!(recovered.is_empty());
    let fresh = std::fs::read(&path).expect("journal");
    assert_eq!(
        fresh,
        frame(&serde::binary::to_bytes(&WalRecord::Header { fingerprint })),
        "the old frames gave way to a fresh header"
    );

    std::fs::write(&path, &old).expect("write old journal");
    let resumed =
        run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("campaign runs");
    assert_eq!(resumed.replayed, 0, "nothing replays from an old journal");
    assert!(resumed.failures.is_empty());
    let serial = run_with_threads(&plan, 1);
    assert_eq!(
        serde_json::to_string(&resumed.outcome.summary).expect("summary"),
        serde_json::to_string(&serial.summary).expect("summary")
    );
    let (_, replayable) = CampaignJournal::open(&path, fingerprint).expect("reopens");
    assert_eq!(replayable.len(), plan.len(), "every run re-executed");
    std::fs::remove_dir_all(&dir).ok();
}

/// What the numeric-token mutation writes in place of a number: values
/// out of every field's range, and tokens of the wrong JSON type.
const EXTREMES: [&str; 7] = [
    "-1",
    "0",
    "1e308",
    "18446744073709551616",
    "null",
    "\"x\"",
    "[]",
];

/// Byte ranges of the JSON number tokens in `text`, skipping string
/// contents.
fn number_tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            out.push((start, i));
            continue;
        }
        i += 1;
    }
    out
}

/// Apply one random mutation to a text input and describe it: one case
/// in five replaces a number token with an [`EXTREMES`] value, the rest
/// take one of [`mutate`]'s byte mutations (invalid UTF-8 is replaced,
/// as a text reader would have to).
fn mutate_text(rng: &mut StdRng, text: &str) -> (String, String) {
    let numbers = number_tokens(text);
    if !numbers.is_empty() && rng.gen_range(0..5u32) == 0 {
        let (start, end) = numbers[rng.gen_range(0..numbers.len())];
        let extreme = EXTREMES[rng.gen_range(0..EXTREMES.len())];
        let what = format!("number `{}` at {start} set to {extreme}", &text[start..end]);
        return (format!("{}{extreme}{}", &text[..start], &text[end..]), what);
    }
    let mut bytes = text.as_bytes().to_vec();
    let what = mutate(rng, &mut bytes, &[]);
    (String::from_utf8_lossy(&bytes).into_owned(), what)
}

/// Feed [`CASES`] mutated copies of `inputs` (name, text) to `parse`,
/// naming any case that panics; some must parse and some must fail.
fn fuzz_text<T>(
    seed: u64,
    inputs: &[(String, String)],
    parse: impl Fn(&str) -> Result<T, DslError> + std::panic::RefUnwindSafe,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..CASES {
        let (name, text) = &inputs[rng.gen_range(0..inputs.len())];
        let (mutated, what) = mutate_text(&mut rng, text);
        match std::panic::catch_unwind(|| parse(&mutated))
            .unwrap_or_else(|_| panic!("case {case} ({name}: {what}) panicked the decoder"))
        {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "parsed {parsed}, rejected {rejected}"
    );
}

#[test]
fn mutated_scenario_documents_parse_or_fail_typed() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut docs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("scenarios/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("scenario text");
            (
                p.file_name().expect("name").to_string_lossy().into_owned(),
                text,
            )
        })
        .collect();
    docs.sort();
    assert!(docs.len() >= 7, "every built-in scenario is committed");
    for (name, text) in &docs {
        dsl::parse_str(text).unwrap_or_else(|e| panic!("{name} parses unmutated: {e}"));
    }
    fuzz_text(0xD5_1DEA, &docs, dsl::parse_str);
}

/// A submission log of real shape: the first three days of the
/// calibrated `sc2003` workload at 1 % scale, written as JSONL.
fn workload_log() -> String {
    let cfg = ScenarioConfig::sc2003().with_scale(0.01).with_seed(7);
    let mut jobs: Vec<TraceJob> = Vec::new();
    for w in cfg.scaled_workloads() {
        let mut rng = SimRng::for_label(cfg.seed, &format!("workload/{}", w.class.name()));
        for s in w.schedule(&mut rng, UserId(0), SimTime::from_days(3)) {
            let spec = s.spec;
            jobs.push(TraceJob {
                at: s.at,
                class: spec.class,
                user: format!("u{}", spec.user.0),
                runtime: spec.reference_runtime,
                input_bytes: spec.input_bytes.as_u64(),
                output_bytes: spec.output_bytes.as_u64(),
                scratch_bytes: spec.scratch_bytes.as_u64(),
                staged_files: spec.staged_files,
                needs_outbound: spec.needs_outbound,
                registers_output: spec.registers_output,
                walltime_factor: spec.requested_walltime.as_secs_f64()
                    / spec.reference_runtime.as_secs_f64(),
                affinity: w.vo_affinity,
            });
        }
    }
    jobs.sort_by_key(|j| j.at);
    JobTrace { jobs }.to_jsonl()
}

#[test]
fn mutated_submission_logs_parse_or_fail_typed() {
    let log = workload_log();
    let trace = JobTrace::parse_jsonl(&log).expect("the unmutated log parses");
    assert!(trace.jobs.len() >= 20, "{} jobs", trace.jobs.len());
    fuzz_text(0x10_6F11E5, &[("log".into(), log)], JobTrace::parse_jsonl);
}
