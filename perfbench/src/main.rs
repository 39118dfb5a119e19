//! `grid3-perfbench`: runs one named workload in a fresh process and
//! prints what it measured as one JSON line (see `run.py`, which builds
//! this binary, gates the report hashes and prints the final result).
//!
//! ```text
//! grid3-perfbench --workload <name> --seed <n> --seconds <s>
//!                 --root <checkout> --scratch <dir> [--smoke] [--spans <file>]
//! ```
//!
//! The traced build (`--features traced`) runs the traced measurement.

mod host;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Outcome, Settings, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("grid3-perfbench: {msg}");
    eprintln!(
        "usage: grid3-perfbench --workload <{}> --seed <n> --seconds <s> --root <dir> --scratch <dir> [--smoke] [--spans <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut root = None;
    let mut scratch = None;
    let mut spans_out = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--root" => root = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--spans" => spans_out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let settings = Settings {
        root: root.unwrap_or_else(|| usage("--root is required")),
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: cfg!(feature = "traced"),
        smoke,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let outcome = match workloads::run(&workload, &settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("grid3-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(&path, outcome.spans.to_jsonl()) {
            eprintln!("grid3-perfbench: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", to_json(&workload, &settings, &outcome));
}

fn to_json(workload: &str, s: &Settings, o: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{},\"traced\":{},\"threads\":{},\"attempted\":{},\"failed\":{},\"errors\":[",
        s.seed, s.traced, s.threads, o.ledger.attempted, o.ledger.failed
    );
    for (i, e) in o.ledger.errors.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\"",
            e.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push_str("],\"runs\":[");
    for (i, (id, hash)) in o.runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}[\"{id}\",\"0x{hash:016x}\"]");
    }
    out.push_str("],\"metrics\":{");
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
