//! Trace replay: per-job submission logs as an arrival process.
//!
//! A trace is JSONL — one JSON object per line, one line per job — giving
//! the submit instant, user class (VO), submitting user, and the full job
//! shape. Trace jobs are completely specified, so replay draws *no*
//! randomness: a replayed run is bit-deterministic by construction, and
//! replaying the same log twice yields byte-identical reports.
//!
//! The same per-job object shape is accepted inline in a scenario file
//! (`"trace": {"jobs": [...]}`), which is also the canonical form the
//! exporter writes.

use super::decode::{self as d, DslError};
use grid3_simkit::ids::UserId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;

/// One logged job submission. Defaults (documented per field) let a log
/// carry only the submit time, class, user and runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJob {
    /// Submit instant (log key `at_us`, or `at_secs` for hand-written logs).
    pub at: SimTime,
    /// The submitting user's class/VO (log key `class`, a Table 1 name).
    pub class: UserClass,
    /// Opaque user label; each distinct `(class, user)` pair becomes one
    /// registered grid user.
    pub user: String,
    /// Reference-CPU runtime (`runtime_us` or `runtime_secs`).
    pub runtime: SimDuration,
    /// Stage-in bytes (`input_bytes`, default 0).
    pub input_bytes: u64,
    /// Stage-out bytes (`output_bytes`, default 0).
    pub output_bytes: u64,
    /// Scratch bytes (`scratch_bytes`, default = `output_bytes`).
    pub scratch_bytes: u64,
    /// Files staged per job (`staged_files`, default 0).
    pub staged_files: u32,
    /// Needs outbound connectivity (`needs_outbound`, default false).
    pub needs_outbound: bool,
    /// Registers outputs in RLS (`registers_output`, default false).
    pub registers_output: bool,
    /// Requested walltime as a multiple of runtime (`walltime_factor`,
    /// default 2.0; must be positive).
    pub walltime_factor: f64,
    /// Probability-style VO affinity passed to the broker (`affinity`,
    /// default 0.0, in `[0, 1]`).
    pub affinity: f64,
}

const JOB_KEYS: &[&str] = &[
    "at_us",
    "at_secs",
    "class",
    "user",
    "runtime_us",
    "runtime_secs",
    "input_bytes",
    "output_bytes",
    "scratch_bytes",
    "staged_files",
    "needs_outbound",
    "registers_output",
    "walltime_factor",
    "affinity",
];

impl TraceJob {
    /// Decode one trace-job object (shared by JSONL lines and inline
    /// `trace.jobs` arrays).
    pub(crate) fn decode(v: &Value, path: &str) -> Result<TraceJob, DslError> {
        let o = d::as_object(v, path)?;
        d::check_keys(o, path, JOB_KEYS)?;
        let at = match (d::get(o, "at_us"), d::get(o, "at_secs")) {
            (Some(us), _) => {
                SimTime::EPOCH
                    + SimDuration::from_micros(d::u64_value(us, &d::join(path, "at_us"))?)
            }
            (None, Some(secs)) => {
                let s = d::f64_value(secs, &d::join(path, "at_secs"))?;
                if s < 0.0 {
                    return Err(DslError::field(
                        &d::join(path, "at_secs"),
                        "submit time cannot be negative",
                    ));
                }
                SimTime::EPOCH + SimDuration::from_secs_f64(s)
            }
            (None, None) => {
                return Err(DslError::field(
                    path,
                    "missing submit time (`at_us` or `at_secs`)",
                ))
            }
        };
        let class = d::user_class(
            d::get(o, "class")
                .ok_or_else(|| DslError::field(path, "missing required field `class`"))?,
            &d::join(path, "class"),
        )?;
        let user = d::str_value(
            d::get(o, "user")
                .ok_or_else(|| DslError::field(path, "missing required field `user`"))?,
            &d::join(path, "user"),
        )?
        .to_string();
        let runtime = match (d::get(o, "runtime_us"), d::get(o, "runtime_secs")) {
            (Some(us), _) => {
                SimDuration::from_micros(d::u64_value(us, &d::join(path, "runtime_us"))?)
            }
            (None, Some(secs)) => {
                let s = d::f64_value(secs, &d::join(path, "runtime_secs"))?;
                if s < 0.0 {
                    return Err(DslError::field(
                        &d::join(path, "runtime_secs"),
                        "runtime cannot be negative",
                    ));
                }
                SimDuration::from_secs_f64(s)
            }
            (None, None) => {
                return Err(DslError::field(
                    path,
                    "missing runtime (`runtime_us` or `runtime_secs`)",
                ))
            }
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, DslError> {
            d::get(o, key)
                .map(|v| d::u64_value(v, &d::join(path, key)))
                .transpose()
        };
        let input_bytes = opt_u64("input_bytes")?.unwrap_or(0);
        let output_bytes = opt_u64("output_bytes")?.unwrap_or(0);
        let scratch_bytes = opt_u64("scratch_bytes")?.unwrap_or(output_bytes);
        let staged_files = d::get(o, "staged_files")
            .map(|v| d::u32_value(v, &d::join(path, "staged_files")))
            .transpose()?
            .unwrap_or(0);
        let opt_bool = |key: &str| -> Result<bool, DslError> {
            d::get(o, key)
                .map(|v| d::bool_value(v, &d::join(path, key)))
                .transpose()
                .map(|b| b.unwrap_or(false))
        };
        let walltime_factor = d::get(o, "walltime_factor")
            .map(|v| d::f64_value(v, &d::join(path, "walltime_factor")))
            .transpose()?
            .unwrap_or(2.0);
        if walltime_factor <= 0.0 {
            return Err(DslError::field(
                &d::join(path, "walltime_factor"),
                format!("{walltime_factor} is not positive"),
            ));
        }
        let affinity = d::get(o, "affinity")
            .map(|v| d::fraction_value(v, &d::join(path, "affinity")))
            .transpose()?
            .unwrap_or(0.0);
        Ok(TraceJob {
            at,
            class,
            user,
            runtime,
            input_bytes,
            output_bytes,
            scratch_bytes,
            staged_files,
            needs_outbound: opt_bool("needs_outbound")?,
            registers_output: opt_bool("registers_output")?,
            walltime_factor,
            affinity,
        })
    }

    /// Canonical object form: every field explicit, micros for times.
    pub(crate) fn encode(&self) -> Value {
        Value::Object(vec![
            (
                "at_us".into(),
                Value::U64(self.at.since(SimTime::EPOCH).as_micros()),
            ),
            ("class".into(), Value::Str(self.class.name().to_string())),
            ("user".into(), Value::Str(self.user.clone())),
            ("runtime_us".into(), Value::U64(self.runtime.as_micros())),
            ("input_bytes".into(), Value::U64(self.input_bytes)),
            ("output_bytes".into(), Value::U64(self.output_bytes)),
            ("scratch_bytes".into(), Value::U64(self.scratch_bytes)),
            ("staged_files".into(), Value::U64(self.staged_files as u64)),
            ("needs_outbound".into(), Value::Bool(self.needs_outbound)),
            (
                "registers_output".into(),
                Value::Bool(self.registers_output),
            ),
            ("walltime_factor".into(), Value::F64(self.walltime_factor)),
            ("affinity".into(), Value::F64(self.affinity)),
        ])
    }

    /// The fully-specified job spec this entry replays as.
    pub fn spec(&self, user: UserId) -> JobSpec {
        JobSpec {
            class: self.class,
            user,
            reference_runtime: self.runtime,
            requested_walltime: self.runtime * self.walltime_factor,
            input_bytes: Bytes::new(self.input_bytes),
            output_bytes: Bytes::new(self.output_bytes),
            scratch_bytes: Bytes::new(self.scratch_bytes),
            needs_outbound: self.needs_outbound,
            staged_files: self.staged_files,
            registers_output: self.registers_output,
        }
    }
}

/// A submission log: jobs replayed in log order at their logged instants.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobTrace {
    /// The logged submissions.
    pub jobs: Vec<TraceJob>,
}

impl JobTrace {
    /// Parse a JSONL submission log. Blank lines and `#` comment lines
    /// are skipped; errors carry the 1-based log line.
    pub fn parse_jsonl(text: &str) -> Result<JobTrace, DslError> {
        let mut jobs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let value: Value =
                serde_json::from_str(trimmed).map_err(|e| {
                    match DslError::syntax(trimmed, &e.to_string()) {
                        DslError::Syntax { column, msg, .. } => DslError::Syntax {
                            line: lineno + 1,
                            column,
                            msg,
                        },
                        other => other,
                    }
                })?;
            jobs.push(TraceJob::decode(&value, &format!("line {}", lineno + 1))?);
        }
        Ok(JobTrace { jobs })
    }

    /// Load a JSONL submission log from disk.
    pub fn load_jsonl(path: &std::path::Path) -> Result<JobTrace, DslError> {
        let text = std::fs::read_to_string(path).map_err(|e| DslError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Self::parse_jsonl(&text)
    }

    /// Render the trace back to canonical JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            out.push_str(&serde_json::to_string(&job.encode()).expect("value renders"));
            out.push('\n');
        }
        out
    }

    /// The distinct `(class, user)` identities in first-occurrence order —
    /// the population the assembly registers with VOMS/CA/AUP. One pass
    /// over the log, with an ordered set of the identities seen so far
    /// (labels come from the log, so no hash a crafted log could flood).
    pub fn identities(&self) -> Vec<(UserClass, &str)> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for job in &self.jobs {
            let identity = (job.class, job.user.as_str());
            if seen.insert(identity) {
                out.push(identity);
            }
        }
        out
    }
}
