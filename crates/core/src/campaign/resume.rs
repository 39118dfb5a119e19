//! Crash-safe campaigns: a write-ahead journal of run outcomes,
//! mid-run checkpoint snapshots, and per-run watchdogs.
//!
//! [`run_campaign_resumable`] executes a [`CampaignPlan`] so that a
//! crash — of the host, the process, or a single pathological run —
//! never loses finished work:
//!
//! * **Write-ahead journal.** Every completed run's [`Grid3Report`]
//!   (and profile stats, when profiled) is appended to
//!   `campaign.wal`, and synced, *before* it is merged. Records are
//!   length-framed and checksummed, their payloads in the same
//!   positional binary codec as snapshots; on restart the journal is
//!   replayed, finished runs are skipped, and a torn or corrupt tail is
//!   truncated away — the partial record's run simply re-executes. Runs
//!   are a pure function of `(config, seed)`, so a replayed report is
//!   the report, and an interrupted-then-resumed campaign's merged bands
//!   are byte-identical to a never-interrupted sweep.
//! * **Checkpoint snapshots.** With a checkpoint cadence set, each run
//!   periodically writes an [`EngineSnapshot`] beside the journal,
//!   streamed from the live engine (no copy of its state, no whole-file
//!   buffer). A resume warm-starts the interrupted run from its latest
//!   snapshot instead of re-simulating the shared prefix —
//!   bit-identically, as locked by `tests/snapshot.rs`. (One caveat: the
//!   wall-clock *cost profile* of a warm-started run covers only the
//!   resumed portion; the simulated state is exact regardless.)
//! * **Watchdogs.** Each run executes on its own thread. A run that
//!   panics is quarantined by `catch_unwind`; one that exceeds its
//!   wall-clock budget is abandoned (the thread cannot be killed and
//!   is left detached, but the campaign moves on). Either way the
//!   outcome is a typed [`RunFailure`] journal record, the run's last
//!   checkpoint snapshot is retained for post-mortem inspection
//!   (`figures -- autopsy <snap>`), and the rest of the campaign
//!   completes with partial bands. Failed runs are re-executed on the
//!   next resume — a watchdog trip may have been environmental; a
//!   deterministic hang will simply fail again.
//!
//! The runs left after replay share the plain executor's worker pool,
//! one worker per core the process may use
//! (`std::thread::available_parallelism`). Workers append to the journal
//! under a lock, in *completion* order, and a run's checkpoint is
//! removed only once its record is synced. Replay is keyed by each
//! record's plan index, never by its position, so any completion order
//! resumes to the same bands; failures are returned in plan order. An
//! append that fails stops the campaign: no worker starts another run,
//! and the error is returned once the runs in flight end.

use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use super::{available_threads, merge_partial, run_pool, CampaignOutcome, CampaignPlan};
use crate::engine::Grid3Engine;
use crate::report::Grid3Report;
use crate::scenario::ScenarioConfig;
use crate::snapshot::{fnv1a64, sync_parent_dir, EngineSnapshot};
use grid3_simkit::profiler::{CenterStats, CostProfiler};
use grid3_simkit::time::SimDuration;
use serde::{Deserialize, Encode, Serialize};

/// Errors from the crash-safe campaign layer. Torn journal tails are
/// *not* errors (they are truncated and their runs re-executed); these
/// are the conditions a caller must decide about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Filesystem error (open/read/write/sync).
    Io(String),
    /// The journal on disk was written by a different campaign plan;
    /// replaying it would mis-attribute runs. Point the campaign at a
    /// fresh directory (or delete the stale journal).
    PlanMismatch,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "campaign journal io error: {msg}"),
            WalError::PlanMismatch => {
                write!(f, "campaign journal belongs to a different plan")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Why a watched run failed (the payload of a [`WalRecord::Failed`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunFailure {
    /// The run exceeded its wall-clock budget and was abandoned.
    TimedOut {
        /// The budget that was exceeded, in seconds.
        budget_secs: f64,
    },
    /// The run panicked and was quarantined.
    Panicked {
        /// The panic payload, rendered to a string.
        message: String,
    },
}

/// One record of the campaign write-ahead journal.
///
/// `Finished` dwarfs the other variants (it carries a full report),
/// but records are transient I/O values — encoded and dropped — so
/// boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    /// First record of every journal: fingerprint of the serialized
    /// plan, so a stale journal cannot be replayed against the wrong
    /// campaign.
    Header {
        /// FNV-1a over the plan's binary encoding.
        fingerprint: u64,
    },
    /// A run finished; its report is final and a resume replays it
    /// instead of re-executing.
    Finished {
        /// Plan-order run index.
        index: u64,
        /// The run's extracted report.
        report: Grid3Report,
        /// Per-center profile stats, when the run was profiled.
        profile: Option<Vec<CenterStats>>,
    },
    /// A run failed (timeout or panic). Recorded for the post-mortem
    /// trail; a resume re-executes the run.
    Failed {
        /// Plan-order run index.
        index: u64,
        /// The typed reason.
        failure: RunFailure,
    },
}

/// The append-only campaign journal: length-framed, checksummed
/// records, each payload a [`WalRecord`] in the positional binary codec
/// (`[u32 len][u64 FNV-1a][payload]`, all little-endian).
pub struct CampaignJournal {
    path: PathBuf,
    file: std::fs::File,
}

/// Scan the longest valid record prefix of `bytes`: stops at the first
/// frame that is torn (header or payload extends past the end), fails
/// its checksum, or does not decode — everything before it is intact
/// by construction (appends are strictly sequential). A journal written
/// in an older payload encoding fails to decode at its first frame and
/// reads as empty.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut pos = 0;
    let mut records = Vec::new();
    while bytes.len() - pos >= 12 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let Some(end) = pos.checked_add(12).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + 12..end];
        if fnv1a64(payload) != want {
            break;
        }
        let Ok(rec) = serde::binary::from_bytes::<WalRecord>(payload) else {
            break;
        };
        records.push(rec);
        pos = end;
    }
    (records, pos)
}

impl CampaignJournal {
    /// Open (or create) the journal at `path` for the plan with the
    /// given fingerprint.
    ///
    /// Returns the journal positioned for appending plus the valid
    /// records recovered, header excluded. A torn or corrupt tail is
    /// truncated off the file — torn-write tolerance: the partial
    /// record's run is simply not in the returned set and re-executes.
    /// A journal whose header names a different plan is refused with
    /// [`WalError::PlanMismatch`]. A new journal's header is synced and
    /// so is its directory entry, before this returns.
    pub fn open(path: &Path, fingerprint: u64) -> Result<(Self, Vec<WalRecord>), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", path.display()));
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };
        let (mut records, valid_len) = scan(&bytes);
        let fresh = records.is_empty();
        if !fresh {
            match &records[0] {
                WalRecord::Header { fingerprint: f } if *f == fingerprint => {}
                _ => return Err(WalError::PlanMismatch),
            }
            records.remove(0);
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        file.set_len(valid_len as u64).map_err(io)?;
        file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
        let mut journal = CampaignJournal {
            path: path.to_path_buf(),
            file,
        };
        if fresh {
            journal.append(&WalRecord::Header { fingerprint })?;
            sync_parent_dir(path).map_err(io)?;
        }
        Ok((journal, records))
    }

    /// Append one record and sync it to disk — the record is durable
    /// before the caller merges the run it describes (write-ahead).
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", self.path.display()));
        let mut frame = vec![0; 12];
        rec.encode(&mut frame);
        let payload = &frame[12..];
        let len = u32::try_from(payload.len())
            .map_err(|_| WalError::Io(format!("{}: record too large", self.path.display())))?;
        let sum = fnv1a64(payload);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..12].copy_from_slice(&sum.to_le_bytes());
        self.file.write_all(&frame).map_err(io)?;
        self.file.sync_data().map_err(io)
    }
}

/// FNV-1a over the plan's binary encoding: the journal's identity check.
pub fn plan_fingerprint(plan: &CampaignPlan) -> u64 {
    fnv1a64(&serde::binary::to_bytes(plan))
}

/// Options for [`run_campaign_resumable`].
#[derive(Debug, Clone)]
pub struct ResumableOptions {
    /// Directory holding the journal (`campaign.wal`) and per-run
    /// checkpoint snapshots (`run-NNNN.snap`). Created if absent; point
    /// a resume at the same directory.
    pub dir: PathBuf,
    /// Simulated time between mid-run checkpoint snapshots. `None`
    /// disables checkpointing (runs still journal on completion).
    pub checkpoint_every: Option<SimDuration>,
    /// Wall-clock budget per run, enforced by the watchdog. `None`
    /// disables the watchdog (runs may take arbitrarily long).
    pub run_budget: Option<Duration>,
}

impl ResumableOptions {
    /// Options with journaling only: no checkpoints, no watchdog.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResumableOptions {
            dir: dir.into(),
            checkpoint_every: None,
            run_budget: None,
        }
    }

    /// Checkpoint each run's engine every `every` of simulated time.
    pub fn with_checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Abandon any run that exceeds `budget` of wall-clock time.
    pub fn with_run_budget(mut self, budget: Duration) -> Self {
        self.run_budget = Some(budget);
        self
    }
}

/// A failed run in a [`ResumableOutcome`].
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// Plan-order run index.
    pub index: usize,
    /// The run's variant label.
    pub variant: String,
    /// The run's seed.
    pub seed: u64,
    /// The typed reason.
    pub failure: RunFailure,
    /// The run's latest checkpoint snapshot, retained on disk for
    /// post-mortem inspection (`None` if the run never checkpointed).
    pub snapshot: Option<PathBuf>,
}

/// Outcome of a resumable campaign.
#[derive(Debug, Clone)]
pub struct ResumableOutcome {
    /// The merged outcome over the completed runs. With failures the
    /// bands are partial (each variant's `seeds` names the runs that
    /// actually merged); with none this is byte-identical to
    /// [`run_with_threads`](super::run_with_threads).
    pub outcome: CampaignOutcome,
    /// Failed runs, in plan order.
    pub failures: Vec<FailedRun>,
    /// Runs replayed from the journal instead of re-executed.
    pub replayed: usize,
    /// Runs warm-started from a checkpoint snapshot.
    pub warm_started: usize,
}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `job` on a watchdog thread: panics are quarantined to a typed
/// failure, and with a budget set, a job that outlives it is abandoned
/// (the thread cannot be killed; it is detached and its eventual result
/// discarded).
fn watchdog<T, F>(budget: Option<Duration>, job: F) -> Result<T, RunFailure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("campaign-run".into())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let _ = tx.send(result.map_err(|p| panic_message(p.as_ref())));
        })
        .expect("spawn campaign run worker");
    let received = match budget {
        Some(b) => match rx.recv_timeout(b) {
            Ok(r) => r,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                drop(handle);
                return Err(RunFailure::TimedOut {
                    budget_secs: b.as_secs_f64(),
                });
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Err("run worker vanished without a result".to_string())
            }
        },
        None => rx
            .recv()
            .unwrap_or_else(|_| Err("run worker vanished without a result".to_string())),
    };
    let _ = handle.join();
    received.map_err(|message| RunFailure::Panicked { message })
}

/// True when `snap` was taken under exactly this configuration (equal
/// binary encodings, so floats compare bit for bit), so warm-starting
/// from it is sound.
fn snapshot_matches(snap: &EngineSnapshot<'_>, cfg: &ScenarioConfig) -> bool {
    serde::binary::to_bytes(snap.scenario()) == serde::binary::to_bytes(cfg)
}

/// Execute one run, warm-starting from `warm_bytes` when it parses to a
/// snapshot of this exact configuration, checkpointing every `every` of
/// simulated time. Returns the report, the profile (if profiled), and
/// whether the run warm-started.
fn run_checkpointed(
    cfg: ScenarioConfig,
    warm_bytes: Option<Vec<u8>>,
    snap_path: &Path,
    every: Option<SimDuration>,
) -> (Grid3Report, Option<CostProfiler>, bool) {
    let horizon = cfg.horizon();
    let mut warm = false;
    let mut engine = match warm_bytes.and_then(|b| EngineSnapshot::from_bytes(&b).ok()) {
        Some(snap) if snapshot_matches(&snap, &cfg) => {
            warm = true;
            Grid3Engine::restore(snap)
        }
        // Unreadable, corrupt, or mismatched snapshots degrade to a
        // cold start — never to a wrong result.
        _ => Grid3Engine::new(cfg),
    };
    if let Some(every) = every {
        let mut cut = engine.now() + every;
        while cut < horizon {
            engine.run_until(cut);
            // A checkpoint that fails to write must not kill the run;
            // the campaign just loses warm-start granularity.
            let _ = engine.write_snapshot(snap_path);
            cut += every;
        }
    }
    engine.run();
    let report = Grid3Report::extract(&engine);
    let profile = engine.take_profiler();
    (report, profile, warm)
}

/// A run's result on the worker that ran it: the report, the profile
/// (if profiled) and whether it warm-started; or the typed failure.
type RunResult = Result<(Grid3Report, Option<CostProfiler>, bool), FailedRun>;

/// Run the plan crash-safely: journal every outcome before merging,
/// checkpoint long runs, quarantine hung or panicking runs, and — when
/// `opts.dir` already holds a journal from an interrupted invocation of
/// the *same* plan — resume: finished runs replay from the journal,
/// interrupted ones warm-start from their latest checkpoint, failed
/// ones re-execute. The runs left to do share the cores this process
/// may use. See the module docs for the full contract.
pub fn run_campaign_resumable(
    plan: &CampaignPlan,
    opts: &ResumableOptions,
) -> Result<ResumableOutcome, WalError> {
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| WalError::Io(format!("{}: {e}", opts.dir.display())))?;
    let (journal, records) =
        CampaignJournal::open(&opts.dir.join("campaign.wal"), plan_fingerprint(plan))?;
    let runs = plan.runs();
    let n = runs.len();
    let mut slots: Vec<Option<(Grid3Report, Option<CostProfiler>)>> =
        (0..n).map(|_| None).collect();
    let mut replayed = 0usize;
    for rec in records {
        if let WalRecord::Finished {
            index,
            report,
            profile,
        } = rec
        {
            let i = index as usize;
            if i < n && slots[i].is_none() {
                let profile =
                    profile.map(|s| CostProfiler::from_stats(&crate::subsystems::COST_CENTERS, s));
                slots[i] = Some((report, profile));
                replayed += 1;
            }
        }
    }
    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    // The journal, or the first append error: once that is set, no
    // worker starts another run.
    let journal: Mutex<Result<CampaignJournal, WalError>> = Mutex::new(Ok(journal));
    let lock = || {
        journal
            .lock()
            .expect("journal lock poisoned by a panicking worker")
    };
    let results = run_pool(
        pending.len(),
        available_threads(),
        |k| -> Option<RunResult> {
            lock().as_ref().ok()?;
            let i = pending[k];
            let (vi, seed, cfg) = &runs[i];
            let snap_path = opts.dir.join(format!("run-{i:04}.snap"));
            let warm_bytes = std::fs::read(&snap_path).ok();
            let cfg = cfg.clone();
            let every = opts.checkpoint_every;
            let worker_path = snap_path.clone();
            let result = watchdog(opts.run_budget, move || {
                run_checkpointed(cfg, warm_bytes, &worker_path, every)
            });
            let record = match &result {
                Ok((report, profile, _)) => WalRecord::Finished {
                    index: i as u64,
                    report: report.clone(),
                    profile: profile.as_ref().map(|p| p.stats().to_vec()),
                },
                Err(failure) => WalRecord::Failed {
                    index: i as u64,
                    failure: failure.clone(),
                },
            };
            {
                let mut guard = lock();
                let appended = guard.as_mut().ok()?.append(&record);
                if let Err(e) = appended {
                    *guard = Err(e);
                    return None;
                }
            }
            Some(match result {
                Ok(done) => {
                    // The run is durable in the journal; its checkpoint is
                    // now redundant.
                    std::fs::remove_file(&snap_path).ok();
                    Ok(done)
                }
                Err(failure) => Err(FailedRun {
                    index: i,
                    variant: plan.variants[*vi].name.clone(),
                    seed: *seed,
                    failure,
                    snapshot: snap_path.exists().then_some(snap_path),
                }),
            })
        },
    );
    journal
        .into_inner()
        .expect("journal lock poisoned by a panicking worker")?;
    let mut failures: Vec<FailedRun> = Vec::new();
    let mut warm_started = 0usize;
    // Results come back in plan order, so `failures` is in plan order.
    for (i, result) in pending.into_iter().zip(results) {
        match result {
            Some(Ok((report, profile, warm))) => {
                warm_started += usize::from(warm);
                slots[i] = Some((report, profile));
            }
            Some(Err(failed)) => failures.push(failed),
            // Only a journal error leaves a run unstarted, and that
            // returned above.
            None => {}
        }
    }
    Ok(ResumableOutcome {
        outcome: merge_partial(plan, slots),
        failures,
        replayed,
        warm_started,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_results_through() {
        assert_eq!(watchdog(None, || 41 + 1), Ok(42));
        assert_eq!(
            watchdog(Some(Duration::from_secs(30)), || "ok".to_string()),
            Ok("ok".to_string())
        );
    }

    #[test]
    fn watchdog_quarantines_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result: Result<(), RunFailure> = watchdog(None, || panic!("boom at t={}", 7));
        std::panic::set_hook(prev);
        assert_eq!(
            result,
            Err(RunFailure::Panicked {
                message: "boom at t=7".to_string()
            })
        );
    }

    #[test]
    fn watchdog_abandons_over_budget_runs() {
        let result: Result<(), RunFailure> = watchdog(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_secs(2));
        });
        assert!(
            matches!(result, Err(RunFailure::TimedOut { budget_secs }) if budget_secs > 0.0),
            "{result:?}"
        );
    }

    #[test]
    fn journal_rejects_a_different_plans_journal() {
        let dir = std::env::temp_dir().join(format!("grid3-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("campaign.wal");
        let (journal, recovered) = CampaignJournal::open(&path, 0xAAAA).expect("fresh journal");
        drop(journal);
        assert!(recovered.is_empty());
        assert!(matches!(
            CampaignJournal::open(&path, 0xBBBB),
            Err(WalError::PlanMismatch)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
