//! Troubleshooting and accounting APIs — the §8 lesson, implemented.
//!
//! §8 asks for exactly this: "API for accessing troubleshooting and
//! accounting information are needed, particularly for the GRAM job
//! submission and GridFTP file transfer systems. These APIs should provide
//! direct information without the necessity of parsing log files", and
//! under Troubleshooting, "the ability to link a job ID on the execution
//! side with a job ID at the submit (VO) side."
//!
//! The [`TraceStore`] records a structured event stream per job — no log
//! parsing — and maintains the submit-side ↔ execution-side id mapping.
//! Query surfaces:
//!
//! * [`TraceStore::trace`] — the full lifecycle of one job;
//! * [`TraceStore::find_by_execution_id`] /
//!   [`TraceStore::find_by_submit_id`] — the §8 id linkage, both ways;
//! * [`TraceStore::stuck_jobs`] — jobs with no event for a given span
//!   (the "why is my job not running" question);
//! * [`TraceStore::accounting_by_user`] — per-user CPU accounting (the
//!   §5.2 auditing requirement);
//! * [`TraceStore::chrome_trace`] — every job's timed phases as one
//!   Chrome `trace_event` document.

use grid3_simkit::ids::{JobId, NodeId, SiteId, UserId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::FailureCause;
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A submit-side (VO/Condor-G) job identifier, distinct from the grid-wide
/// execution-side [`JobId`]. Real Grid3 had exactly this split — the DAGMan
/// log spoke one language, the gatekeeper another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubmitSideId(pub u64);

impl std::fmt::Display for SubmitSideId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vo-job-{}", self.0)
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The VO framework submitted the job (submit side).
    Submitted {
        /// The submitting user.
        user: UserId,
    },
    /// The broker chose an execution site.
    Brokered {
        /// The chosen site.
        site: SiteId,
    },
    /// The gatekeeper accepted the submission (execution side begins).
    GatekeeperAccepted,
    /// The gatekeeper refused the submission.
    GatekeeperRefused,
    /// Input staging started.
    StageInStarted {
        /// Payload size.
        bytes: Bytes,
    },
    /// Input staging finished.
    StageInDone,
    /// Queued by the local batch scheduler.
    Queued,
    /// Dispatched onto a worker node.
    Dispatched {
        /// The node.
        node: NodeId,
    },
    /// Execution finished (successfully or not; failures carry a cause in
    /// the terminal event).
    ExecutionEnded,
    /// Output staging started.
    StageOutStarted {
        /// Payload size.
        bytes: Bytes,
    },
    /// Output staging finished.
    StageOutDone,
    /// Output registered in RLS.
    Registered,
    /// Terminal success.
    Completed,
    /// Terminal failure.
    Failed(
        /// Why.
        FailureCause,
    ),
}

impl TraceEvent {
    /// Whether this event ends the job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TraceEvent::Completed | TraceEvent::Failed(_))
    }
}

/// A timed phase of a job's lifecycle, as [`TraceStore::chrome_trace`]
/// draws it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Job,
    Gram,
    StageIn,
    StageOut,
}

impl Phase {
    /// The phase's trace-event `(category, name, tid)`.
    fn label(self) -> (&'static str, &'static str, u32) {
        match self {
            Phase::Job => ("engine", "job", 1),
            Phase::Gram => ("gram", "manage_job", 2),
            Phase::StageIn => ("gridftp", "stage_in", 3),
            Phase::StageOut => ("gridftp", "stage_out", 3),
        }
    }
}

/// The recorded trace of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobTrace {
    /// Submit-side identifier.
    pub submit_id: SubmitSideId,
    /// Execution-side identifier.
    pub execution_id: JobId,
    /// Application class.
    pub class: UserClass,
    /// Timestamped lifecycle events, in order.
    pub events: Vec<(SimTime, TraceEvent)>,
}

impl JobTrace {
    /// The last recorded event.
    pub fn last_event(&self) -> Option<&(SimTime, TraceEvent)> {
        self.events.last()
    }

    /// Whether the job reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        self.last_event()
            .map(|(_, e)| e.is_terminal())
            .unwrap_or(false)
    }

    /// Wall time from submission to the terminal event, if terminal.
    pub fn turnaround(&self) -> Option<SimDuration> {
        let first = self.events.first()?.0;
        let (last, e) = self.events.last()?;
        e.is_terminal().then(|| last.since(first))
    }

    /// Time between two named phases (first occurrence of each), e.g.
    /// queue wait = `Queued` → `Dispatched`.
    pub fn span_between(
        &self,
        from: impl Fn(&TraceEvent) -> bool,
        to: impl Fn(&TraceEvent) -> bool,
    ) -> Option<SimDuration> {
        let start = self.events.iter().find(|(_, e)| from(e))?.0;
        let end = self.events.iter().find(|(_, e)| to(e))?.0;
        Some(end.since(start))
    }

    /// Call `emit(phase, begin, end, error)` for each phase of this job
    /// that has ended, in the order they end:
    ///
    /// * [`Phase::Job`] — submission to the terminal event, in error when
    ///   the job failed;
    /// * [`Phase::Gram`] — gatekeeper acceptance to the terminal event.
    ///   A refusal is an instant in error, and so is an accepted attempt
    ///   given up for re-brokering (its stage-in could not start);
    /// * [`Phase::StageIn`] / [`Phase::StageOut`] — a stage's start to
    ///   its end, in error when the job died first. A stage that took no
    ///   simulated time moved nothing over the wire and is left out.
    ///
    /// Phases still open at the last event (a job in flight) are not
    /// emitted.
    fn phases(&self, mut emit: impl FnMut(Phase, SimTime, SimTime, bool)) {
        let mut accepted: Option<SimTime> = None;
        let mut stage: Option<(Phase, SimTime)> = None;
        let mut last = SimTime::EPOCH;
        for &(at, event) in &self.events {
            let failed = matches!(event, TraceEvent::Failed(_));
            if failed || matches!(event, TraceEvent::StageInDone | TraceEvent::StageOutDone) {
                if let Some((phase, begin)) = stage.take() {
                    if at > begin {
                        emit(phase, begin, at, failed);
                    }
                }
            }
            match event {
                // Attempts are only given up synchronously, at the instant
                // of their last event.
                TraceEvent::Brokered { .. } => {
                    if let Some(begin) = accepted.take() {
                        emit(Phase::Gram, begin, last, true);
                    }
                    stage = None;
                }
                TraceEvent::GatekeeperRefused => emit(Phase::Gram, at, at, true),
                TraceEvent::GatekeeperAccepted => accepted = Some(at),
                TraceEvent::StageInStarted { .. } => stage = Some((Phase::StageIn, at)),
                TraceEvent::StageOutStarted { .. } => stage = Some((Phase::StageOut, at)),
                TraceEvent::Completed | TraceEvent::Failed(_) => {
                    if let Some(begin) = accepted.take() {
                        emit(Phase::Gram, begin, at, false);
                    }
                    emit(Phase::Job, self.events[0].0, at, failed);
                }
                _ => {}
            }
            last = at;
        }
    }

    /// Render the trace as a human-readable timeline (the web view §8
    /// wished it had).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} ↔ {} ({})\n",
            self.submit_id, self.execution_id, self.class
        );
        for (at, e) in &self.events {
            let _ = writeln!(out, "  {at}  {e:?}");
        }
        out
    }
}

/// Per-user accounting rollup (the §5.2 auditing requirement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UserAccount {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// CPU seconds consumed (dispatch → execution end).
    pub cpu_secs: f64,
    /// Bytes staged in and out.
    pub bytes_moved: u64,
}

impl UserAccount {
    /// CPU-days consumed.
    pub fn cpu_days(&self) -> f64 {
        self.cpu_secs / 86_400.0
    }
}

/// Per-job side state kept dense by job index so [`TraceStore::record`]
/// is an index, not a map probe: the trace slot, the owning user, and
/// the pending dispatch timestamp.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct JobSide {
    /// Index into `traces`, or [`NO_TRACE`] for a job never opened.
    trace: u32,
    user: UserId,
    /// When the running dispatch started; [`NO_DISPATCH`] when none is
    /// pending.
    dispatch_at: SimTime,
}

const NO_TRACE: u32 = u32::MAX;
const NO_DISPATCH: SimTime = SimTime::from_micros(u64::MAX);

const UNKNOWN_JOB: JobSide = JobSide {
    trace: NO_TRACE,
    user: UserId(0),
    dispatch_at: NO_DISPATCH,
};

/// The structured trace store.
///
/// Execution-side job ids and user ids are allocated densely, so the
/// lookup tables are vectors indexed by id; submit-side ids are handed
/// out by this store one per opened trace, so `SubmitSideId(n)` *is*
/// `traces[n]` and needs no table at all.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceStore {
    traces: Vec<JobTrace>,
    jobs: Vec<JobSide>,
    accounts: Vec<UserAccount>,
    next_submit_id: u64,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn account_mut(&mut self, user: UserId) -> &mut UserAccount {
        let u = user.index();
        if u >= self.accounts.len() {
            self.accounts.resize(u + 1, UserAccount::default());
        }
        &mut self.accounts[u]
    }

    /// Open a trace for a new submission; allocates and links the
    /// submit-side id. Returns the submit-side id.
    pub fn open(
        &mut self,
        execution_id: JobId,
        class: UserClass,
        user: UserId,
        at: SimTime,
    ) -> SubmitSideId {
        let submit_id = SubmitSideId(self.next_submit_id);
        self.next_submit_id += 1;
        let idx = self.traces.len();
        // A full lifecycle is ~10 events; one up-front reservation spares
        // the doubling reallocations on every trace.
        let mut events = Vec::with_capacity(12);
        events.push((at, TraceEvent::Submitted { user }));
        self.traces.push(JobTrace {
            submit_id,
            execution_id,
            class,
            events,
        });
        let j = execution_id.index();
        if j >= self.jobs.len() {
            self.jobs.resize(j + 1, UNKNOWN_JOB);
        }
        self.jobs[j] = JobSide {
            trace: idx as u32,
            user,
            dispatch_at: NO_DISPATCH,
        };
        self.account_mut(user).submitted += 1;
        submit_id
    }

    /// Record an event against a job. Unknown jobs are ignored (defensive:
    /// the store may be enabled mid-run).
    pub fn record(&mut self, job: JobId, at: SimTime, event: TraceEvent) {
        let Some(side) = self.jobs.get(job.index()).copied() else {
            return;
        };
        if side.trace == NO_TRACE {
            return;
        }
        // Accounting side effects.
        match &event {
            TraceEvent::Dispatched { .. } => {
                self.jobs[job.index()].dispatch_at = at;
            }
            TraceEvent::ExecutionEnded if side.dispatch_at != NO_DISPATCH => {
                self.jobs[job.index()].dispatch_at = NO_DISPATCH;
                self.account_mut(side.user).cpu_secs += at.since(side.dispatch_at).as_secs_f64();
            }
            TraceEvent::StageInStarted { bytes } | TraceEvent::StageOutStarted { bytes } => {
                self.account_mut(side.user).bytes_moved += bytes.as_u64();
            }
            TraceEvent::Completed => {
                self.account_mut(side.user).completed += 1;
            }
            TraceEvent::Failed(_) => {
                self.account_mut(side.user).failed += 1;
            }
            _ => {}
        }
        self.traces[side.trace as usize].events.push((at, event));
    }

    /// The trace of an execution-side job.
    pub fn trace(&self, job: JobId) -> Option<&JobTrace> {
        let side = self.jobs.get(job.index())?;
        if side.trace == NO_TRACE {
            return None;
        }
        Some(&self.traces[side.trace as usize])
    }

    /// §8 linkage: execution-side id → full trace (including submit id).
    pub fn find_by_execution_id(&self, job: JobId) -> Option<&JobTrace> {
        self.trace(job)
    }

    /// §8 linkage: submit-side id → full trace (including execution id).
    pub fn find_by_submit_id(&self, submit: SubmitSideId) -> Option<&JobTrace> {
        self.traces.get(usize::try_from(submit.0).ok()?)
    }

    /// Number of traces held.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no traces were recorded.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Non-terminal jobs whose last event is older than `idle` at `now` —
    /// the troubleshooting query operators actually run.
    pub fn stuck_jobs(&self, now: SimTime, idle: SimDuration) -> Vec<&JobTrace> {
        self.traces
            .iter()
            .filter(|t| !t.is_terminal())
            .filter(|t| {
                t.last_event()
                    .map(|(at, _)| now.since(*at) > idle)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Per-user accounting (§5.2 auditing).
    pub fn accounting_by_user(&self, user: UserId) -> UserAccount {
        self.accounts.get(user.index()).copied().unwrap_or_default()
    }

    /// All accounts, sorted by CPU seconds descending (the heavy hitters
    /// an operations review starts from).
    pub fn top_users(&self, n: usize) -> Vec<(UserId, UserAccount)> {
        // Every account is touched through `open` first, so submitted > 0
        // distinguishes real users from dense-table padding.
        let mut v: Vec<(UserId, UserAccount)> = self
            .accounts
            .iter()
            .enumerate()
            .filter(|(_, a)| a.submitted > 0)
            .map(|(u, a)| (UserId(u as u32), *a))
            .collect();
        v.sort_by(|a, b| {
            grid3_simkit::stats::cmp_f64_desc(a.1.cpu_secs, b.1.cpu_secs)
                .then_with(|| a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// Mean queue wait (Queued → Dispatched) across terminal traces — the
    /// §8 scheduling-information lesson's headline statistic.
    pub fn mean_queue_wait(&self) -> Option<SimDuration> {
        let waits: Vec<f64> = self
            .traces
            .iter()
            .filter_map(|t| {
                t.span_between(
                    |e| matches!(e, TraceEvent::Queued),
                    |e| matches!(e, TraceEvent::Dispatched { .. }),
                )
            })
            .map(|d| d.as_secs_f64())
            .collect();
        if waits.is_empty() {
            None
        } else {
            Some(SimDuration::from_secs_f64(
                waits.iter().sum::<f64>() / waits.len() as f64,
            ))
        }
    }

    /// Every job's ended phases (see `JobTrace::phases`) as a Chrome
    /// `trace_event` document: complete `"X"` events with microsecond
    /// timestamps, one tid per category, the execution-side job id and
    /// the error flag in `args` — loadable in `chrome://tracing` or
    /// Perfetto. Jobs appear in submission order.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for t in &self.traces {
            t.phases(|phase, begin, end, error| {
                if !out.ends_with('[') {
                    out.push(',');
                }
                let (cat, name, tid) = phase.label();
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"job\":{},\"error\":{error}}}}}",
                    begin.as_micros(),
                    end.since(begin).as_micros(),
                    t.execution_id.0
                );
            });
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_one_job() -> (TraceStore, JobId, SubmitSideId) {
        let mut ts = TraceStore::new();
        let job = JobId(7);
        let sid = ts.open(job, UserClass::Usatlas, UserId(3), SimTime::from_secs(0));
        ts.record(
            job,
            SimTime::from_secs(1),
            TraceEvent::Brokered { site: SiteId(2) },
        );
        ts.record(job, SimTime::from_secs(2), TraceEvent::GatekeeperAccepted);
        ts.record(
            job,
            SimTime::from_secs(3),
            TraceEvent::StageInStarted {
                bytes: Bytes::from_gb(1),
            },
        );
        ts.record(job, SimTime::from_secs(100), TraceEvent::StageInDone);
        ts.record(job, SimTime::from_secs(100), TraceEvent::Queued);
        ts.record(
            job,
            SimTime::from_secs(400),
            TraceEvent::Dispatched { node: NodeId(5) },
        );
        ts.record(job, SimTime::from_secs(4_000), TraceEvent::ExecutionEnded);
        ts.record(
            job,
            SimTime::from_secs(4_001),
            TraceEvent::StageOutStarted {
                bytes: Bytes::from_gb(2),
            },
        );
        ts.record(job, SimTime::from_secs(4_200), TraceEvent::StageOutDone);
        ts.record(job, SimTime::from_secs(4_201), TraceEvent::Registered);
        ts.record(job, SimTime::from_secs(4_201), TraceEvent::Completed);
        (ts, job, sid)
    }

    #[test]
    fn id_linkage_works_both_ways() {
        let (ts, job, sid) = store_with_one_job();
        let by_exec = ts.find_by_execution_id(job).unwrap();
        assert_eq!(by_exec.submit_id, sid);
        let by_submit = ts.find_by_submit_id(sid).unwrap();
        assert_eq!(by_submit.execution_id, job);
        assert!(ts.find_by_submit_id(SubmitSideId(999)).is_none());
    }

    #[test]
    fn trace_answers_lifecycle_questions() {
        let (ts, job, _) = store_with_one_job();
        let t = ts.trace(job).unwrap();
        assert!(t.is_terminal());
        assert_eq!(t.turnaround(), Some(SimDuration::from_secs(4_201)));
        // Queue wait: Queued (t=100) → Dispatched (t=400).
        let wait = t
            .span_between(
                |e| matches!(e, TraceEvent::Queued),
                |e| matches!(e, TraceEvent::Dispatched { .. }),
            )
            .unwrap();
        assert_eq!(wait, SimDuration::from_secs(300));
        assert_eq!(ts.mean_queue_wait(), Some(SimDuration::from_secs(300)));
        // The render names both ids.
        let rendered = t.render();
        assert!(rendered.contains("vo-job-0"));
        assert!(rendered.contains("job-7"));
    }

    #[test]
    fn accounting_rolls_up_per_user() {
        let (ts, _, _) = store_with_one_job();
        let acct = ts.accounting_by_user(UserId(3));
        assert_eq!(acct.submitted, 1);
        assert_eq!(acct.completed, 1);
        assert_eq!(acct.failed, 0);
        // CPU: dispatch (400) → execution end (4000) = 3600 s = 1 h.
        assert!((acct.cpu_secs - 3_600.0).abs() < 1e-9);
        assert!((acct.cpu_days() - 1.0 / 24.0).abs() < 1e-12);
        assert_eq!(acct.bytes_moved, 3_000_000_000);
        // Unknown users have empty accounts.
        assert_eq!(ts.accounting_by_user(UserId(99)), UserAccount::default());
    }

    #[test]
    fn stuck_job_detection() {
        let mut ts = TraceStore::new();
        let job = JobId(1);
        ts.open(job, UserClass::Sdss, UserId(0), SimTime::from_secs(0));
        ts.record(job, SimTime::from_secs(10), TraceEvent::Queued);
        // 2 hours later, still queued: stuck by a 1-hour idle criterion.
        let stuck = ts.stuck_jobs(SimTime::from_hours(2), SimDuration::from_hours(1));
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].execution_id, job);
        // Terminal jobs are never "stuck".
        ts.record(
            job,
            SimTime::from_hours(2),
            TraceEvent::Failed(FailureCause::Misconfiguration),
        );
        assert!(ts
            .stuck_jobs(SimTime::from_hours(50), SimDuration::from_hours(1))
            .is_empty());
    }

    #[test]
    fn failed_jobs_account_cpu_burned() {
        let mut ts = TraceStore::new();
        let job = JobId(2);
        ts.open(job, UserClass::Uscms, UserId(9), SimTime::from_secs(0));
        ts.record(job, SimTime::from_secs(5), TraceEvent::Queued);
        ts.record(
            job,
            SimTime::from_secs(10),
            TraceEvent::Dispatched { node: NodeId(0) },
        );
        ts.record(job, SimTime::from_secs(7_210), TraceEvent::ExecutionEnded);
        ts.record(
            job,
            SimTime::from_secs(7_210),
            TraceEvent::Failed(FailureCause::NodeRollover),
        );
        let acct = ts.accounting_by_user(UserId(9));
        assert_eq!(acct.failed, 1);
        assert!((acct.cpu_secs - 7_200.0).abs() < 1e-9);
    }

    #[test]
    fn top_users_orders_by_cpu() {
        let mut ts = TraceStore::new();
        for (jid, user, secs) in [(1u32, 1u32, 100u64), (2, 2, 5_000), (3, 3, 1_000)] {
            let job = JobId(jid);
            ts.open(job, UserClass::Ivdgl, UserId(user), SimTime::from_secs(0));
            ts.record(
                job,
                SimTime::from_secs(1),
                TraceEvent::Dispatched { node: NodeId(0) },
            );
            ts.record(
                job,
                SimTime::from_secs(1 + secs),
                TraceEvent::ExecutionEnded,
            );
            ts.record(job, SimTime::from_secs(1 + secs), TraceEvent::Completed);
        }
        let top = ts.top_users(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, UserId(2));
        assert_eq!(top[1].0, UserId(3));
    }

    fn phases_of(t: &JobTrace) -> Vec<(Phase, u64, u64, bool)> {
        let secs = |t: SimTime| t.as_micros() / 1_000_000;
        let mut out = Vec::new();
        t.phases(|phase, begin, end, error| out.push((phase, secs(begin), secs(end), error)));
        out
    }

    #[test]
    fn completed_job_has_four_phases() {
        let (ts, job, _) = store_with_one_job();
        assert_eq!(
            phases_of(ts.trace(job).unwrap()),
            vec![
                (Phase::StageIn, 3, 100, false),
                (Phase::StageOut, 4_001, 4_200, false),
                (Phase::Gram, 2, 4_201, false),
                (Phase::Job, 0, 4_201, false),
            ]
        );
    }

    #[test]
    fn given_up_attempts_and_untimed_stages_are_phases_in_error_or_none() {
        let mut ts = TraceStore::new();
        let job = JobId(3);
        let at = SimTime::from_secs;
        let site = TraceEvent::Brokered { site: SiteId(1) };
        let stage_in = TraceEvent::StageInStarted {
            bytes: Bytes::from_gb(1),
        };
        ts.open(job, UserClass::Uscms, UserId(0), at(0));
        // Refused on first contact, then accepted but unable to start its
        // stage-in (re-brokered), then killed while staging in.
        for (t, e) in [
            (0, site),
            (0, TraceEvent::GatekeeperRefused),
            (60, site),
            (60, TraceEvent::GatekeeperAccepted),
            (60, stage_in),
            (120, site),
            (120, TraceEvent::GatekeeperAccepted),
            (120, stage_in),
            (150, TraceEvent::Failed(FailureCause::ServiceFailure)),
        ] {
            ts.record(job, at(t), e);
        }
        assert_eq!(
            phases_of(ts.trace(job).unwrap()),
            vec![
                (Phase::Gram, 0, 0, true),
                (Phase::Gram, 60, 60, true),
                (Phase::StageIn, 120, 150, true),
                (Phase::Gram, 120, 150, false),
                (Phase::Job, 0, 150, true),
            ]
        );
        // A local stage-in takes no time and is no phase; a job still in
        // flight has no job or gatekeeper phase yet.
        let local = JobId(4);
        ts.open(local, UserClass::Uscms, UserId(0), at(0));
        for (t, e) in [
            (0, site),
            (0, TraceEvent::GatekeeperAccepted),
            (0, stage_in),
            (0, TraceEvent::StageInDone),
            (0, TraceEvent::Queued),
            (5, TraceEvent::Dispatched { node: NodeId(0) }),
        ] {
            ts.record(local, at(t), e);
        }
        assert!(phases_of(ts.trace(local).unwrap()).is_empty());
    }

    #[test]
    fn chrome_trace_writes_one_event_per_phase() {
        let (ts, _, _) = store_with_one_job();
        let trace = ts.chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":[{\"name\":\"stage_in\",\"cat\":\"gridftp\""));
        assert!(trace.ends_with("}]}"));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 4);
        assert!(trace.contains(
            "{\"name\":\"job\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":0,\"dur\":4201000000,\
             \"pid\":1,\"tid\":1,\"args\":{\"job\":7,\"error\":false}}"
        ));
        assert_eq!(TraceStore::new().chrome_trace(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn events_recorded_against_unknown_jobs_are_ignored() {
        let mut ts = TraceStore::new();
        ts.record(JobId(42), SimTime::EPOCH, TraceEvent::Queued);
        assert!(ts.is_empty());
        assert!(ts.trace(JobId(42)).is_none());
    }

    #[test]
    fn submit_ids_are_unique_and_monotone() {
        let mut ts = TraceStore::new();
        let a = ts.open(JobId(1), UserClass::Btev, UserId(0), SimTime::EPOCH);
        let b = ts.open(JobId(2), UserClass::Btev, UserId(0), SimTime::EPOCH);
        assert_eq!(a, SubmitSideId(0));
        assert_eq!(b, SubmitSideId(1));
        assert_eq!(ts.len(), 2);
    }
}
