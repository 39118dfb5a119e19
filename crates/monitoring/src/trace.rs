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

use crate::chunked::ChunkedLog;
use grid3_simkit::ids::{JobId, NodeId, SiteId, UserId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::FailureCause;
use grid3_site::vo::UserClass;
use serde::{Decode, DecodeError, Deserialize, Encode, Reader, Serialize, Sink};
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

/// Call `emit(phase, begin, end, error)` for each phase that has ended
/// in one job's `events`, in the order the phases end:
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
fn phases(events: &[(SimTime, TraceEvent)], mut emit: impl FnMut(Phase, SimTime, SimTime, bool)) {
    let mut accepted: Option<SimTime> = None;
    let mut stage: Option<(Phase, SimTime)> = None;
    let mut last = SimTime::EPOCH;
    for &(at, event) in events {
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
                emit(Phase::Job, events[0].0, at, failed);
            }
            _ => {}
        }
        last = at;
    }
}

/// Append the ended phases of `job`, whose events are `events`, to a
/// Chrome trace document under construction (see
/// [`TraceStore::chrome_trace`]).
fn write_chrome_phases(out: &mut String, job: JobId, events: &[(SimTime, TraceEvent)]) {
    phases(events, |phase, begin, end, error| {
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
            job.0
        );
    });
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
/// is an index, not a map probe: the trace slot, the owning user, the
/// pending dispatch timestamp, and the job's newest event in the log.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct JobSide {
    /// Index into `heads`, or [`NO_TRACE`] for a job never opened.
    trace: u32,
    user: UserId,
    /// When the running dispatch started; [`NO_DISPATCH`] when none is
    /// pending.
    dispatch_at: SimTime,
    /// Log position of the job's newest event. Derived: snapshots carry
    /// each trace's events in order, and decoding relinks them.
    #[serde(skip)]
    last: u32,
}

/// What a trace holds besides its events.
#[derive(Debug, Clone, Copy)]
struct TraceHead {
    execution_id: JobId,
    class: UserClass,
    /// Log position of the trace's newest event once its job id was
    /// opened again under a new trace; [`NO_EVENT`] while the job's
    /// side-table entry tracks it.
    superseded_last: u32,
}

/// One logged event, linked back to the same job's previous event.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    event: TraceEvent,
    /// Log position of the job's previous event, or [`NO_EVENT`].
    prev: u32,
}

const NO_TRACE: u32 = u32::MAX;
const NO_EVENT: u32 = u32::MAX;
const NO_DISPATCH: SimTime = SimTime::from_micros(u64::MAX);

const UNKNOWN_JOB: JobSide = JobSide {
    trace: NO_TRACE,
    user: UserId(0),
    dispatch_at: NO_DISPATCH,
    last: NO_EVENT,
};

/// The structured trace store.
///
/// Every job's events go onto one log in the order they happen, each
/// linked back to the same job's previous event, so recording appends
/// to memory that is already hot instead of growing one list per job.
/// The queries build a [`JobTrace`] by walking a job's links.
///
/// Execution-side job ids and user ids are allocated densely, so the
/// lookup tables are vectors indexed by id; submit-side ids are handed
/// out by this store one per opened trace, so `SubmitSideId(n)` *is*
/// `heads[n]` and needs no table at all.
///
/// Snapshots carry the layout of one event list per trace (see
/// `TraceStoreWire`), not the log or its links.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    heads: Vec<TraceHead>,
    log: ChunkedLog<Entry>,
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
        let trace = self.heads.len() as u32;
        self.heads.push(TraceHead {
            execution_id,
            class,
            superseded_last: NO_EVENT,
        });
        let j = execution_id.index();
        if j >= self.jobs.len() {
            self.jobs.resize(j + 1, UNKNOWN_JOB);
        }
        let old = self.jobs[j];
        if old.trace != NO_TRACE {
            self.heads[old.trace as usize].superseded_last = old.last;
        }
        let first = self.log.push(Entry {
            at,
            event: TraceEvent::Submitted { user },
            prev: NO_EVENT,
        });
        self.jobs[j] = JobSide {
            trace,
            user,
            dispatch_at: NO_DISPATCH,
            last: first,
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
        self.jobs[job.index()].last = self.log.push(Entry {
            at,
            event,
            prev: side.last,
        });
    }

    /// Log position of trace `t`'s newest event.
    fn newest(&self, t: usize) -> u32 {
        let head = &self.heads[t];
        if head.superseded_last != NO_EVENT {
            head.superseded_last
        } else {
            self.jobs[head.execution_id.index()].last
        }
    }

    /// Trace `t`'s events into `out`, in order.
    fn events_into(&self, t: usize, out: &mut Vec<(SimTime, TraceEvent)>) {
        out.clear();
        let mut at = self.newest(t);
        while at != NO_EVENT {
            let e = self.log.get(at);
            out.push((e.at, e.event));
            at = e.prev;
        }
        out.reverse();
    }

    /// Trace `t`, built from the log.
    fn build(&self, t: usize) -> JobTrace {
        let head = self.heads[t];
        let mut events = Vec::new();
        self.events_into(t, &mut events);
        JobTrace {
            submit_id: SubmitSideId(t as u64),
            execution_id: head.execution_id,
            class: head.class,
            events,
        }
    }

    /// The trace of an execution-side job.
    pub fn trace(&self, job: JobId) -> Option<JobTrace> {
        let side = self.jobs.get(job.index())?;
        (side.trace != NO_TRACE).then(|| self.build(side.trace as usize))
    }

    /// §8 linkage: execution-side id → full trace (including submit id).
    pub fn find_by_execution_id(&self, job: JobId) -> Option<JobTrace> {
        self.trace(job)
    }

    /// §8 linkage: submit-side id → full trace (including execution id).
    pub fn find_by_submit_id(&self, submit: SubmitSideId) -> Option<JobTrace> {
        let t = usize::try_from(submit.0).ok()?;
        (t < self.heads.len()).then(|| self.build(t))
    }

    /// Number of traces held.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when no traces were recorded.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Non-terminal jobs whose last event is older than `idle` at `now` —
    /// the troubleshooting query operators actually run.
    pub fn stuck_jobs(&self, now: SimTime, idle: SimDuration) -> Vec<JobTrace> {
        (0..self.heads.len())
            .filter(|&t| {
                let last = self.log.get(self.newest(t));
                !last.event.is_terminal() && now.since(last.at) > idle
            })
            .map(|t| self.build(t))
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

    /// Mean queue wait (Queued → Dispatched, first occurrence of each)
    /// across traces — the §8 scheduling-information lesson's headline
    /// statistic.
    pub fn mean_queue_wait(&self) -> Option<SimDuration> {
        let waits: Vec<f64> = (0..self.heads.len())
            .filter_map(|t| {
                // Walking back from the newest event, the last `Queued`
                // and `Dispatched` met are the first ones recorded.
                let (mut queued, mut dispatched) = (None, None);
                let mut at = self.newest(t);
                while at != NO_EVENT {
                    let e = self.log.get(at);
                    match e.event {
                        TraceEvent::Queued => queued = Some(e.at),
                        TraceEvent::Dispatched { .. } => dispatched = Some(e.at),
                        _ => {}
                    }
                    at = e.prev;
                }
                Some(dispatched?.since(queued?))
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

    /// Every job's ended phases (see `phases`) as a Chrome
    /// `trace_event` document: complete `"X"` events with microsecond
    /// timestamps, one tid per category, the execution-side job id and
    /// the error flag in `args` — loadable in `chrome://tracing` or
    /// Perfetto. Jobs appear in submission order.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut events = Vec::new();
        for (t, head) in self.heads.iter().enumerate() {
            self.events_into(t, &mut events);
            write_chrome_phases(&mut out, head.execution_id, &events);
        }
        out.push_str("]}");
        out
    }

    /// The store in its snapshot layout.
    fn to_wire(&self) -> TraceStoreWire {
        TraceStoreWire {
            traces: (0..self.heads.len()).map(|t| self.build(t)).collect(),
            jobs: self.jobs.clone(),
            accounts: self.accounts.clone(),
            next_submit_id: self.next_submit_id,
        }
    }

    /// Append a decoded trace's header; its events follow through
    /// [`TraceStore::push_decoded_event`], and
    /// [`TraceStore::link_decoded_jobs`] finishes the store.
    fn push_decoded_head(
        &mut self,
        submit_id: SubmitSideId,
        execution_id: JobId,
        class: UserClass,
    ) -> Result<(), &'static str> {
        if submit_id.0 != self.heads.len() as u64 {
            return Err("trace submit id");
        }
        // Until the jobs are linked, every trace keeps its newest event
        // in `superseded_last`.
        self.heads.push(TraceHead {
            execution_id,
            class,
            superseded_last: NO_EVENT,
        });
        Ok(())
    }

    /// Append an event to the trace decoded last.
    fn push_decoded_event(&mut self, at: SimTime, event: TraceEvent) {
        let head = self.heads.last_mut().expect("a trace header comes first");
        head.superseded_last = self.log.push(Entry {
            at,
            event,
            prev: head.superseded_last,
        });
    }

    /// Hand each trace's newest event to the job that tracks it, once
    /// the decoded job table is in place, checking the tables agree.
    fn link_decoded_jobs(&mut self) -> Result<(), &'static str> {
        if self.next_submit_id != self.heads.len() as u64 {
            return Err("trace count");
        }
        if self.heads.iter().any(|h| h.superseded_last == NO_EVENT) {
            return Err("empty trace");
        }
        for (j, side) in self.jobs.iter_mut().enumerate() {
            side.last = NO_EVENT;
            if side.trace == NO_TRACE {
                continue;
            }
            let head = self
                .heads
                .get_mut(side.trace as usize)
                .filter(|h| h.execution_id.index() == j && h.superseded_last != NO_EVENT)
                .ok_or("trace job link")?;
            side.last = std::mem::replace(&mut head.superseded_last, NO_EVENT);
        }
        Ok(())
    }
}

/// The trace store's snapshot layout: one event list per trace, as the
/// queries answer them. [`TraceStore`]'s binary codec writes exactly
/// these bytes without building the lists; its value model goes
/// through this struct.
#[derive(Serialize, Deserialize)]
struct TraceStoreWire {
    traces: Vec<JobTrace>,
    jobs: Vec<JobSide>,
    accounts: Vec<UserAccount>,
    next_submit_id: u64,
}

impl Serialize for TraceStore {
    fn to_value(&self) -> serde::Value {
        self.to_wire().to_value()
    }
}

impl Deserialize for TraceStore {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = TraceStoreWire::from_value(v)?;
        let mut store = TraceStore::default();
        for trace in wire.traces {
            store
                .push_decoded_head(trace.submit_id, trace.execution_id, trace.class)
                .map_err(serde::DeError::msg)?;
            for (at, event) in trace.events {
                store.push_decoded_event(at, event);
            }
        }
        store.jobs = wire.jobs;
        store.accounts = wire.accounts;
        store.next_submit_id = wire.next_submit_id;
        store.link_decoded_jobs().map_err(serde::DeError::msg)?;
        Ok(store)
    }
}

impl Encode for TraceStore {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.heads.len().encode(out);
        let mut events = Vec::new();
        for (t, head) in self.heads.iter().enumerate() {
            SubmitSideId(t as u64).encode(out);
            head.execution_id.encode(out);
            head.class.encode(out);
            self.events_into(t, &mut events);
            events.encode(out);
        }
        self.jobs.encode(out);
        self.accounts.encode(out);
        self.next_submit_id.encode(out);
    }
}

impl Decode for TraceStore {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut store = TraceStore::default();
        for _ in 0..r.length()? {
            let (submit_id, execution_id, class) = Decode::decode(r)?;
            store
                .push_decoded_head(submit_id, execution_id, class)
                .map_err(DecodeError::Invalid)?;
            for _ in 0..r.length()? {
                let (at, event) = Decode::decode(r)?;
                store.push_decoded_event(at, event);
            }
        }
        store.jobs = Decode::decode(r)?;
        store.accounts = Decode::decode(r)?;
        store.next_submit_id = Decode::decode(r)?;
        store.link_decoded_jobs().map_err(DecodeError::Invalid)?;
        Ok(store)
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
        phases(&t.events, |phase, begin, end, error| {
            out.push((phase, secs(begin), secs(end), error))
        });
        out
    }

    #[test]
    fn completed_job_has_four_phases() {
        let (ts, job, _) = store_with_one_job();
        assert_eq!(
            phases_of(&ts.trace(job).unwrap()),
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
            phases_of(&ts.trace(job).unwrap()),
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
        assert!(phases_of(&ts.trace(local).unwrap()).is_empty());
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

    /// The event `pick` names, with payloads drawn from `n`.
    fn event_of(pick: u8, n: u32) -> TraceEvent {
        match pick {
            0 => TraceEvent::Submitted { user: UserId(n) },
            1 => TraceEvent::Brokered { site: SiteId(n) },
            2 => TraceEvent::GatekeeperAccepted,
            3 => TraceEvent::GatekeeperRefused,
            4 => TraceEvent::StageInStarted {
                bytes: Bytes::from_gb(u64::from(n)),
            },
            5 => TraceEvent::StageInDone,
            6 => TraceEvent::Queued,
            7 => TraceEvent::Dispatched { node: NodeId(n) },
            8 => TraceEvent::ExecutionEnded,
            9 => TraceEvent::StageOutStarted {
                bytes: Bytes::from_gb(u64::from(n)),
            },
            10 => TraceEvent::StageOutDone,
            11 => TraceEvent::Registered,
            12 => TraceEvent::Completed,
            _ => TraceEvent::Failed(FailureCause::ALL[n as usize % FailureCause::ALL.len()]),
        }
    }

    /// `a` and `b` are the same trace.
    fn assert_same(a: &JobTrace, b: &JobTrace) {
        assert_eq!(
            (a.submit_id, a.execution_id, a.class, &a.events),
            (b.submit_id, b.execution_id, b.class, &b.events)
        );
    }

    /// `ts` answers every query like `model`, one event list per trace
    /// (with `current` naming each job's live trace), at time `now`.
    fn assert_matches(
        ts: &TraceStore,
        model: &[JobTrace],
        current: &[Option<usize>],
        now: SimTime,
    ) {
        assert_eq!(ts.len(), model.len());
        for (n, want) in model.iter().enumerate() {
            assert_same(&ts.find_by_submit_id(SubmitSideId(n as u64)).unwrap(), want);
        }
        assert!(ts
            .find_by_submit_id(SubmitSideId(model.len() as u64))
            .is_none());
        for (j, t) in current.iter().enumerate() {
            match (ts.trace(JobId(j as u32)), t) {
                (Some(got), Some(t)) => assert_same(&got, &model[*t]),
                (got, t) => assert!(got.is_none() && t.is_none()),
            }
        }
        for idle in [SimDuration::ZERO, SimDuration::from_secs(40)] {
            let stuck = ts.stuck_jobs(now, idle);
            let want: Vec<&JobTrace> = model
                .iter()
                .filter(|t| !t.is_terminal() && now.since(t.last_event().unwrap().0) > idle)
                .collect();
            assert_eq!(stuck.len(), want.len());
            stuck.iter().zip(want).for_each(|(a, b)| assert_same(a, b));
        }
        let waits: Vec<f64> = model
            .iter()
            .filter_map(|t| {
                t.span_between(
                    |e| matches!(e, TraceEvent::Queued),
                    |e| matches!(e, TraceEvent::Dispatched { .. }),
                )
            })
            .map(|d| d.as_secs_f64())
            .collect();
        let want_wait = (!waits.is_empty())
            .then(|| SimDuration::from_secs_f64(waits.iter().sum::<f64>() / waits.len() as f64));
        assert_eq!(ts.mean_queue_wait(), want_wait);
        let mut chrome = String::from("{\"traceEvents\":[");
        for t in model {
            write_chrome_phases(&mut chrome, t.execution_id, &t.events);
        }
        chrome.push_str("]}");
        assert_eq!(ts.chrome_trace(), chrome);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The store answers like one event list per trace: every
            /// trace by either id, stuck jobs, queue waits and the Chrome
            /// trace, with job ids opened more than once and events for
            /// unknown jobs, through both snapshot models.
            #[test]
            fn store_matches_per_job_event_lists(
                ops in proptest::collection::vec((0u8..18, 0u32..10, 0u64..30), 1..250),
            ) {
                let mut ts = TraceStore::new();
                let mut model: Vec<JobTrace> = Vec::new();
                let mut current: Vec<Option<usize>> = vec![None; 12];
                let mut clock = 0u64;
                for (op, job, dt) in ops {
                    clock += dt;
                    let (at, id) = (SimTime::from_secs(clock), JobId(job));
                    if op >= 14 && (op == 17 || current[job as usize].is_none()) {
                        let class = UserClass::ALL[job as usize % UserClass::ALL.len()];
                        let user = UserId(job % 3);
                        let submit_id = ts.open(id, class, user, at);
                        prop_assert_eq!(submit_id, SubmitSideId(model.len() as u64));
                        current[job as usize] = Some(model.len());
                        model.push(JobTrace {
                            submit_id,
                            execution_id: id,
                            class,
                            events: vec![(at, TraceEvent::Submitted { user })],
                        });
                    } else {
                        let event = event_of(op % 14, job + dt as u32);
                        ts.record(id, at, event);
                        if let Some(t) = current[job as usize] {
                            model[t].events.push((at, event));
                        }
                    }
                }
                let now = SimTime::from_secs(clock + 30);
                assert_matches(&ts, &model, &current, now);
                let bytes = serde::binary::to_bytes(&ts);
                let wire = TraceStoreWire {
                    traces: model.clone(),
                    jobs: ts.jobs.clone(),
                    accounts: ts.accounts.clone(),
                    next_submit_id: model.len() as u64,
                };
                prop_assert!(bytes == serde::binary::to_bytes(&wire));
                let back: TraceStore = serde::binary::from_bytes(&bytes).unwrap();
                assert_matches(&back, &model, &current, now);
                prop_assert!(serde::binary::to_bytes(&back) == bytes);
                prop_assert_eq!(
                    back.accounting_by_user(UserId(1)),
                    ts.accounting_by_user(UserId(1))
                );
                let back = TraceStore::from_value(&ts.to_value()).unwrap();
                assert_matches(&back, &model, &current, now);
            }
        }
    }
}
