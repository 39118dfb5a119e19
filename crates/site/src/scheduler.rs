//! Local batch schedulers.
//!
//! §5: "Appropriate policies were implemented at each local batch scheduler
//! (OpenPBS, Condor, and LSF)". Three scheduling disciplines are modelled:
//!
//! * **OpenPBS** — plain FIFO, the behaviour of a default PBS queue.
//! * **Condor fair-share** — picks the next job from the VO with the lowest
//!   `usage / share` ratio, the policy knob sites used to protect local
//!   users while admitting all six VOs.
//! * **LSF multi-queue** — a short queue with priority over a long queue,
//!   plus a cap on the fraction of slots long jobs may hold. This is what
//!   made some sites unable to run the >30-hour CMS OSCAR jobs (§6.2: "not
//!   all sites have been able to accommodate running them").

use crate::vo::Vo;
use grid3_simkit::ids::JobId;
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A job waiting in a batch queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    /// Job identity.
    pub job: JobId,
    /// Accounting VO.
    pub vo: Vo,
    /// Walltime the job requested.
    pub requested_walltime: SimDuration,
    /// When the job entered the queue.
    pub enqueued: SimTime,
}

/// Dispatch-time facts the scheduler may consult.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchCtx {
    /// Jobs currently running that are classified "long" (LSF policy).
    pub running_long: usize,
    /// Total batch slots at the site.
    pub total_slots: usize,
}

/// Which scheduling discipline a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// FIFO (OpenPBS default queue).
    OpenPbs,
    /// Condor-style VO fair share.
    CondorFairShare,
    /// LSF-style short/long queues with a long-job slot cap.
    Lsf,
}

/// The walltime above which LSF classifies a job as "long".
pub(crate) const LSF_LONG_THRESHOLD: SimDuration = SimDuration::from_hours(12);

/// Max fraction of total slots LSF long jobs may occupy.
const LSF_LONG_CAP_FRACTION: f64 = 0.5;

/// A site's batch scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchScheduler {
    kind: SchedulerKind,
    fifo: VecDeque<QueuedJob>,
    per_vo: Vec<VecDeque<QueuedJob>>,
    usage: [f64; 6],
    short_q: VecDeque<QueuedJob>,
    long_q: VecDeque<QueuedJob>,
}

impl BatchScheduler {
    /// A scheduler of the given kind (fair share weighs every VO equally).
    pub fn new(kind: SchedulerKind) -> Self {
        BatchScheduler {
            kind,
            fifo: VecDeque::new(),
            per_vo: (0..6).map(|_| VecDeque::new()).collect(),
            usage: [0.0; 6],
            short_q: VecDeque::new(),
            long_q: VecDeque::new(),
        }
    }

    /// The discipline this scheduler implements.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Whether a job counts as "long" under the LSF policy.
    pub(crate) fn is_long(walltime: SimDuration) -> bool {
        walltime > LSF_LONG_THRESHOLD
    }

    /// Number of jobs waiting.
    pub fn queued(&self) -> usize {
        match self.kind {
            SchedulerKind::OpenPbs => self.fifo.len(),
            SchedulerKind::CondorFairShare => self.per_vo.iter().map(|q| q.len()).sum(),
            SchedulerKind::Lsf => self.short_q.len() + self.long_q.len(),
        }
    }

    /// Add a job to the queue.
    pub fn enqueue(&mut self, job: QueuedJob) {
        match self.kind {
            SchedulerKind::OpenPbs => self.fifo.push_back(job),
            SchedulerKind::CondorFairShare => self.per_vo[job.vo.index()].push_back(job),
            SchedulerKind::Lsf => {
                if Self::is_long(job.requested_walltime) {
                    self.long_q.push_back(job);
                } else {
                    self.short_q.push_back(job);
                }
            }
        }
    }

    /// Pick the next job to dispatch, or `None` if nothing is eligible.
    pub(crate) fn dequeue(&mut self, ctx: DispatchCtx) -> Option<QueuedJob> {
        match self.kind {
            SchedulerKind::OpenPbs => self.fifo.pop_front(),
            SchedulerKind::CondorFairShare => {
                // Lowest usage among VOs with waiting jobs (every VO has
                // an equal share); ties break toward the lower VO index,
                // deterministically.
                let best = (0..6)
                    .filter(|&i| !self.per_vo[i].is_empty())
                    .min_by(|&a, &b| {
                        self.usage[a]
                            .partial_cmp(&self.usage[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })?;
                self.per_vo[best].pop_front()
            }
            SchedulerKind::Lsf => {
                if let Some(j) = self.short_q.pop_front() {
                    return Some(j);
                }
                let cap = (ctx.total_slots as f64 * LSF_LONG_CAP_FRACTION).floor() as usize;
                if ctx.running_long < cap {
                    self.long_q.pop_front()
                } else {
                    None
                }
            }
        }
    }

    /// Record consumed CPU time against a VO (drives fair share).
    pub fn charge(&mut self, vo: Vo, cpu_secs: f64) {
        self.usage[vo.index()] += cpu_secs.max(0.0);
    }

    /// Accumulated usage for a VO, in CPU-seconds.
    #[cfg(test)]
    pub(crate) fn usage_of(&self, vo: Vo) -> f64 {
        self.usage[vo.index()]
    }

    /// Remove every queued job (site failure killing the queue) and return
    /// them for failure accounting.
    pub(crate) fn drain_all(&mut self) -> Vec<QueuedJob> {
        let mut out = Vec::with_capacity(self.queued());
        out.extend(self.fifo.drain(..));
        for q in &mut self.per_vo {
            out.extend(q.drain(..));
        }
        out.extend(self.short_q.drain(..));
        out.extend(self.long_q.drain(..));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qj(id: u32, vo: Vo, hours: u64) -> QueuedJob {
        QueuedJob {
            job: JobId(id),
            vo,
            requested_walltime: SimDuration::from_hours(hours),
            enqueued: SimTime::EPOCH,
        }
    }

    fn ctx(running_long: usize, total: usize) -> DispatchCtx {
        DispatchCtx {
            running_long,
            total_slots: total,
        }
    }

    #[test]
    fn pbs_is_fifo() {
        let mut s = BatchScheduler::new(SchedulerKind::OpenPbs);
        s.enqueue(qj(1, Vo::Uscms, 40));
        s.enqueue(qj(2, Vo::Btev, 10));
        s.enqueue(qj(3, Vo::Ligo, 1));
        let order: Vec<u32> =
            std::iter::from_fn(|| s.dequeue(ctx(0, 10)).map(|j| j.job.0)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fair_share_prefers_underserved_vo() {
        let mut s = BatchScheduler::new(SchedulerKind::CondorFairShare);
        s.charge(Vo::Uscms, 1_000.0);
        s.charge(Vo::Btev, 10.0);
        s.enqueue(qj(1, Vo::Uscms, 10));
        s.enqueue(qj(2, Vo::Btev, 10));
        s.enqueue(qj(3, Vo::Ligo, 10)); // zero usage → ranks first
        assert_eq!(s.dequeue(ctx(0, 10)).unwrap().job.0, 3);
        assert_eq!(s.dequeue(ctx(0, 10)).unwrap().job.0, 2);
        assert_eq!(s.dequeue(ctx(0, 10)).unwrap().job.0, 1);
    }

    #[test]
    fn lsf_short_priority_and_long_cap() {
        let mut s = BatchScheduler::new(SchedulerKind::Lsf);
        s.enqueue(qj(1, Vo::Uscms, 40)); // long
        s.enqueue(qj(2, Vo::Btev, 2)); // short
                                       // Short job wins despite arriving later.
        assert_eq!(s.dequeue(ctx(0, 8)).unwrap().job.0, 2);
        // Long cap = 4 slots of 8; with 4 long running, long job is held.
        assert!(s.dequeue(ctx(4, 8)).is_none());
        assert_eq!(s.queued(), 1);
        // Once a long job finishes, it dispatches.
        assert_eq!(s.dequeue(ctx(3, 8)).unwrap().job.0, 1);
    }

    #[test]
    fn lsf_long_threshold_boundary() {
        assert!(!BatchScheduler::is_long(LSF_LONG_THRESHOLD));
        assert!(BatchScheduler::is_long(
            LSF_LONG_THRESHOLD + SimDuration::from_secs(1)
        ));
    }

    #[test]
    fn drain_returns_everything_across_kinds() {
        for kind in [
            SchedulerKind::OpenPbs,
            SchedulerKind::CondorFairShare,
            SchedulerKind::Lsf,
        ] {
            let mut s = BatchScheduler::new(kind);
            s.enqueue(qj(1, Vo::Uscms, 40));
            s.enqueue(qj(2, Vo::Btev, 2));
            s.enqueue(qj(3, Vo::Ligo, 1));
            let drained = s.drain_all();
            assert_eq!(drained.len(), 3, "kind {kind:?}");
            assert_eq!(s.queued(), 0);
        }
    }

    #[test]
    fn charge_accumulates() {
        let mut s = BatchScheduler::new(SchedulerKind::CondorFairShare);
        s.charge(Vo::Ligo, 100.0);
        s.charge(Vo::Ligo, 50.0);
        s.charge(Vo::Ligo, -10.0); // negative charges ignored
        assert_eq!(s.usage_of(Vo::Ligo), 150.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// No scheduler loses or duplicates jobs: everything enqueued is
            /// eventually dequeued exactly once (with a permissive context).
            #[test]
            fn conservation(kind_idx in 0usize..3,
                            jobs in proptest::collection::vec((0u32..1000, 0usize..6, 1u64..100), 1..80)) {
                let kind = [SchedulerKind::OpenPbs, SchedulerKind::CondorFairShare, SchedulerKind::Lsf][kind_idx];
                let mut s = BatchScheduler::new(kind);
                let mut expect: Vec<u32> = Vec::new();
                for (i, (id, vo, hrs)) in jobs.iter().enumerate() {
                    let unique = *id + i as u32 * 1000;
                    expect.push(unique);
                    s.enqueue(qj(unique, Vo::ALL[*vo], *hrs));
                }
                let mut got: Vec<u32> = Vec::new();
                while let Some(j) = s.dequeue(ctx(0, usize::MAX / 2)) {
                    got.push(j.job.0);
                }
                expect.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(expect, got);
            }

            /// Fair share never dispatches a VO whose usage strictly
            /// dominates another VO that also has waiting jobs.
            #[test]
            fn fair_share_monotone(usages in proptest::collection::vec(0f64..1e6, 6)) {
                let mut s = BatchScheduler::new(SchedulerKind::CondorFairShare);
                for (i, u) in usages.iter().enumerate() {
                    s.charge(Vo::ALL[i], *u);
                }
                for (i, vo) in Vo::ALL.iter().enumerate() {
                    s.enqueue(qj(i as u32, *vo, 1));
                }
                let first = s.dequeue(ctx(0, 100)).unwrap();
                let min_usage = usages.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!((usages[first.vo.index()] - min_usage).abs() < 1e-9);
            }
        }
    }
}
