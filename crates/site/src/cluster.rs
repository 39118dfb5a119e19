//! The site aggregate: one Grid3 facility.
//!
//! A [`Site`] bundles the cluster (worker nodes), the local batch
//! scheduler, the storage element, the WAN link capacity and the local
//! policy — the §5 design point that "each resource … was logically
//! associated with a VO" while remaining under local control. The §6.4
//! site-selection criteria are implemented here as [`Site::eligible`].

use crate::failure::FailureModel;
use crate::job::JobSpec;
use crate::node::{NodeState, WorkerNode};
use crate::scheduler::{BatchScheduler, DispatchCtx, QueuedJob, SchedulerKind};
use crate::storage::StorageElement;
use crate::vo::Vo;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobId, NodeId, SiteId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::{Bandwidth, Bytes};
use serde::{Deserialize, Serialize};

/// Facility class, mirroring the LHC computing tier language of §4.1/4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteTier {
    /// National-lab scale archive/compute centre (BNL, FNAL).
    Tier1,
    /// University centre with substantial resources.
    Tier2,
    /// Smaller university cluster.
    University,
}

/// Local policy, published via MDS so brokers can match jobs (§8 asks for
/// exactly this publication: "sites should publish more information about
/// job execution and resource usage policies, such as maximum CPU time").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SitePolicy {
    /// Longest walltime any queue at this site grants.
    pub max_walltime: SimDuration,
    /// VOs admitted by the local gatekeeper's grid-map (§5.3 group
    /// accounts); `None` means all six.
    pub allowed_vos: Option<Vec<Vo>>,
}

impl SitePolicy {
    /// The permissive default most Grid3 sites ran.
    pub fn open(max_walltime: SimDuration) -> Self {
        SitePolicy {
            max_walltime,
            allowed_vos: None,
        }
    }

    /// Whether a VO may run here.
    pub fn admits_vo(&self, vo: Vo) -> bool {
        match &self.allowed_vos {
            None => true,
            Some(list) => list.contains(&vo),
        }
    }
}

/// Static description of a site: what MDS publishes about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteProfile {
    /// Human-readable facility name (e.g. `"BNL_ATLAS_Tier1"`).
    pub name: String,
    /// Facility class.
    pub tier: SiteTier,
    /// VO that owns/operates the facility (None for neutral sites); §6.4
    /// observes "applications tend to favor the resources provided within
    /// their VO".
    pub owner_vo: Option<Vo>,
    /// Number of batch slots (CPUs).
    pub cpus: u32,
    /// Node speed relative to the 2 GHz reference.
    pub node_speed: f64,
    /// Whether worker nodes have outbound internet connectivity (§6.4
    /// criterion 1).
    pub outbound_connectivity: bool,
    /// Gatekeeper/WAN bandwidth (§6.4 criterion 4).
    pub wan_bandwidth: Bandwidth,
    /// Storage element capacity (§6.4 criterion 2).
    pub storage_capacity: Bytes,
    /// Local batch scheduler family (§5).
    pub scheduler: SchedulerKind,
    /// Whether the facility is dedicated to Grid3 (§7: "more than 60 % of
    /// CPU resources are drawn from non-dedicated facilities").
    pub dedicated: bool,
    /// Local policy.
    pub policy: SitePolicy,
    /// Failure behaviour of this site.
    pub failures: FailureModel,
}

/// Why a site cannot take a job (§6.4's four selection criteria plus VO
/// admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IneligibleReason {
    /// VO not admitted by local policy.
    VoNotAllowed,
    /// Job needs outbound connectivity the worker nodes lack.
    NoOutboundConnectivity,
    /// Not enough free disk for the job's data.
    InsufficientDisk,
    /// Requested walltime exceeds the site maximum.
    WalltimeTooLong,
    /// Site services are down.
    ServiceDown,
}

/// Book-keeping for a job occupying a slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// Job identity.
    pub job: JobId,
    /// Accounting VO.
    pub vo: Vo,
    /// Node the job runs on.
    pub node: NodeId,
    /// When execution started.
    pub started: SimTime,
    /// Whether the LSF policy classifies it as long.
    pub long: bool,
}

/// One Grid3 facility: cluster + scheduler + storage + state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Site {
    /// Site identity.
    pub id: SiteId,
    /// Published profile.
    pub profile: SiteProfile,
    /// The local batch scheduler.
    pub scheduler: BatchScheduler,
    /// The storage element.
    pub storage: StorageElement,
    nodes: Vec<WorkerNode>,
    running: FastMap<JobId, RunningJob>,
    running_long: usize,
    /// Running jobs per VO (indexed by [`Vo::index`]), maintained at
    /// dispatch/release so monitoring agents read counters instead of
    /// walking the running map every sweep.
    running_per_vo: [u32; Vo::ALL.len()],
    /// Stack of idle up nodes; kept sorted descending so the lowest node id
    /// pops first (deterministic placement).
    free_nodes: Vec<NodeId>,
    /// Whether grid services (gatekeeper etc.) are up.
    pub service_up: bool,
    /// Whether the WAN link is up.
    pub network_up: bool,
    /// Whether the site has passed certification (§5.1); unvalidated sites
    /// fail jobs at the elevated misconfiguration rate.
    pub validated: bool,
    /// Whether the site has been through an operator repair cycle
    /// (ticket resolved + re-validated): repaired sites run in the low
    /// failure regime until the next configuration drift.
    pub repaired: bool,
}

impl Site {
    /// Build a site from its profile. One node per CPU keeps slot
    /// accounting trivial; node properties come from the profile.
    pub fn new(id: SiteId, profile: SiteProfile) -> Self {
        let nodes: Vec<WorkerNode> = (0..profile.cpus)
            .map(|i| {
                WorkerNode::new(
                    NodeId(i),
                    1,
                    profile.node_speed,
                    profile.outbound_connectivity,
                )
            })
            .collect();
        let scheduler = BatchScheduler::new(profile.scheduler);
        let storage = StorageElement::new(profile.storage_capacity);
        let free_nodes: Vec<NodeId> = (0..nodes.len() as u32).rev().map(NodeId).collect();
        Site {
            id,
            profile,
            scheduler,
            storage,
            nodes,
            running: FastMap::default(),
            running_long: 0,
            running_per_vo: [0; Vo::ALL.len()],
            free_nodes,
            service_up: true,
            network_up: true,
            validated: false,
            repaired: false,
        }
    }

    /// Total batch slots.
    pub fn total_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Slots currently free (up nodes not running jobs).
    pub fn free_slots(&self) -> usize {
        self.free_nodes.len()
    }

    /// Jobs currently executing.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Jobs waiting in the batch queue.
    pub fn queued_count(&self) -> usize {
        self.scheduler.queued()
    }

    /// Running jobs per VO, indexed by [`Vo::index`].
    pub fn running_per_vo(&self) -> &[u32; Vo::ALL.len()] {
        &self.running_per_vo
    }

    /// §6.4 site-selection check: can this site, right now, accept `spec`?
    pub fn eligible(&self, spec: &JobSpec) -> Result<(), IneligibleReason> {
        if !self.service_up {
            return Err(IneligibleReason::ServiceDown);
        }
        if !self.profile.policy.admits_vo(spec.class.vo()) {
            return Err(IneligibleReason::VoNotAllowed);
        }
        if spec.needs_outbound && !self.profile.outbound_connectivity {
            return Err(IneligibleReason::NoOutboundConnectivity);
        }
        if spec.requested_walltime > self.profile.policy.max_walltime {
            return Err(IneligibleReason::WalltimeTooLong);
        }
        let disk_needed = spec.input_bytes + spec.output_bytes + spec.scratch_bytes;
        if disk_needed > self.storage.free() {
            return Err(IneligibleReason::InsufficientDisk);
        }
        Ok(())
    }

    /// Put a job in the batch queue.
    pub fn enqueue(&mut self, job: QueuedJob) {
        self.scheduler.enqueue(job);
    }

    /// Dispatch as many queued jobs as free slots (and policy) allow.
    /// Clears `started`, then fills it with `(queued-job, node)` pairs;
    /// the caller computes wall time from the node speed and schedules
    /// completion events, and keeps the buffer across calls.
    pub fn dispatch(&mut self, now: SimTime, started: &mut Vec<(QueuedJob, NodeId)>) {
        started.clear();
        if !self.service_up {
            return;
        }
        while !self.free_nodes.is_empty() {
            let ctx = DispatchCtx {
                running_long: self.running_long,
                total_slots: self.total_slots(),
            };
            let Some(job) = self.scheduler.dequeue(ctx) else {
                break;
            };
            let node = self.free_nodes.pop().expect("checked non-empty");
            let long = BatchScheduler::is_long(job.requested_walltime);
            if long {
                self.running_long += 1;
            }
            self.running_per_vo[job.vo.index()] += 1;
            self.running.insert(
                job.job,
                RunningJob {
                    job: job.job,
                    vo: job.vo,
                    node,
                    started: now,
                    long,
                },
            );
            started.push((job, node));
        }
    }

    /// Node speed lookup for wall-time computation.
    pub fn node(&self, id: NodeId) -> &WorkerNode {
        &self.nodes[id.index()]
    }

    /// Complete (or fail) a running job, freeing its slot and charging the
    /// VO's fair-share usage. Returns the booking if the job was running.
    pub fn release(&mut self, job: JobId, now: SimTime) -> Option<RunningJob> {
        let booking = self.running.remove(&job)?;
        if booking.long {
            self.running_long -= 1;
        }
        self.running_per_vo[booking.vo.index()] -= 1;
        if self.nodes[booking.node.index()].is_up() {
            self.free_nodes.push(booking.node);
        }
        let cpu_secs = now.since(booking.started).as_secs_f64();
        self.scheduler.charge(booking.vo, cpu_secs);
        Some(booking)
    }

    /// Kill every running job (service crash / rollover). Slots free up
    /// immediately; returns the killed bookings for failure accounting.
    /// Jobs are released in job-id order: each release adds to its VO's
    /// `f64` fair-share usage, whose low bits depend on the order of the
    /// additions, and the running map's order depends on the process.
    pub(crate) fn kill_all_running(&mut self, now: SimTime) -> Vec<RunningJob> {
        let mut jobs: Vec<JobId> = self.running.keys().copied().collect();
        jobs.sort_unstable();
        jobs.into_iter()
            .filter_map(|j| self.release(j, now))
            .collect()
    }

    /// Drain the batch queue (site-wide failure). Returns the queued jobs.
    pub fn kill_all_queued(&mut self) -> Vec<QueuedJob> {
        self.scheduler.drain_all()
    }

    /// Take nodes down for a rollover: running jobs die, slots shrink to
    /// zero until [`Site::nodes_back_up`].
    pub fn nodes_down(&mut self, now: SimTime) -> Vec<RunningJob> {
        let killed = self.kill_all_running(now);
        for n in &mut self.nodes {
            n.state = NodeState::Down;
        }
        self.free_nodes.clear();
        killed
    }

    /// Bring all nodes back after a rollover/outage.
    pub fn nodes_back_up(&mut self) {
        for n in &mut self.nodes {
            n.state = NodeState::Up;
        }
        let mut busy = vec![false; self.nodes.len()];
        for r in self.running.values() {
            busy[r.node.index()] = true;
        }
        self.free_nodes = (0..self.nodes.len() as u32)
            .rev()
            .filter(|&i| !busy[i as usize])
            .map(NodeId)
            .collect();
    }

    /// Utilization of batch slots in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.running.len() as f64 / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vo::UserClass;
    use grid3_simkit::ids::UserId;

    fn profile(cpus: u32) -> SiteProfile {
        SiteProfile {
            name: "TEST_SITE".into(),
            tier: SiteTier::Tier2,
            owner_vo: Some(Vo::Usatlas),
            cpus,
            node_speed: 1.0,
            outbound_connectivity: true,
            wan_bandwidth: Bandwidth::from_mbit_per_sec(100.0),
            storage_capacity: Bytes::from_tb(1),
            scheduler: SchedulerKind::OpenPbs,
            dedicated: true,
            policy: SitePolicy::open(SimDuration::from_hours(48)),
            failures: FailureModel::none(),
        }
    }

    fn qj(id: u32, vo: Vo, hours: u64) -> QueuedJob {
        QueuedJob {
            job: JobId(id),
            vo,
            requested_walltime: SimDuration::from_hours(hours),
            enqueued: SimTime::EPOCH,
        }
    }

    fn spec() -> JobSpec {
        JobSpec {
            class: UserClass::Usatlas,
            user: UserId(0),
            reference_runtime: SimDuration::from_hours(8),
            requested_walltime: SimDuration::from_hours(12),
            input_bytes: Bytes::from_gb(1),
            output_bytes: Bytes::from_gb(2),
            scratch_bytes: Bytes::from_gb(1),
            needs_outbound: false,
            staged_files: 2,
            registers_output: true,
        }
    }

    #[test]
    fn dispatch_fills_free_slots() {
        let mut s = Site::new(SiteId(0), profile(3));
        for i in 0..5 {
            s.enqueue(qj(i, Vo::Usatlas, 4));
        }
        let mut started = Vec::new();
        s.dispatch(SimTime::EPOCH, &mut started);
        assert_eq!(started.len(), 3);
        assert_eq!(s.free_slots(), 0);
        assert_eq!(s.running_count(), 3);
        assert_eq!(s.queued_count(), 2);
        // Distinct nodes.
        let mut nodes: Vec<u32> = started.iter().map(|(_, n)| n.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn release_frees_slot_and_charges_usage() {
        let mut s = Site::new(SiteId(0), profile(2));
        s.enqueue(qj(1, Vo::Uscms, 4));
        s.dispatch(SimTime::EPOCH, &mut Vec::new());
        let booking = s
            .release(JobId(1), SimTime::EPOCH + SimDuration::from_hours(4))
            .unwrap();
        assert_eq!(booking.vo, Vo::Uscms);
        assert_eq!(s.free_slots(), 2);
        assert_eq!(s.scheduler.usage_of(Vo::Uscms), 4.0 * 3600.0);
        // Releasing twice is a no-op.
        assert!(s.release(JobId(1), SimTime::EPOCH).is_none());
    }

    #[test]
    fn eligibility_covers_section_6_4_criteria() {
        let mut p = profile(4);
        p.outbound_connectivity = false;
        p.policy.max_walltime = SimDuration::from_hours(10);
        p.policy.allowed_vos = Some(vec![Vo::Usatlas, Vo::Uscms]);
        let mut site = Site::new(SiteId(0), p);

        let mut sp = spec();
        sp.requested_walltime = SimDuration::from_hours(8);

        // VO admission.
        let mut ligo = sp.clone();
        ligo.class = UserClass::Ligo;
        assert_eq!(site.eligible(&ligo), Err(IneligibleReason::VoNotAllowed));
        // Outbound connectivity.
        let mut ob = sp.clone();
        ob.needs_outbound = true;
        assert_eq!(
            site.eligible(&ob),
            Err(IneligibleReason::NoOutboundConnectivity)
        );
        // Walltime.
        let mut long = sp.clone();
        long.requested_walltime = SimDuration::from_hours(30);
        assert_eq!(site.eligible(&long), Err(IneligibleReason::WalltimeTooLong));
        // Disk.
        let mut fat = sp.clone();
        fat.scratch_bytes = Bytes::from_tb(2);
        assert_eq!(site.eligible(&fat), Err(IneligibleReason::InsufficientDisk));
        // Service down.
        site.service_up = false;
        assert_eq!(site.eligible(&sp), Err(IneligibleReason::ServiceDown));
        site.service_up = true;
        assert_eq!(site.eligible(&sp), Ok(()));
    }

    #[test]
    fn kill_all_running_mimics_service_crash() {
        let mut s = Site::new(SiteId(0), profile(4));
        for i in 0..4 {
            s.enqueue(qj(i, Vo::Usatlas, 4));
        }
        s.dispatch(SimTime::EPOCH, &mut Vec::new());
        let killed = s.kill_all_running(SimTime::EPOCH + SimDuration::from_hours(1));
        assert_eq!(killed.len(), 4);
        assert_eq!(s.running_count(), 0);
        assert_eq!(s.free_slots(), 4);
        // Kill order is deterministic (sorted by job id).
        let ids: Vec<u32> = killed.iter().map(|b| b.job.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn kill_all_running_charges_usage_in_job_id_order() {
        // Charges of 0.1, 0.2 and 0.3 CPU-seconds sum to different f64s
        // in different orders; the kill must add them in job-id order.
        let kill = SimTime::from_secs_f64(3600.0);
        let mut s = Site::new(SiteId(0), profile(3));
        for (id, secs) in [(1, 0.1), (2, 0.2), (3, 0.3)] {
            s.enqueue(qj(id, Vo::Uscms, 4));
            s.dispatch(SimTime::from_secs_f64(3600.0 - secs), &mut Vec::new());
        }
        let by_id = (0.1 + 0.2) + 0.3;
        assert_ne!(by_id, (0.3 + 0.2) + 0.1, "the sum is order-sensitive");
        assert_eq!(s.kill_all_running(kill).len(), 3);
        assert_eq!(s.scheduler.usage_of(Vo::Uscms), by_id);
    }

    #[test]
    fn rollover_cycle_restores_capacity() {
        let mut s = Site::new(SiteId(0), profile(3));
        for i in 0..3 {
            s.enqueue(qj(i, Vo::Usatlas, 4));
        }
        s.dispatch(SimTime::EPOCH, &mut Vec::new());
        let killed = s.nodes_down(SimTime::EPOCH + SimDuration::from_hours(2));
        assert_eq!(killed.len(), 3);
        assert_eq!(s.free_slots(), 0);
        // No dispatch while down.
        s.enqueue(qj(9, Vo::Usatlas, 4));
        let mut started = Vec::new();
        s.dispatch(SimTime::EPOCH + SimDuration::from_hours(3), &mut started);
        assert!(started.is_empty());
        s.nodes_back_up();
        assert_eq!(s.free_slots(), 3);
        s.dispatch(SimTime::EPOCH + SimDuration::from_hours(4), &mut started);
        assert_eq!(started.len(), 1);
    }

    #[test]
    fn long_job_tracking_feeds_lsf_cap() {
        let mut p = profile(4);
        p.scheduler = SchedulerKind::Lsf;
        let mut s = Site::new(SiteId(0), p);
        // Long cap default 0.5 → 2 of 4 slots.
        for i in 0..4 {
            s.enqueue(qj(i, Vo::Uscms, 40)); // all long
        }
        let mut started = Vec::new();
        s.dispatch(SimTime::EPOCH, &mut started);
        assert_eq!(started.len(), 2, "long cap limits dispatch");
        assert_eq!(s.queued_count(), 2);
        // Releasing one long job admits one more.
        let first = started[0].0.job;
        s.release(first, SimTime::EPOCH + SimDuration::from_hours(1));
        s.dispatch(SimTime::EPOCH + SimDuration::from_hours(1), &mut started);
        assert_eq!(started.len(), 1);
    }

    #[test]
    fn utilization_tracks_running() {
        let mut s = Site::new(SiteId(0), profile(4));
        assert_eq!(s.utilization(), 0.0);
        s.enqueue(qj(0, Vo::Usatlas, 4));
        s.enqueue(qj(1, Vo::Usatlas, 4));
        s.dispatch(SimTime::EPOCH, &mut Vec::new());
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }
}
