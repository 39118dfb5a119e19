//! The Pegasus planner: abstract workflows onto concrete grid resources.
//!
//! Pegasus (papers [33, 34] in the citation list) takes the
//! site-independent DAG Chimera produces and (1) selects an execution site
//! per task, (2) inserts data stage-in nodes for inputs not already
//! present, (3) inserts stage-out nodes archiving outputs (ATLAS archived
//! everything at the BNL Tier-1, §4.1), and (4) inserts RLS registration
//! nodes — producing exactly the lifecycle §6.1 accounts failures against.
//!
//! Site selection implements the §6.4 criteria: VO admission, outbound
//! connectivity, disk availability, walltime fit; ties rank by free CPUs
//! then WAN bandwidth (criterion 4), deterministically.

use crate::chimera::AbstractTask;
use crate::dag::{Dag, NodeId};
use grid3_middleware::mds::GlueRecord;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{FileId, SiteId, UserId};
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize};

/// One node of a concrete (executable) workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConcreteTask {
    /// Move an input replica to the execution site.
    StageIn {
        /// The file being staged.
        lfn: FileId,
        /// Replica source.
        from: SiteId,
        /// Execution site.
        to: SiteId,
        /// Payload size.
        bytes: Bytes,
    },
    /// Run the transformation on a worker node.
    Compute {
        /// The job to run.
        spec: JobSpec,
        /// Chosen execution site.
        site: SiteId,
        /// Logical file the task produces.
        output: FileId,
    },
    /// Archive the output at the VO's archive site.
    StageOut {
        /// The file being archived.
        lfn: FileId,
        /// Execution site it leaves.
        from: SiteId,
        /// Archive (Tier-1) site.
        to: SiteId,
        /// Payload size.
        bytes: Bytes,
    },
    /// Register the archived output in RLS.
    Register {
        /// The file registered.
        lfn: FileId,
        /// Site whose replica is recorded.
        site: SiteId,
        /// Size attribute.
        bytes: Bytes,
    },
}

impl ConcreteTask {
    /// Short kind label, for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ConcreteTask::StageIn { .. } => "stage-in",
            ConcreteTask::Compute { .. } => "compute",
            ConcreteTask::StageOut { .. } => "stage-out",
            ConcreteTask::Register { .. } => "register",
        }
    }
}

/// Planner failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// No candidate site satisfies a task's requirements (§6.4 criteria).
    NoEligibleSite {
        /// The transformation that could not be placed.
        transformation: String,
    },
    /// An input has no replica anywhere and no producing task.
    MissingReplica(
        /// The unlocatable file.
        FileId,
    ),
}

/// The planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PegasusPlanner {
    /// Where outputs are archived (BNL for ATLAS, FNAL for CMS — §4.1/4.2).
    pub archive_site: SiteId,
    /// Walltime safety margin over the reference runtime.
    pub walltime_margin: f64,
    /// Whether compute tasks need outbound connectivity.
    pub needs_outbound: bool,
}

impl PegasusPlanner {
    /// A planner archiving at `archive_site` with a 1.5× walltime margin.
    pub fn new(archive_site: SiteId) -> Self {
        PegasusPlanner {
            archive_site,
            walltime_margin: 1.5,
            needs_outbound: false,
        }
    }

    /// Plan `abstract_dag` for `class`/`user` over the fresh MDS candidate
    /// records, consulting `rls` for existing replicas.
    pub fn plan(
        &self,
        abstract_dag: &Dag<AbstractTask>,
        class: UserClass,
        user: UserId,
        candidates: &[&GlueRecord],
        rls: &ReplicaLocationService,
    ) -> Result<Dag<ConcreteTask>, PlanError> {
        let mut concrete: Dag<ConcreteTask> = Dag::new();
        // Abstract node → (its Register node, its site): children depend on
        // the *registered* output.
        let mut finished: FastMap<NodeId, (NodeId, SiteId)> = FastMap::default();
        // lfn → producing abstract node.
        let producer: FastMap<FileId, NodeId> = abstract_dag
            .iter()
            .map(|(id, t)| (t.derivation.output, id))
            .collect();

        for abs_id in abstract_dag.topological_order() {
            let task = abstract_dag.payload(abs_id);
            let input_bytes: u64 = task
                .derivation
                .inputs
                .iter()
                .map(|lfn| {
                    rls.size_of(*lfn)
                        .map(|b| b.as_u64())
                        .unwrap_or(task.transformation.output_bytes)
                })
                .sum();
            let spec = self.job_spec(task, class, user, input_bytes);
            let site =
                self.select_site(&spec, candidates)
                    .ok_or_else(|| PlanError::NoEligibleSite {
                        transformation: task.transformation.name.clone(),
                    })?;

            // Stage-in nodes for every input.
            let mut stage_ins: Vec<NodeId> = Vec::new();
            let mut upstream: Vec<NodeId> = Vec::new();
            for lfn in &task.derivation.inputs {
                if let Some(abs_parent) = producer.get(lfn) {
                    // Produced within this workflow: archived at the
                    // archive site by the parent's stage-out, so stage in
                    // from there (unless we run at the archive site).
                    let (reg_node, _parent_site) = finished[abs_parent];
                    upstream.push(reg_node);
                    if site != self.archive_site {
                        let bytes = Bytes::new(
                            abstract_dag
                                .payload(*abs_parent)
                                .transformation
                                .output_bytes,
                        );
                        let n = concrete.add_node(ConcreteTask::StageIn {
                            lfn: *lfn,
                            from: self.archive_site,
                            to: site,
                            bytes,
                        });
                        stage_ins.push(n);
                    }
                } else {
                    // Pre-existing data: locate a replica.
                    let sources = rls
                        .locate(*lfn)
                        .map_err(|_| PlanError::MissingReplica(*lfn))?;
                    let from = if sources.contains(&site) {
                        site
                    } else {
                        sources[0]
                    };
                    if from != site {
                        let bytes = rls.size_of(*lfn).unwrap_or(Bytes::ZERO);
                        let n = concrete.add_node(ConcreteTask::StageIn {
                            lfn: *lfn,
                            from,
                            to: site,
                            bytes,
                        });
                        stage_ins.push(n);
                    }
                }
            }

            let output = task.derivation.output;
            let out_bytes = Bytes::new(task.transformation.output_bytes);
            let compute = concrete.add_node(ConcreteTask::Compute { spec, site, output });
            let stage_out = concrete.add_node(ConcreteTask::StageOut {
                lfn: output,
                from: site,
                to: self.archive_site,
                bytes: out_bytes,
            });
            let register = concrete.add_node(ConcreteTask::Register {
                lfn: output,
                site: self.archive_site,
                bytes: out_bytes,
            });

            for si in &stage_ins {
                concrete
                    .add_edge(*si, compute)
                    .expect("acyclic by construction");
            }
            for up in &upstream {
                // Parent's register must precede this task's stage-ins (or
                // the compute directly when no stage-in was needed).
                for si in &stage_ins {
                    concrete.add_edge(*up, *si).expect("acyclic");
                }
                if stage_ins.is_empty() {
                    concrete.add_edge(*up, compute).expect("acyclic");
                }
            }
            concrete.add_edge(compute, stage_out).expect("acyclic");
            concrete.add_edge(stage_out, register).expect("acyclic");
            finished.insert(abs_id, (register, site));
        }
        Ok(concrete)
    }

    /// Build the compute-task job spec from the transformation metadata.
    fn job_spec(
        &self,
        task: &AbstractTask,
        class: UserClass,
        user: UserId,
        input_bytes: u64,
    ) -> JobSpec {
        let runtime = task.transformation.reference_runtime;
        JobSpec {
            class,
            user,
            reference_runtime: runtime,
            requested_walltime: runtime * self.walltime_margin,
            input_bytes: Bytes::new(input_bytes),
            output_bytes: Bytes::new(task.transformation.output_bytes),
            scratch_bytes: Bytes::new(task.transformation.output_bytes),
            needs_outbound: self.needs_outbound,
            staged_files: task.derivation.inputs.len() as u32 + 1,
            registers_output: true,
        }
    }

    /// §6.4 site selection over MDS records.
    fn select_site(&self, spec: &JobSpec, candidates: &[&GlueRecord]) -> Option<SiteId> {
        let mut eligible: Vec<&&GlueRecord> = candidates
            .iter()
            .filter(|r| r.admits_vo(spec.class.vo()))
            .filter(|r| !spec.needs_outbound || r.outbound_connectivity)
            .filter(|r| spec.requested_walltime <= r.max_walltime)
            .filter(|r| (spec.input_bytes + spec.output_bytes + spec.scratch_bytes) <= r.se_free)
            .collect();
        eligible.sort_by(|a, b| {
            b.free_cpus
                .cmp(&a.free_cpus)
                .then_with(|| {
                    b.wan_bandwidth
                        .as_bytes_per_sec()
                        .partial_cmp(&a.wan_bandwidth.as_bytes_per_sec())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.site.cmp(&b.site))
        });
        eligible.first().map(|r| r.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chimera::{Derivation, Transformation, VirtualDataCatalog};
    use grid3_simkit::time::{SimDuration, SimTime};
    use grid3_simkit::units::Bandwidth;

    fn record(site: u32, free: u32, max_wall_hr: u64, se_free_tb: u64) -> GlueRecord {
        GlueRecord {
            site: SiteId(site),
            site_name: format!("S{site}"),
            total_cpus: 128,
            free_cpus: free,
            queued_jobs: 0,
            max_walltime: SimDuration::from_hours(max_wall_hr),
            se_free: Bytes::from_tb(se_free_tb),
            se_total: Bytes::from_tb(se_free_tb),
            wan_bandwidth: Bandwidth::from_mbit_per_sec(100.0 + site as f64),
            outbound_connectivity: true,
            allowed_vos: None,
            owner_vo: None,
            app_install_area: "/app".into(),
            tmp_dir: "/tmp".into(),
            data_dir: "/data".into(),
            vdt_location: "/vdt".into(),
            vdt_version: "1.1.8".into(),
            timestamp: SimTime::EPOCH,
        }
    }

    fn atlas_pipeline() -> (VirtualDataCatalog, FileId) {
        let mut vdc = VirtualDataCatalog::new();
        for (name, hours) in [("pythia", 1u64), ("atlsim", 8), ("reco", 4)] {
            vdc.add_transformation(Transformation {
                name: name.into(),
                version: "1".into(),
                reference_runtime: SimDuration::from_hours(hours),
                output_bytes: 2_000_000_000,
            });
        }
        vdc.add_derivation(Derivation {
            output: FileId(1),
            inputs: vec![],
            transformation: "pythia".into(),
        })
        .unwrap();
        vdc.add_derivation(Derivation {
            output: FileId(2),
            inputs: vec![FileId(1)],
            transformation: "atlsim".into(),
        })
        .unwrap();
        vdc.add_derivation(Derivation {
            output: FileId(3),
            inputs: vec![FileId(2)],
            transformation: "reco".into(),
        })
        .unwrap();
        (vdc, FileId(3))
    }

    #[test]
    fn plans_full_lifecycle_per_task() {
        let (vdc, request) = atlas_pipeline();
        let rls = ReplicaLocationService::new();
        let abstract_dag = vdc.plan_request(request, &rls).unwrap();
        let planner = PegasusPlanner::new(SiteId(0)); // BNL archive
        let recs = [record(1, 50, 48, 10)];
        let refs: Vec<&GlueRecord> = recs.iter().collect();
        let concrete = planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .unwrap();
        // 3 compute + 3 stage-out + 3 register + 2 stage-in (outputs of
        // pythia and atlsim staged back from BNL to site 1).
        let kinds: Vec<&str> = concrete.iter().map(|(_, t)| t.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "compute").count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == "stage-out").count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == "register").count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == "stage-in").count(), 2);
        // Lifecycle ordering: every compute precedes its stage-out, which
        // precedes its register.
        let order = concrete.topological_order();
        let pos: Vec<usize> = (0..concrete.len())
            .map(|i| order.iter().position(|n| n.index() == i).unwrap())
            .collect();
        for (id, t) in concrete.iter() {
            if t.kind() == "compute" {
                for &c in concrete.children(id) {
                    assert!(pos[id.index()] < pos[c.index()]);
                }
            }
        }
    }

    #[test]
    fn archive_site_execution_skips_redundant_staging() {
        let (vdc, request) = atlas_pipeline();
        let rls = ReplicaLocationService::new();
        let abstract_dag = vdc.plan_request(request, &rls).unwrap();
        let planner = PegasusPlanner::new(SiteId(0));
        // Only candidate IS the archive site: no stage-ins needed at all.
        let recs = [record(0, 50, 48, 10)];
        let refs: Vec<&GlueRecord> = recs.iter().collect();
        let concrete = planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .unwrap();
        let stage_ins = concrete
            .iter()
            .filter(|(_, t)| t.kind() == "stage-in")
            .count();
        assert_eq!(stage_ins, 0);
    }

    #[test]
    fn site_selection_prefers_free_cpus_then_bandwidth() {
        let (vdc, request) = atlas_pipeline();
        let rls = ReplicaLocationService::new();
        let abstract_dag = vdc.plan_request(request, &rls).unwrap();
        let planner = PegasusPlanner::new(SiteId(9));
        let recs = [
            record(1, 10, 48, 10),
            record(2, 90, 48, 10),
            record(3, 90, 48, 10),
        ];
        let refs: Vec<&GlueRecord> = recs.iter().collect();
        let concrete = planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .unwrap();
        // Sites 2 and 3 tie on free CPUs; 3 has higher bandwidth.
        for (_, t) in concrete.iter() {
            if let ConcreteTask::Compute { site, .. } = t {
                assert_eq!(*site, SiteId(3));
            }
        }
    }

    #[test]
    fn walltime_and_disk_filters_apply() {
        let (vdc, request) = atlas_pipeline();
        let rls = ReplicaLocationService::new();
        let abstract_dag = vdc.plan_request(request, &rls).unwrap();
        let planner = PegasusPlanner::new(SiteId(9));
        // atlsim needs 8 h × 1.5 = 12 h walltime; this site offers 4 h.
        let short = [record(1, 50, 4, 10)];
        let refs: Vec<&GlueRecord> = short.iter().collect();
        let err = planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .unwrap_err();
        assert!(matches!(err, PlanError::NoEligibleSite { .. }));
        // Enough walltime but no disk.
        let cramped = [record(1, 50, 48, 0)];
        let refs: Vec<&GlueRecord> = cramped.iter().collect();
        assert!(planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .is_err());
    }

    #[test]
    fn preexisting_inputs_staged_from_rls_replicas() {
        let (vdc, _) = atlas_pipeline();
        let mut rls = ReplicaLocationService::new();
        // Simulated hits exist at site 7; plan just the reco step.
        rls.register(FileId(2), SiteId(7), Bytes::from_gb(2));
        let abstract_dag = vdc.plan_request(FileId(3), &rls).unwrap();
        assert_eq!(abstract_dag.len(), 1);
        let planner = PegasusPlanner::new(SiteId(0));
        let recs = [record(1, 50, 48, 10)];
        let refs: Vec<&GlueRecord> = recs.iter().collect();
        let concrete = planner
            .plan(&abstract_dag, UserClass::Usatlas, UserId(0), &refs, &rls)
            .unwrap();
        let stage_in = concrete
            .iter()
            .find(|(_, t)| t.kind() == "stage-in")
            .expect("needs a stage-in");
        match stage_in.1 {
            ConcreteTask::StageIn {
                from,
                to,
                lfn,
                bytes,
            } => {
                assert_eq!(*from, SiteId(7));
                assert_eq!(*to, SiteId(1));
                assert_eq!(*lfn, FileId(2));
                assert_eq!(*bytes, Bytes::from_gb(2));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn missing_replica_is_an_error() {
        let mut vdc = VirtualDataCatalog::new();
        vdc.add_transformation(Transformation {
            name: "t".into(),
            version: "1".into(),
            reference_runtime: SimDuration::from_hours(1),
            output_bytes: 1,
        });
        // Derivation consuming a file that neither exists nor is derivable
        // would fail at Chimera expansion; to exercise the planner path we
        // register the input's replica, plan, then drop it.
        vdc.add_derivation(Derivation {
            output: FileId(1),
            inputs: vec![FileId(9)],
            transformation: "t".into(),
        })
        .unwrap();
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(9), SiteId(5), Bytes::from_gb(1));
        let abstract_dag = vdc.plan_request(FileId(1), &rls).unwrap();
        rls.drop_site(SiteId(5));
        let planner = PegasusPlanner::new(SiteId(0));
        let recs = [record(1, 50, 48, 10)];
        let refs: Vec<&GlueRecord> = recs.iter().collect();
        assert_eq!(
            planner
                .plan(&abstract_dag, UserClass::Sdss, UserId(0), &refs, &rls)
                .unwrap_err(),
            PlanError::MissingReplica(FileId(9))
        );
    }
}
