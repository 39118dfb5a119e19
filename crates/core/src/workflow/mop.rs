//! MCRunJob + MOP: the CMS production pipeline.
//!
//! §4.2: "CMS detector simulation consists of 3 steps: (1) event
//! generation with Pythia, (2) event simulation with a GEANT-based
//! simulation application, and finally (3) reconstruction and digitization
//! with the additional pile-up events. … CMS Production jobs are specified
//! by reading input parameters from a control database and converting them
//! to DAGs suitable for submission to Condor-G/DAGMan." The software suite
//! is "MCRunJob, a CMS tool for workflow configuration, and MOP, a CMS DAG
//! writer". §6.2 names the two simulators: CMSIM (GEANT3, FORTRAN,
//! statically linked) and OSCAR (GEANT4, C++, >30-hour jobs).

use super::dag::Dag;
use grid3_simkit::ids::{FileId, FileIdGen, UserId};
use grid3_simkit::time::SimDuration;
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize};

/// Which GEANT-based simulator the request uses (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmsSimulator {
    /// GEANT3 FORTRAN, statically linked; shorter jobs.
    Cmsim,
    /// GEANT4 C++, dynamically linked; "some more than 30 hours".
    Oscar,
}

impl CmsSimulator {
    /// Reference CPU seconds per simulated event.
    pub(crate) fn secs_per_event(self) -> f64 {
        match self {
            CmsSimulator::Cmsim => 180.0,
            CmsSimulator::Oscar => 540.0,
        }
    }
}

/// The CMS pipeline step a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmsStep {
    /// Pythia event generation.
    Generate,
    /// GEANT detector simulation.
    Simulate,
    /// Reconstruction + digitization with pile-up.
    Digitize,
}

/// One node of a CMS production DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmsTask {
    /// Pipeline step.
    pub step: CmsStep,
    /// Which job chain (0-based) within the request.
    pub chain: u64,
    /// The grid job specification.
    pub spec: JobSpec,
    /// Logical file produced by this step.
    pub output: FileId,
}

/// A row of the CMS production control database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionRequest {
    /// Dataset name, e.g. `"eg02_BigJets"`.
    pub dataset: String,
    /// Total events requested (the 2004 data challenge needed 50 M, §4.2).
    pub events: u64,
    /// Events per job chain.
    pub events_per_job: u64,
    /// Simulator choice.
    pub simulator: CmsSimulator,
    /// Submitting production operator.
    pub operator: UserId,
}

impl ProductionRequest {
    /// Number of job chains this request expands to (ceiling division).
    pub fn chains(&self) -> u64 {
        assert!(self.events_per_job > 0, "events_per_job must be positive");
        self.events.div_ceil(self.events_per_job)
    }
}

/// MCRunJob: converts control-database rows into DAGs (via the MOP DAG
/// writer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct McRunJob {
    lfns: FileIdGen,
}

impl McRunJob {
    /// A fresh configurator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the production DAG for one request: `chains()` independent
    /// gen→sim→digi chains (MOP fans them out across Grid3 sites via
    /// Condor-G).
    pub fn write_dag(&mut self, request: &ProductionRequest) -> Dag<CmsTask> {
        let mut dag = Dag::new();
        let events = request.events_per_job;
        for chain in 0..request.chains() {
            // Last chain may be short.
            let chain_events = if chain == request.chains() - 1 {
                request.events - events * (request.chains() - 1)
            } else {
                events
            };
            let gen_out = self.lfns.next_id();
            let sim_out = self.lfns.next_id();
            let digi_out = self.lfns.next_id();

            let gen = dag.add_node(CmsTask {
                step: CmsStep::Generate,
                chain,
                spec: self.spec(request, CmsStep::Generate, chain_events),
                output: gen_out,
            });
            let sim = dag.add_node(CmsTask {
                step: CmsStep::Simulate,
                chain,
                spec: self.spec(request, CmsStep::Simulate, chain_events),
                output: sim_out,
            });
            let digi = dag.add_node(CmsTask {
                step: CmsStep::Digitize,
                chain,
                spec: self.spec(request, CmsStep::Digitize, chain_events),
                output: digi_out,
            });
            dag.add_edge(gen, sim).expect("chain is acyclic");
            dag.add_edge(sim, digi).expect("chain is acyclic");
        }
        dag
    }

    fn spec(&self, request: &ProductionRequest, step: CmsStep, events: u64) -> JobSpec {
        let secs_per_event = match step {
            CmsStep::Generate => 0.5,
            CmsStep::Simulate => request.simulator.secs_per_event(),
            CmsStep::Digitize => 25.0,
        };
        let runtime = SimDuration::from_secs_f64(events as f64 * secs_per_event);
        // Event sizes: generated ~50 kB, simulated ~1.5 MB, digitized
        // ~2 MB/event (pile-up folded in).
        let out_per_event = match step {
            CmsStep::Generate => 50_000u64,
            CmsStep::Simulate => 1_500_000,
            CmsStep::Digitize => 2_000_000,
        };
        let in_bytes = match step {
            CmsStep::Generate => 0u64,
            CmsStep::Simulate => 50_000 * events,
            CmsStep::Digitize => 1_500_000 * events,
        };
        JobSpec {
            class: UserClass::Uscms,
            user: request.operator,
            reference_runtime: runtime,
            requested_walltime: runtime * 1.5,
            input_bytes: Bytes::new(in_bytes),
            output_bytes: Bytes::new(out_per_event * events),
            scratch_bytes: Bytes::new(out_per_event * events * 2),
            needs_outbound: false,
            staged_files: if matches!(step, CmsStep::Generate) {
                1
            } else {
                2
            },
            registers_output: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(events: u64, per_job: u64, sim: CmsSimulator) -> ProductionRequest {
        ProductionRequest {
            dataset: "eg02_BigJets".into(),
            events,
            events_per_job: per_job,
            simulator: sim,
            operator: UserId(7),
        }
    }

    #[test]
    fn chains_use_ceiling_division() {
        assert_eq!(request(1000, 250, CmsSimulator::Oscar).chains(), 4);
        assert_eq!(request(1001, 250, CmsSimulator::Oscar).chains(), 5);
        assert_eq!(request(1, 250, CmsSimulator::Oscar).chains(), 1);
    }

    #[test]
    fn dag_has_three_nodes_per_chain_in_order() {
        let mut mc = McRunJob::new();
        let dag = mc.write_dag(&request(500, 250, CmsSimulator::Cmsim));
        assert_eq!(dag.len(), 6);
        assert_eq!(dag.edge_count(), 4);
        assert_eq!(dag.critical_path_len(), 3);
        // Roots are the two generators.
        let roots = dag.roots();
        assert_eq!(roots.len(), 2);
        for r in roots {
            assert_eq!(dag.payload(r).step, CmsStep::Generate);
        }
        for l in dag.leaves() {
            assert_eq!(dag.payload(l).step, CmsStep::Digitize);
        }
    }

    #[test]
    fn oscar_jobs_exceed_thirty_hours() {
        // §6.2: official OSCAR production jobs are long, some >30 h.
        let mut mc = McRunJob::new();
        let dag = mc.write_dag(&request(250, 250, CmsSimulator::Oscar));
        let sim = dag
            .iter()
            .find(|(_, t)| t.step == CmsStep::Simulate)
            .unwrap()
            .1;
        assert!(
            sim.spec.reference_runtime > SimDuration::from_hours(30),
            "OSCAR sim runtime {} should exceed 30 h",
            sim.spec.reference_runtime
        );
        // CMSIM is markedly shorter for the same events.
        let mut mc2 = McRunJob::new();
        let dag2 = mc2.write_dag(&request(250, 250, CmsSimulator::Cmsim));
        let sim2 = dag2
            .iter()
            .find(|(_, t)| t.step == CmsStep::Simulate)
            .unwrap()
            .1;
        assert!(sim2.spec.reference_runtime < sim.spec.reference_runtime);
    }

    #[test]
    fn short_final_chain_gets_remaining_events() {
        let mut mc = McRunJob::new();
        let dag = mc.write_dag(&request(600, 250, CmsSimulator::Cmsim));
        assert_eq!(dag.len(), 9); // 3 chains
                                  // The last chain simulates only 100 events: shorter runtime.
        let sims: Vec<&CmsTask> = dag
            .iter()
            .filter(|(_, t)| t.step == CmsStep::Simulate)
            .map(|(_, t)| t)
            .collect();
        let full = sims.iter().find(|t| t.chain == 0).unwrap();
        let last = sims.iter().find(|t| t.chain == 2).unwrap();
        assert!(last.spec.reference_runtime < full.spec.reference_runtime);
        let ratio =
            last.spec.reference_runtime.as_secs_f64() / full.spec.reference_runtime.as_secs_f64();
        assert!((ratio - 100.0 / 250.0).abs() < 1e-9);
    }

    #[test]
    fn outputs_are_unique_lfns() {
        let mut mc = McRunJob::new();
        let a = mc.write_dag(&request(500, 250, CmsSimulator::Oscar));
        let b = mc.write_dag(&request(500, 250, CmsSimulator::Oscar));
        let mut lfns: Vec<u32> = a.iter().chain(b.iter()).map(|(_, t)| t.output.0).collect();
        let before = lfns.len();
        lfns.sort_unstable();
        lfns.dedup();
        assert_eq!(lfns.len(), before, "LFNs never collide across requests");
    }

    #[test]
    fn data_challenge_scale_request() {
        // §4.2: 50 M events for the 2004 data challenge. At 250 events per
        // job that is 200 000 chains — verify the arithmetic without
        // building the DAG.
        let req = request(50_000_000, 250, CmsSimulator::Oscar);
        assert_eq!(req.chains(), 200_000);
    }

    #[test]
    #[should_panic(expected = "events_per_job")]
    fn zero_events_per_job_rejected() {
        request(100, 0, CmsSimulator::Cmsim).chains();
    }
}
