//! The Chimera virtual data catalog.
//!
//! Chimera (cited as \[32\] in the paper) represents data *by derivation*: a
//! transformation is an executable recipe, a derivation records that a
//! logical file is produced by running a transformation over input logical
//! files. Requesting a file the grid does not yet hold materializes the
//! derivation graph needed to produce it — "virtual data". ATLAS (§4.1),
//! SDSS (§4.3), LIGO (§4.4) and BTeV (§4.5) all drove Grid3 through
//! Chimera-built workflows.

use crate::dag::{Dag, NodeId};
use grid3_middleware::rls::ReplicaLocationService;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::FileId;
use grid3_simkit::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An executable recipe (the TR of Chimera's VDL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transformation {
    /// Name, e.g. `"pythia-gen"`, `"atlsim"`, `"reco"`.
    pub name: String,
    /// Version string.
    pub version: String,
    /// CPU time one invocation needs on the reference processor.
    pub reference_runtime: SimDuration,
    /// Output size produced per invocation, in bytes.
    pub output_bytes: u64,
}

/// A derivation (the DV): `output = transformation(inputs)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Derivation {
    /// The logical file produced.
    pub output: FileId,
    /// Logical files consumed.
    pub inputs: Vec<FileId>,
    /// Name of the transformation that produces it.
    pub transformation: String,
}

/// One node of an abstract (site-independent) workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbstractTask {
    /// The derivation this task executes.
    pub derivation: Derivation,
    /// Resolved transformation metadata.
    pub transformation: Transformation,
}

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VdcError {
    /// Derivation references an unregistered transformation.
    UnknownTransformation(
        /// The missing transformation name.
        String,
    ),
    /// The requested file has no derivation and no replica.
    Underivable(
        /// The file that cannot be produced.
        FileId,
    ),
    /// A file would (transitively) derive from itself.
    CyclicDerivation(
        /// A file on the cycle.
        FileId,
    ),
    /// A second derivation was registered for the same output.
    DuplicateDerivation(
        /// The output with two recipes.
        FileId,
    ),
}

/// The virtual data catalog.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VirtualDataCatalog {
    transformations: BTreeMap<String, Transformation>,
    derivations: BTreeMap<FileId, Derivation>,
}

impl VirtualDataCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a transformation (replacing any same-name predecessor).
    pub fn add_transformation(&mut self, tr: Transformation) {
        self.transformations.insert(tr.name.clone(), tr);
    }

    /// Register a derivation. Its transformation must exist; an output may
    /// have only one recipe.
    pub fn add_derivation(&mut self, dv: Derivation) -> Result<(), VdcError> {
        if !self.transformations.contains_key(&dv.transformation) {
            return Err(VdcError::UnknownTransformation(dv.transformation));
        }
        if self.derivations.contains_key(&dv.output) {
            return Err(VdcError::DuplicateDerivation(dv.output));
        }
        self.derivations.insert(dv.output, dv);
        Ok(())
    }

    /// Number of registered derivations.
    pub fn derivation_count(&self) -> usize {
        self.derivations.len()
    }

    /// Number of registered transformations.
    pub fn transformation_count(&self) -> usize {
        self.transformations.len()
    }

    /// Materialize the abstract workflow that produces `request`.
    ///
    /// Files already holding a replica in `rls` are pruned (virtual data's
    /// defining optimization: never recompute what exists). Returns an
    /// empty DAG when the request is already materialized.
    pub fn plan_request(
        &self,
        request: FileId,
        rls: &ReplicaLocationService,
    ) -> Result<Dag<AbstractTask>, VdcError> {
        let mut dag = Dag::new();
        let mut nodes: FastMap<FileId, NodeId> = FastMap::default();
        let mut visiting: Vec<FileId> = Vec::new();
        self.expand(request, rls, &mut dag, &mut nodes, &mut visiting)?;
        Ok(dag)
    }

    fn expand(
        &self,
        lfn: FileId,
        rls: &ReplicaLocationService,
        dag: &mut Dag<AbstractTask>,
        nodes: &mut FastMap<FileId, NodeId>,
        visiting: &mut Vec<FileId>,
    ) -> Result<Option<NodeId>, VdcError> {
        if rls.exists(lfn) {
            return Ok(None); // already materialized somewhere on the grid
        }
        if let Some(&node) = nodes.get(&lfn) {
            return Ok(Some(node));
        }
        if visiting.contains(&lfn) {
            return Err(VdcError::CyclicDerivation(lfn));
        }
        let dv = self
            .derivations
            .get(&lfn)
            .ok_or(VdcError::Underivable(lfn))?;
        let tr = self
            .transformations
            .get(&dv.transformation)
            .ok_or_else(|| VdcError::UnknownTransformation(dv.transformation.clone()))?;

        visiting.push(lfn);
        let mut parent_nodes = Vec::new();
        for input in &dv.inputs {
            if let Some(p) = self.expand(*input, rls, dag, nodes, visiting)? {
                parent_nodes.push(p);
            }
        }
        visiting.pop();

        let node = dag.add_node(AbstractTask {
            derivation: dv.clone(),
            transformation: tr.clone(),
        });
        nodes.insert(lfn, node);
        for p in parent_nodes {
            dag.add_edge(p, node)
                .expect("expansion builds acyclic graphs");
        }
        Ok(Some(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::SiteId;
    use grid3_simkit::units::Bytes;

    fn tr(name: &str, hours: u64) -> Transformation {
        Transformation {
            name: name.into(),
            version: "1.0".into(),
            reference_runtime: SimDuration::from_hours(hours),
            output_bytes: 2_000_000_000,
        }
    }

    /// The ATLAS three-step pipeline of §4.1: pythia → atlsim → reco.
    fn atlas_catalog() -> VirtualDataCatalog {
        let mut vdc = VirtualDataCatalog::new();
        vdc.add_transformation(tr("pythia", 1));
        vdc.add_transformation(tr("atlsim", 8));
        vdc.add_transformation(tr("reco", 4));
        vdc.add_derivation(Derivation {
            output: FileId(1), // generated events
            inputs: vec![],
            transformation: "pythia".into(),
        })
        .unwrap();
        vdc.add_derivation(Derivation {
            output: FileId(2), // simulated hits
            inputs: vec![FileId(1)],
            transformation: "atlsim".into(),
        })
        .unwrap();
        vdc.add_derivation(Derivation {
            output: FileId(3), // reconstructed sample
            inputs: vec![FileId(2)],
            transformation: "reco".into(),
        })
        .unwrap();
        vdc
    }

    #[test]
    fn full_pipeline_materializes_when_nothing_exists() {
        let vdc = atlas_catalog();
        let rls = ReplicaLocationService::new();
        let dag = vdc.plan_request(FileId(3), &rls).unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.critical_path_len(), 3);
        // Leaf is the reco step.
        let leaves = dag.leaves();
        assert_eq!(leaves.len(), 1);
        assert_eq!(dag.payload(leaves[0]).transformation.name, "reco");
    }

    #[test]
    fn existing_replicas_prune_the_graph() {
        let vdc = atlas_catalog();
        let mut rls = ReplicaLocationService::new();
        // Simulated hits already archived at BNL.
        rls.register(FileId(2), SiteId(0), Bytes::from_gb(2));
        let dag = vdc.plan_request(FileId(3), &rls).unwrap();
        assert_eq!(dag.len(), 1, "only reco remains");
        // Fully materialized request → empty plan.
        rls.register(FileId(3), SiteId(0), Bytes::from_gb(2));
        let empty = vdc.plan_request(FileId(3), &rls).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn shared_inputs_expand_once() {
        // Two analyses both consuming the same simulated file.
        let mut vdc = atlas_catalog();
        vdc.add_transformation(tr("analysis", 2));
        vdc.add_derivation(Derivation {
            output: FileId(10),
            inputs: vec![FileId(2), FileId(3)],
            transformation: "analysis".into(),
        })
        .unwrap();
        let rls = ReplicaLocationService::new();
        let dag = vdc.plan_request(FileId(10), &rls).unwrap();
        // pythia, atlsim, reco, analysis — atlsim NOT duplicated even
        // though it feeds both reco and analysis.
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.edge_count(), 4); // 1→2, 2→3, 2→10, 3→10
    }

    #[test]
    fn underivable_and_unknown_transformation_errors() {
        let mut vdc = atlas_catalog();
        let rls = ReplicaLocationService::new();
        assert!(matches!(
            vdc.plan_request(FileId(99), &rls),
            Err(VdcError::Underivable(f)) if f == FileId(99)
        ));
        assert_eq!(
            vdc.add_derivation(Derivation {
                output: FileId(50),
                inputs: vec![],
                transformation: "ghost".into(),
            }),
            Err(VdcError::UnknownTransformation("ghost".into()))
        );
    }

    #[test]
    fn duplicate_derivation_rejected() {
        let mut vdc = atlas_catalog();
        assert_eq!(
            vdc.add_derivation(Derivation {
                output: FileId(1),
                inputs: vec![],
                transformation: "pythia".into(),
            }),
            Err(VdcError::DuplicateDerivation(FileId(1)))
        );
    }

    #[test]
    fn cyclic_derivations_detected() {
        let mut vdc = VirtualDataCatalog::new();
        vdc.add_transformation(tr("t", 1));
        vdc.add_derivation(Derivation {
            output: FileId(1),
            inputs: vec![FileId(2)],
            transformation: "t".into(),
        })
        .unwrap();
        vdc.add_derivation(Derivation {
            output: FileId(2),
            inputs: vec![FileId(1)],
            transformation: "t".into(),
        })
        .unwrap();
        let rls = ReplicaLocationService::new();
        assert!(matches!(
            vdc.plan_request(FileId(1), &rls),
            Err(VdcError::CyclicDerivation(_))
        ));
    }

    #[test]
    fn counts() {
        let vdc = atlas_catalog();
        assert_eq!(vdc.transformation_count(), 3);
        assert_eq!(vdc.derivation_count(), 3);
        assert!(vdc.derivations.contains_key(&FileId(2)));
        assert!(!vdc.derivations.contains_key(&FileId(9)));
    }
}
