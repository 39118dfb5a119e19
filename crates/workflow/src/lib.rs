//! # grid3-workflow
//!
//! The workflow substrate of the Grid3 applications: the paper's §4 shows
//! every experiment driving the grid through DAG-shaped workflows built by
//! virtual-data tools.
//!
//! * [`dag`] — the directed-acyclic-graph engine: construction, cycle
//!   rejection, ready-set tracking, topological order.
//! * [`chimera`] — the Chimera virtual data catalog: transformations and
//!   derivations; requesting a logical file materializes the derivation
//!   graph needed to produce it (§4.1, §4.3, §4.5).
//! * [`pegasus`] — the Pegasus planner: abstract workflow → concrete plan,
//!   pruning already-materialized data (via RLS), choosing execution sites
//!   and inserting stage-in/stage-out/registration nodes (§4.1, §4.4).
//! * [`dagman`] — the Condor-G/DAGMan executor model: per-node state
//!   machine, retries, submission throttling (§4.2: jobs "converted …
//!   to DAGs suitable for submission to Condor-G/DAGMan").
//! * [`mop`] — MCRunJob/MOP: CMS production requests from a parameter
//!   database converted into generation→simulation→digitization DAGs
//!   (§4.2).
//! * [`dial`] — DIAL distributed analysis: splitting dataset analyses into
//!   sub-jobs and merging histogram results (§4.1, §6.1).

#![warn(missing_docs)]

pub mod chimera;
pub mod dag;
pub mod dagman;
pub mod dial;
pub mod mop;
pub mod pegasus;

pub use chimera::{Derivation, Transformation, VirtualDataCatalog};
pub use dag::{Dag, NodeId as DagNodeId};
pub use dagman::{DagManager, DagState, NodeState};
pub use dial::DialScheduler;
pub use mop::{McRunJob, ProductionRequest};
pub use pegasus::{ConcreteTask, PegasusPlanner};
