//! The CMS production workflow path (§4.2): MCRunJob/MOP writes each
//! production request as a DAG, and the Condor-G/DAGMan model releases
//! its nodes to the grid.
//!
//! * [`dag`] — the directed-acyclic-graph engine: construction, cycle
//!   rejection, parent/child queries.
//! * [`dagman`] — the Condor-G/DAGMan executor model: per-node state
//!   machine, retries, rescue DAGs, submission throttling (§4.2: jobs
//!   "converted … to DAGs suitable for submission to Condor-G/DAGMan").
//! * [`mop`] — MCRunJob/MOP: CMS production requests from a parameter
//!   database converted into generation→simulation→digitization DAGs
//!   (§4.2).

pub mod dag;
pub mod dagman;
pub mod mop;
