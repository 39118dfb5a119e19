//! # grid3-sim — a reproduction of the Grid2003 production grid
//!
//! Umbrella crate for the workspace reproducing *"The Grid2003 Production
//! Grid: Principles and Practice"* (HPDC 2004). It re-exports the member
//! crates so the runnable examples and cross-crate integration tests have
//! one import root; library users should normally depend on the member
//! crates directly:
//!
//! * [`simkit`] — the deterministic discrete-event engine;
//! * [`site`] — clusters, batch schedulers, storage, failures;
//! * [`middleware`] — GRAM, GridFTP, MDS, RLS, GSI, VOMS;
//! * [`pacman`] — packaging and site installation/certification;
//! * [`monitoring`] — Ganglia, MonALISA, ACDC, status catalog, MDViewer;
//! * [`igoc`] — the operations center;
//! * [`core`] — topology, broker, the whole-grid simulation, reports;
//! * [`workflow`] — the CMS production path: DAGs, DAGMan, MCRunJob/MOP
//!   (`core::workflow`);
//! * [`apps`] — the calibrated Table 1 workloads and the Entrada GridFTP
//!   demonstrator (`core::apps`).

pub use grid3_core as core;
pub use grid3_core::{apps, workflow};
pub use grid3_igoc as igoc;
pub use grid3_middleware as middleware;
pub use grid3_monitoring as monitoring;
pub use grid3_pacman as pacman;
pub use grid3_simkit as simkit;
pub use grid3_site as site;
