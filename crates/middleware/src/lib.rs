//! # grid3-middleware
//!
//! The VDT middleware stack of §5.1, reproduced as simulation components:
//!
//! * [`gsi`] — Grid Security Infrastructure: X.509 certificates, CAs,
//!   grid-map files mapping DNs to local group accounts.
//! * [`voms`] — the EDG Virtual Organization Management System of §5.3:
//!   membership database per VO and `edg-mkgridmap`-style grid-map
//!   generation.
//! * [`mds`] — Monitoring and Discovery Service: per-site GRIS records in
//!   a GLUE-style schema (with the Grid3 extensions of §5.1: application
//!   install areas, temporary directories, storage element locations, VDT
//!   location), VO-level GIIS indexes, and the top-level iGOC index.
//! * [`rls`] — the Replica Location Service: one local replica catalog
//!   per site (the LRC half of the Giggle LRC/RLI design the paper
//!   cites) and the sites whose catalogs have gone stale.
//! * [`gridftp`] — wide-area transfer service with per-site shared link
//!   bandwidth and NetLogger-style event instrumentation (§4.7).
//! * [`gram`] — the GRAM gatekeeper with the §6.4 empirical load model
//!   (sustained 1-minute load ≈225 while managing ≈1000 jobs, multiplied
//!   2–4× by file staging, spiking under high submission frequency).
//! * [`backend`] — middleware personalities as data: the VDT reference
//!   knobs (the constants above) and the contrasting EDG/LCG flavour,
//!   selected per grid by [`BackendKind`] in federated runs.

#![warn(missing_docs)]

pub mod backend;
pub mod gram;
pub mod gridftp;
pub mod gsi;
pub mod mds;
pub mod rls;
pub mod voms;

pub use backend::{BackendKind, RankInputs};
pub use gram::{Gatekeeper, GramError};
pub use gridftp::{GridFtp, TransferRequest};
pub use gsi::{CertificateAuthority, GridMapFile};
pub use mds::{GiisIndex, GlueRecord, MdsDirectory, MdsPeering};
pub use rls::ReplicaLocationService;
pub use voms::VomsServer;
