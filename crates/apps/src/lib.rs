//! # grid3-apps
//!
//! The ten Grid3 application demonstrators of §4 and Table 1: seven
//! scientific user classes (ATLAS, CMS, SDSS, LIGO, BTeV, the iVDGL
//! chemistry/biology codes, and the Condor exerciser) plus the computer
//! science demonstrators (the Entrada GridFTP traffic study and the
//! NetLogger instrumentation study ride on the same machinery).
//!
//! * [`workloads`] — the calibrated workload generators: per-class job
//!   populations whose counts, runtime distributions, data sizes and
//!   monthly intensity reproduce Table 1's shape.
//! * [`atlas`] — the U.S. ATLAS GCE production pipeline (§4.1, §6.1):
//!   Chimera-derived gen→sim→reco chains plus DIAL analysis.
//! * [`cms`] — U.S. CMS MOP production (§4.2, §6.2): CMSIM/OSCAR requests.
//! * [`sdss`] — SDSS cluster finding (§4.3): thousand-step workflows.
//! * [`ligo`] — the LIGO blind pulsar search (§4.4): 4 GB SFT staging.
//! * [`demonstrators`] — the Entrada GridFTP transfer matrix (§4.7).

#![warn(missing_docs)]

pub mod atlas;
pub mod cms;
pub mod demonstrators;
pub mod ligo;
pub mod sdss;
pub mod workloads;

pub use demonstrators::EntradaDemo;
pub use workloads::{grid3_workloads, Submission, WorkloadSpec};
