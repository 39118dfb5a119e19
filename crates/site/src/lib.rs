//! # grid3-site
//!
//! The site substrate of the Grid3 reproduction: everything that lives at
//! one of the 27 participating facilities.
//!
//! The paper's §5 describes a two-tier design in which each *site*
//! contributes a compute cluster fronted by a gatekeeper, a local batch
//! scheduler (OpenPBS, Condor or LSF — §5), a storage element and a WAN
//! link, all shared across six virtual organizations with local policy
//! control. This crate models those physical and policy components:
//!
//! * [`vo`] — the six VOs and the seven user classes of Table 1.
//! * [`job`] — job specifications, the multi-step lifecycle of §6.1
//!   (pre-stage → execute → post-stage → register) and the failure taxonomy
//!   measured there.
//! * [`node`] — worker nodes (speed relative to the 2 GHz reference CPU of
//!   §4.5, private vs. public network addressing).
//! * [`scheduler`] — the three batch-scheduler families with per-VO policy.
//! * [`storage`] — storage elements with finite capacity (disk-full is the
//!   paper's leading failure cause).
//! * [`cluster`] — the [`Site`] aggregate and its
//!   [`SiteProfile`].
//! * [`failure`] — the calibrated failure-injection model of DESIGN.md §6.

#![warn(missing_docs)]

pub mod cluster;
pub mod failure;
pub mod job;
pub mod node;
pub mod scheduler;
pub mod storage;
pub mod vo;

pub use cluster::{Site, SitePolicy, SiteProfile};
pub use failure::{FailureEvent, FailureModel};
pub use job::{FailureCause, JobOutcome, JobRecord, JobSpec};
pub use scheduler::SchedulerKind;
pub use storage::StorageElement;
pub use vo::{UserClass, Vo};
