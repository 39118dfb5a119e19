//! # grid3-core
//!
//! The top of the Grid2003 reproduction: wires the substrates — sites,
//! middleware, packaging, monitoring, operations — together with the
//! workloads and the CMS workflow path it owns into a whole-grid
//! discrete-event simulation, runs the paper's scenarios, and extracts
//! the reports its evaluation section presents.
//!
//! * [`topology`] — the 27-site Grid3 resource inventory (≈2163 steady
//!   CPUs, surging past 2800 during SC2003) with per-site schedulers,
//!   bandwidths, storage, policies and failure behaviour.
//! * [`broker`] — §6.4 site selection: requirement filtering (outbound
//!   connectivity, disk, max runtime, bandwidth) plus the observed VO
//!   affinity ("applications tend to favor the resources provided within
//!   their VO").
//! * [`chaos`] — deterministic fault injection: seeded, replayable
//!   [`chaos::FaultPlan`]s over the paper's §6 failure classes, and the
//!   [`chaos::InvariantAuditor`] that watches the event stream for
//!   conservation violations (observation-only, bit-neutral).
//! * [`engine`] — the thin event router: clock + typed event queue +
//!   the five routed subsystem services, held bit-identical to the
//!   former monolithic engine by the golden-hash determinism suite.
//! * [`subsystems`] — the services themselves (brokering, staging,
//!   execution, fault handling, reporting) behind the
//!   `Subsystem` trait, the shared
//!   [`subsystems::GridFabric`] status board, and the §5 assembly
//!   pipeline. The simulated lifecycle is §6.1's: submission →
//!   gatekeeper → stage-in → batch queue → execution → stage-out → RLS
//!   registration, with the calibrated failure injection of §6.
//! * [`campaign`] — whole-run parameter sweeps: fan a scenario across
//!   seeds and variants in parallel and merge the per-run reports into
//!   percentile bands.
//! * [`resilience`] — the adaptive fault-handling layer of §6.2:
//!   per-site health scoring and blacklisting the broker consults,
//!   failure-storm detection feeding the iGOC ticket queue, and the
//!   repair loop that re-validates sites into the low-failure regime.
//! * [`scenario`] — canned experiment configurations: the 30-day SC2003
//!   window (Figures 2, 3, 5), the 150-day CMS window (Figure 4), the
//!   full seven months (Table 1, Figure 6, §7 metrics), and the operated
//!   storm scenario exercising the resilience layer.
//! * [`report`] — report extraction and ASCII rendering: Table 1, every
//!   figure's series, and the §7 milestones/metrics block.
//! * [`ops`] — the structured ops journal: the JSON-lines stream of
//!   operational events (faults, tickets, blacklists, rescues, reaps)
//!   behind the `figures -- ops` iGOC-console view.
//! * [`federation`] — the multi-grid layer: N member grids with their
//!   own site sets, VO admission and middleware backend personalities,
//!   hierarchical MDS peering, and cross-grid brokering/stage-in.
//! * [`snapshot`] — crash safety: serialize a live engine mid-run to a
//!   versioned, checksummed snapshot and restore it bit-identically,
//!   the substrate under resumable campaigns.
//! * [`apps`] — the workloads the engine submits: the calibrated
//!   Table 1 job populations and the Entrada GridFTP transfer matrix
//!   (§4.7).
//! * [`workflow`] — the CMS production path (§4.2): MCRunJob/MOP writes
//!   each production request as a DAG, and the Condor-G/DAGMan model
//!   releases its nodes to the broker.
//!
//! ## Quickstart
//!
//! ```
//! use grid3_core::scenario::ScenarioConfig;
//!
//! // A small, fast configuration (1 % workload scale, 30 days).
//! let cfg = ScenarioConfig::sc2003().with_scale(0.01).with_seed(7);
//! let report = cfg.run();
//! assert!(report.total_jobs > 0);
//! println!("{}", report.render_metrics());
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod broker;
pub mod campaign;
pub mod chaos;
pub mod dsl;
pub mod engine;
pub mod federation;
pub mod ops;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod snapshot;
pub mod subsystems;
pub mod topology;
pub mod workflow;

#[cfg(test)]
mod engine_tests;

pub use chaos::{ChaosRates, FaultKind, FaultPlan, PlannedFault};
pub use dsl::{DslError, JobTrace, TraceJob};
pub use engine::Grid3Engine;
pub use federation::{Federation, GridSpec};
pub use ops::{OpsEventKind, OpsRecord};
pub use report::Grid3Report;
pub use resilience::{ResilienceConfig, ResilienceLayer};
pub use scenario::{CampaignSpec, ScenarioConfig, StormSpec};
pub use snapshot::{EngineSnapshot, SnapshotError};
pub use topology::grid3_topology;
