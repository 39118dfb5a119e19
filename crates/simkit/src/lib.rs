//! # grid3-simkit
//!
//! Deterministic discrete-event simulation (DES) engine underpinning the
//! Grid2003 reproduction.
//!
//! The Grid2003 paper (HPDC 2004) reports the operational behaviour of a
//! 27-site production grid over roughly seven months. That deployment cannot
//! be re-created physically, so the reproduction models the whole
//! infrastructure as a discrete-event simulation. This crate provides the
//! substrate every other crate builds on:
//!
//! * [`time`] — simulation clock ([`SimTime`], [`SimDuration`]) anchored at
//!   the paper's observation epoch (2003-10-25T00:00:00 UTC) plus the
//!   Gregorian calendar arithmetic needed for "jobs per month" style
//!   reporting (Figure 6, Table 1 peak months).
//! * [`units`] — strongly typed quantities: [`Bytes`], [`Bandwidth`].
//! * [`ids`] — zero-cost typed identifiers for sites, nodes, jobs, files…
//! * [`rng`] — per-entity deterministic random streams derived from one
//!   master seed, so simulations are pure functions of `(config, seed)`.
//! * [`dist`] — the runtime / file-size / failure-interarrival
//!   distributions used to calibrate workloads against the paper's Table 1.
//! * [`engine`] — the event queue and clock with a total, reproducible
//!   event order.
//! * [`series`] — binned time-series accumulators used to regenerate the
//!   paper's figures (integrated and differential CPU usage, transfer
//!   volume, monthly job counts).
//! * [`stats`] — small streaming-statistics helpers.
//! * [`profiler`] — the cost-attribution profiler: dense per-cost-center
//!   wall-time/fan-out/allocation accounting for the dispatch loop
//!   (allocation columns require the `count-allocs` feature).
//!
//! Everything here is simulation-pure: no wall-clock access, no I/O.

#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod hash;
pub mod ids;
pub mod profiler;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use engine::EventQueue;
pub use profiler::{alloc_snapshot, CostCenter, CostProfiler};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
