//! The Grid3 application demonstrators of §4 and Table 1, as the engine
//! runs them.
//!
//! * [`workloads`] — the calibrated workload generators: per-class job
//!   populations whose counts, runtime distributions, data sizes and
//!   monthly intensity reproduce Table 1's shape.
//! * [`demonstrators`] — the Entrada GridFTP transfer matrix (§4.7).

pub mod demonstrators;
pub mod workloads;
