//! # grid3-monitoring
//!
//! The Grid3 monitoring and information framework of §5.2 and Figure 1.
//!
//! The paper stresses two properties of this system. First, it is a
//! *layered dataflow*: "Producers provide monitored information, consumers
//! use this information, and intermediaries have both roles, sometimes
//! providing aggregation or filtering functions." Second, it is
//! deliberately *redundant*: "similar information \[is\] collected by
//! different paths … it has the advantage of permitting crosschecks on the
//! data collected."
//!
//! Modules, one per Figure 1 component family:
//!
//! * [`framework`] — metric events, the producer/intermediary/consumer
//!   bus, and the Figure 1 topology as data (so tests can verify every
//!   path exists).
//! * [`ganglia`] — per-site cluster monitoring (CPU/network load, disk),
//!   with the central iGOC web summary.
//! * [`monalisa`] — agent-based monitoring with the central repository and
//!   its round-robin database (§5.2: "storing it in a round robin-like
//!   database").
//! * [`acdc`] — the ACDC job monitor from U. Buffalo: pull-based job-record
//!   collection and the per-class statistics that produce Table 1.
//! * [`catalog`] — the Site Status Catalog: periodic site tests, status
//!   page.
//! * [`mdviewer`] — the Metrics Data Viewer: predefined plots parametric
//!   in time interval, site and VO (the figures of §6 come from here).
//! * [`netlogger`] — archive and analysis of NetLogger-instrumented
//!   GridFTP events (§4.7).
//! * [`trace`] — the §8 troubleshooting/accounting APIs the paper asked
//!   for: structured per-job lifecycle traces with submit-side ↔
//!   execution-side id linkage, stuck-job queries, per-user accounting.

#![warn(missing_docs)]

pub mod acdc;
pub mod catalog;
mod chunked;
pub mod framework;
pub mod ganglia;
pub mod mdviewer;
pub mod monalisa;
pub mod netlogger;
pub mod trace;

pub use acdc::{AcdcJobMonitor, ClassStats};
pub use catalog::SiteStatusCatalog;
pub use framework::{fig1_topology, ComponentKind, Metric, MetricEvent, MonitoringBus};
pub use ganglia::{GangliaAgent, GangliaWeb};
pub use mdviewer::MdViewer;
pub use monalisa::{MonAlisaAgent, MonAlisaRepository};
pub use netlogger::NetLoggerArchive;
pub use trace::{JobTrace, SubmitSideId, TraceEvent, TraceStore};
