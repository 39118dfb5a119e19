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
//! * [`framework`] — the Figure 1 producer/intermediary/consumer
//!   topology as a checked table (so tests can verify every path
//!   exists); the simulator does not route data along it.
//! * [`ganglia`] — the central iGOC web summary of per-site cluster
//!   monitoring (CPU load, slots, disk), written by the monitor sweep.
//! * [`monalisa`] — the central MonALISA repository and its round-robin
//!   database (§5.2: "storing it in a round robin-like database"),
//!   holding the per-site series the monitor sweep records.
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
pub use framework::{fig1_topology, ComponentKind};
pub use ganglia::GangliaWeb;
pub use mdviewer::MdViewer;
pub use monalisa::MonAlisaRepository;
pub use netlogger::NetLoggerArchive;
pub use trace::{JobTrace, SubmitSideId, TraceEvent, TraceStore};

/// Sites for the unit tests.
#[cfg(test)]
mod testing {
    use grid3_simkit::ids::{JobId, SiteId};
    use grid3_simkit::time::{SimDuration, SimTime};
    use grid3_simkit::units::{Bandwidth, Bytes};
    use grid3_site::cluster::{Site, SitePolicy, SiteProfile, SiteTier};
    use grid3_site::failure::FailureModel;
    use grid3_site::scheduler::{QueuedJob, SchedulerKind};
    use grid3_site::vo::Vo;

    /// An open, failure-free Tier-2 site of `cpus` slots and 1 TB of
    /// disk.
    pub(crate) fn site(id: u32, cpus: u32) -> Site {
        Site::new(
            SiteId(id),
            SiteProfile {
                name: format!("S{id}"),
                tier: SiteTier::Tier2,
                owner_vo: None,
                cpus,
                node_speed: 1.0,
                outbound_connectivity: true,
                wan_bandwidth: Bandwidth::from_mbit_per_sec(100.0),
                storage_capacity: Bytes::from_tb(1),
                scheduler: SchedulerKind::OpenPbs,
                dedicated: true,
                policy: SitePolicy::open(SimDuration::from_hours(48)),
                failures: FailureModel::none(),
            },
        )
    }

    /// Queue one 4-hour job per entry of `vos` at `site`.
    pub(crate) fn enqueue(site: &mut Site, vos: &[Vo]) {
        for vo in vos {
            let job = JobId((site.queued_count() + site.running_count()) as u32);
            site.enqueue(QueuedJob {
                job,
                vo: *vo,
                requested_walltime: SimDuration::from_hours(4),
                enqueued: SimTime::EPOCH,
            });
        }
    }
}
