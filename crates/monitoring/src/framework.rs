//! The monitoring dataflow: metric events, the sinks that ingest them,
//! and the Figure 1 topology as checkable data.

use grid3_simkit::ids::SiteId;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use grid3_site::job::JobRecord;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// One monitored datum flowing through the framework.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Metric {
    /// Ganglia: cluster CPU load average at a site.
    CpuLoad {
        /// Site measured.
        site: SiteId,
        /// 1-minute load average.
        load: f64,
    },
    /// MDS/GRIS: free batch slots.
    FreeCpus {
        /// Site measured.
        site: SiteId,
        /// Free slots.
        free: u32,
        /// Total slots.
        total: u32,
    },
    /// Job-scheduler agents: queue depth.
    QueuedJobs {
        /// Site measured.
        site: SiteId,
        /// Jobs waiting.
        queued: u32,
    },
    /// MonALISA VO-activity agents: running jobs per VO at a site.
    RunningJobs {
        /// Site measured.
        site: SiteId,
        /// VO whose jobs are counted.
        vo: Vo,
        /// Jobs running.
        running: u32,
    },
    /// Ganglia: storage element usage.
    DiskUsage {
        /// Site measured.
        site: SiteId,
        /// Bytes used.
        used: Bytes,
        /// Capacity.
        total: Bytes,
    },
    /// GRAM log agents: gatekeeper 1-minute load.
    GatekeeperLoad {
        /// Site measured.
        site: SiteId,
        /// The load value.
        load: f64,
    },
    /// Site Status Catalog probe result.
    ServiceStatus {
        /// Site probed.
        site: SiteId,
        /// Whether the probe succeeded.
        up: bool,
    },
    /// A completed/failed job's accounting record (ACDC pull).
    Job(
        /// The record.
        JobRecord,
    ),
    /// GridFTP transfer volume (NetLogger / MonALISA I/O agents).
    TransferVolume {
        /// Source site.
        src: SiteId,
        /// Destination site.
        dst: SiteId,
        /// VO responsible.
        vo: Vo,
        /// Bytes delivered.
        bytes: Bytes,
    },
}

/// A timestamped metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEvent {
    /// When the producer observed it.
    pub at: SimTime,
    /// The datum.
    pub metric: Metric,
}

/// Anything that ingests metric events (intermediaries and consumers).
pub trait MetricSink {
    /// Component name (matching Figure 1 labels where applicable).
    fn name(&self) -> &str;
    /// Ingest one event.
    fn ingest(&mut self, event: &MetricEvent);
}

/// Role of a component in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentKind {
    /// Produces monitored information at its source.
    Producer,
    /// Both consumes and provides (aggregation/filtering).
    Intermediary,
    /// End consumer (web pages, reports, viewers).
    Consumer,
}

/// A node of the Figure 1 graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Component {
    /// Label as it appears in Figure 1.
    pub name: &'static str,
    /// Role.
    pub kind: ComponentKind,
}

/// The Figure 1 monitoring architecture as a directed graph:
/// `(components, edges)` with edges as index pairs `(from, to)`.
///
/// Producers: Ganglia, MDS GRIS, job-scheduler agents, SNMP.
/// Intermediaries: MonALISA, VO GIIS, ACDC Job DB, ML repository, GIIS.
/// Consumers: web frontends, server DB reports, MDViewer.
pub fn fig1_topology() -> (Vec<Component>, Vec<(usize, usize)>) {
    use ComponentKind::*;
    let components = vec![
        Component {
            name: "Ganglia",
            kind: Producer,
        }, // 0
        Component {
            name: "MDS GRIS",
            kind: Producer,
        }, // 1
        Component {
            name: "Job scheduler agents",
            kind: Producer,
        }, // 2
        Component {
            name: "SNMP",
            kind: Producer,
        }, // 3
        Component {
            name: "MonALISA",
            kind: Intermediary,
        }, // 4
        Component {
            name: "VO GIIS",
            kind: Intermediary,
        }, // 5
        Component {
            name: "GIIS",
            kind: Intermediary,
        }, // 6
        Component {
            name: "ACDC Job DB",
            kind: Intermediary,
        }, // 7
        Component {
            name: "ML repository",
            kind: Intermediary,
        }, // 8
        Component {
            name: "Ganglia web",
            kind: Consumer,
        }, // 9
        Component {
            name: "Server DB report",
            kind: Consumer,
        }, // 10
        Component {
            name: "MDViewer",
            kind: Consumer,
        }, // 11
        Component {
            name: "Web outputs",
            kind: Consumer,
        }, // 12
    ];
    let edges = vec![
        (0, 4),  // Ganglia → MonALISA agents read ganglia metrics (§5.2)
        (0, 9),  // Ganglia → per-site and central web pages
        (1, 5),  // GRIS → VO GIIS
        (5, 6),  // VO GIIS → top-level GIIS
        (2, 4),  // scheduler agents → MonALISA
        (2, 7),  // local job managers → ACDC (pull model)
        (3, 4),  // SNMP → MonALISA
        (4, 8),  // MonALISA agents → central repository
        (8, 12), // repository → web
        (8, 11), // repository → MDViewer
        (7, 10), // ACDC DB → aggregated queries / reports
        (7, 11), // ACDC DB → MDViewer plots
        (6, 12), // GIIS → web views
    ];
    (components, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_roles_are_complete() {
        let (components, edges) = fig1_topology();
        let producers = components
            .iter()
            .filter(|c| c.kind == ComponentKind::Producer)
            .count();
        let intermediaries = components
            .iter()
            .filter(|c| c.kind == ComponentKind::Intermediary)
            .count();
        let consumers = components
            .iter()
            .filter(|c| c.kind == ComponentKind::Consumer)
            .count();
        assert_eq!(producers, 4);
        assert_eq!(intermediaries, 5);
        assert_eq!(consumers, 4);
        // Every edge references valid nodes.
        for (a, b) in &edges {
            assert!(*a < components.len() && *b < components.len());
        }
    }

    #[test]
    fn fig1_every_producer_reaches_a_consumer() {
        let (components, edges) = fig1_topology();
        let reaches_consumer = |start: usize| -> bool {
            let mut stack = vec![start];
            let mut seen = vec![false; components.len()];
            while let Some(n) = stack.pop() {
                if seen[n] {
                    continue;
                }
                seen[n] = true;
                if components[n].kind == ComponentKind::Consumer {
                    return true;
                }
                for (a, b) in &edges {
                    if *a == n {
                        stack.push(*b);
                    }
                }
            }
            false
        };
        for (i, c) in components.iter().enumerate() {
            if c.kind == ComponentKind::Producer {
                assert!(reaches_consumer(i), "{} reaches no consumer", c.name);
            }
        }
    }

    #[test]
    fn fig1_no_producer_has_inbound_edges_and_no_consumer_outbound() {
        let (components, edges) = fig1_topology();
        for (a, b) in &edges {
            assert_ne!(
                components[*b].kind,
                ComponentKind::Producer,
                "producers only produce"
            );
            assert_ne!(
                components[*a].kind,
                ComponentKind::Consumer,
                "consumers only consume"
            );
        }
    }

    #[test]
    fn fig1_redundant_paths_exist_for_job_data() {
        // §5.2's crosscheck property: job activity flows both via
        // MonALISA (scheduler agents → MonALISA → repository) and via the
        // ACDC pull path — two disjoint intermediaries.
        let (_, edges) = fig1_topology();
        assert!(edges.contains(&(2, 4)), "scheduler → MonALISA");
        assert!(edges.contains(&(2, 7)), "scheduler → ACDC");
    }
}
