//! Ganglia cluster monitoring.
//!
//! §5.1: sites install "cluster monitoring services based on Ganglia, with
//! provisions for hierarchical grid views"; §5.2: "Ganglia is used to
//! collect cluster monitoring information such as CPU and network load and
//! memory and disk usage. Ganglia-collected information is available
//! through web pages served at the sites and a summary \[at\] a central
//! server at iGOC."

use crate::framework::{Metric, MetricEvent, MetricSink};
use grid3_simkit::ids::SiteId;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use grid3_site::cluster::Site;
use serde::{Deserialize, Serialize};

/// The per-site Ganglia gmond/gmetad pair: samples the cluster and emits
/// metric events.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GangliaAgent {
    /// Site this agent monitors.
    pub site: SiteId,
}

impl GangliaAgent {
    /// An agent for `site`.
    pub fn new(site: SiteId) -> Self {
        GangliaAgent { site }
    }

    /// Sample the cluster: CPU load (running jobs / slots, the classic
    /// load-average proxy), free slots and disk usage.
    pub fn sample(&self, site: &Site, now: SimTime) -> Vec<MetricEvent> {
        let mut events = Vec::new();
        self.sample_into(site, now, &mut events);
        events
    }

    /// [`GangliaAgent::sample`] into a caller-owned buffer (appended,
    /// not cleared) — the monitor sweep reuses one buffer across all
    /// sites so a tick allocates nothing.
    pub fn sample_into(&self, site: &Site, now: SimTime, out: &mut Vec<MetricEvent>) {
        let total = site.total_slots() as u32;
        out.extend([
            MetricEvent {
                at: now,
                metric: Metric::CpuLoad {
                    site: self.site,
                    load: site.running_count() as f64,
                },
            },
            MetricEvent {
                at: now,
                metric: Metric::FreeCpus {
                    site: self.site,
                    free: site.free_slots() as u32,
                    total,
                },
            },
            MetricEvent {
                at: now,
                metric: Metric::DiskUsage {
                    site: self.site,
                    used: site.storage.used(),
                    total: site.storage.capacity(),
                },
            },
        ]);
    }
}

/// Snapshot of one site on the central web summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteSummary {
    /// Last reported CPU load.
    pub load: f64,
    /// Last reported free slots.
    pub free_cpus: u32,
    /// Last reported total slots.
    pub total_cpus: u32,
    /// Last reported disk used.
    pub disk_used: Bytes,
    /// Last reported disk capacity.
    pub disk_total: Bytes,
    /// When the site last reported.
    pub last_seen: SimTime,
}

/// The central Ganglia web frontend at the iGOC (the grid-level
/// "hierarchical view" of §5.1). Summaries are indexed by site id;
/// sites that never reported hold `None`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GangliaWeb {
    summaries: Vec<Option<SiteSummary>>,
}

impl GangliaWeb {
    /// An empty frontend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-site summaries of the sites that reported, in site order.
    pub fn summaries(&self) -> impl Iterator<Item = (SiteId, &SiteSummary)> {
        self.summaries
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((SiteId(i as u32), s.as_ref()?)))
    }

    /// Grid-wide total CPUs last reported (the §7 CPU count comes off
    /// pages like this).
    pub fn total_cpus(&self) -> u32 {
        self.summaries().map(|(_, s)| s.total_cpus).sum()
    }
}

impl MetricSink for GangliaWeb {
    fn name(&self) -> &str {
        "Ganglia web"
    }

    fn ingest(&mut self, event: &MetricEvent) {
        fn entry(
            summaries: &mut Vec<Option<SiteSummary>>,
            site: SiteId,
            at: SimTime,
        ) -> &mut SiteSummary {
            if site.index() >= summaries.len() {
                summaries.resize(site.index() + 1, None);
            }
            summaries[site.index()].get_or_insert(SiteSummary {
                load: 0.0,
                free_cpus: 0,
                total_cpus: 0,
                disk_used: Bytes::ZERO,
                disk_total: Bytes::ZERO,
                last_seen: at,
            })
        }
        match &event.metric {
            Metric::CpuLoad { site, load } => {
                let s = entry(&mut self.summaries, *site, event.at);
                s.load = *load;
                s.last_seen = event.at;
            }
            Metric::FreeCpus { site, free, total } => {
                let s = entry(&mut self.summaries, *site, event.at);
                s.free_cpus = *free;
                s.total_cpus = *total;
                s.last_seen = event.at;
            }
            Metric::DiskUsage { site, used, total } => {
                let s = entry(&mut self.summaries, *site, event.at);
                s.disk_used = *used;
                s.disk_total = *total;
                s.last_seen = event.at;
            }
            _ => {} // Ganglia ignores non-cluster metrics.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::JobId;
    use grid3_simkit::time::SimDuration;
    use grid3_simkit::units::Bandwidth;
    use grid3_site::cluster::{SitePolicy, SiteProfile, SiteTier};
    use grid3_site::failure::FailureModel;
    use grid3_site::scheduler::{QueuedJob, SchedulerKind};
    use grid3_site::vo::Vo;

    fn mk_site(id: u32, cpus: u32) -> Site {
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

    #[test]
    fn agent_samples_cluster_state() {
        let mut site = mk_site(0, 8);
        for i in 0..3 {
            site.enqueue(QueuedJob {
                job: JobId(i),
                vo: Vo::Usatlas,
                requested_walltime: SimDuration::from_hours(4),
                enqueued: SimTime::EPOCH,
            });
        }
        site.dispatch(SimTime::EPOCH, &mut Vec::new());
        let agent = GangliaAgent::new(SiteId(0));
        let events = agent.sample(&site, SimTime::from_mins(5));
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].metric,
            Metric::CpuLoad { load, .. } if load == 3.0
        ));
        assert!(matches!(
            events[1].metric,
            Metric::FreeCpus {
                free: 5,
                total: 8,
                ..
            }
        ));
    }

    #[test]
    fn web_frontend_aggregates_grid_totals() {
        let mut web = GangliaWeb::new();
        for (id, total, free) in [(0u32, 100u32, 40u32), (1, 200, 150)] {
            web.ingest(&MetricEvent {
                at: SimTime::from_mins(1),
                metric: Metric::FreeCpus {
                    site: SiteId(id),
                    free,
                    total,
                },
            });
        }
        assert_eq!(web.total_cpus(), 300);
        let busy: u32 = web
            .summaries()
            .map(|(_, s)| s.total_cpus - s.free_cpus)
            .sum();
        assert_eq!(busy, 110);
        assert_eq!(web.summaries().count(), 2);
    }

    #[test]
    fn web_frontend_tracks_staleness() {
        let mut web = GangliaWeb::new();
        web.ingest(&MetricEvent {
            at: SimTime::from_mins(0),
            metric: Metric::CpuLoad {
                site: SiteId(0),
                load: 1.0,
            },
        });
        web.ingest(&MetricEvent {
            at: SimTime::from_mins(30),
            metric: Metric::CpuLoad {
                site: SiteId(1),
                load: 2.0,
            },
        });
        let seen: Vec<SimTime> = web.summaries().map(|(_, s)| s.last_seen).collect();
        assert_eq!(seen, vec![SimTime::from_mins(0), SimTime::from_mins(30)]);
    }

    #[test]
    fn web_frontend_ignores_foreign_metrics() {
        let mut web = GangliaWeb::new();
        web.ingest(&MetricEvent {
            at: SimTime::EPOCH,
            metric: Metric::GatekeeperLoad {
                site: SiteId(0),
                load: 225.0,
            },
        });
        assert_eq!(web.summaries().count(), 0);
    }
}
