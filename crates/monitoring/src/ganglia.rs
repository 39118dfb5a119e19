//! Ganglia cluster monitoring.
//!
//! §5.1: sites install "cluster monitoring services based on Ganglia, with
//! provisions for hierarchical grid views"; §5.2: "Ganglia is used to
//! collect cluster monitoring information such as CPU and network load and
//! memory and disk usage. Ganglia-collected information is available
//! through web pages served at the sites and a summary \[at\] a central
//! server at iGOC."

use grid3_simkit::ids::SiteId;
use grid3_simkit::time::SimTime;
use grid3_simkit::units::Bytes;
use grid3_site::cluster::Site;
use serde::{Deserialize, Serialize};

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

    /// Record one sample of `site` taken at `now` (its gmond/gmetad
    /// report): CPU load as running jobs (the classic load-average
    /// proxy), free and total slots, and disk usage.
    pub fn observe(&mut self, site: &Site, now: SimTime) {
        let i = site.id.index();
        if i >= self.summaries.len() {
            self.summaries.resize(i + 1, None);
        }
        self.summaries[i] = Some(SiteSummary {
            load: site.running_count() as f64,
            free_cpus: site.free_slots() as u32,
            total_cpus: site.total_slots() as u32,
            disk_used: site.storage.used(),
            disk_total: site.storage.capacity(),
            last_seen: now,
        });
    }

    /// Grid-wide total CPUs last reported (the §7 CPU count comes off
    /// pages like this).
    pub fn total_cpus(&self) -> u32 {
        self.summaries().map(|(_, s)| s.total_cpus).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use grid3_simkit::ids::FileId;
    use grid3_site::vo::Vo;

    /// A site of `cpus` slots running `running` jobs.
    fn running_site(id: u32, cpus: u32, running: usize) -> Site {
        let mut site = testing::site(id, cpus);
        testing::enqueue(&mut site, &vec![Vo::Usatlas; running]);
        site.dispatch(SimTime::EPOCH, &mut Vec::new());
        site
    }

    #[test]
    fn observe_writes_the_whole_summary() {
        let mut site = running_site(2, 8, 3);
        site.storage
            .store(FileId(1), Bytes::from_gb(2))
            .expect("the file fits");
        let mut web = GangliaWeb::new();
        web.observe(&site, SimTime::from_mins(5));
        let want = SiteSummary {
            load: 3.0,
            free_cpus: 5,
            total_cpus: 8,
            disk_used: Bytes::from_gb(2),
            disk_total: Bytes::from_tb(1),
            last_seen: SimTime::from_mins(5),
        };
        assert_eq!(web.summaries().collect::<Vec<_>>(), [(SiteId(2), &want)]);
    }

    #[test]
    fn web_frontend_aggregates_grid_totals() {
        let mut web = GangliaWeb::new();
        web.observe(&running_site(0, 100, 60), SimTime::from_mins(0));
        web.observe(&running_site(1, 200, 50), SimTime::from_mins(30));
        assert_eq!(web.total_cpus(), 300);
        let busy: u32 = web
            .summaries()
            .map(|(_, s)| s.total_cpus - s.free_cpus)
            .sum();
        assert_eq!(busy, 110);
        // Each site keeps the time of its own last report.
        let seen: Vec<SimTime> = web.summaries().map(|(_, s)| s.last_seen).collect();
        assert_eq!(seen, vec![SimTime::from_mins(0), SimTime::from_mins(30)]);
    }
}
