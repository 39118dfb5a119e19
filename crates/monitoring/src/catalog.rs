//! The Site Status Catalog.
//!
//! §5.2: "The Site Status Catalog periodically tests all sites and stores
//! some critical information centrally. A web interface provides a list of
//! all Grid3 sites, their location on a map, their status, and other
//! important information."

use grid3_simkit::ids::SiteId;
use grid3_simkit::time::SimTime;
use grid3_site::cluster::Site;
use serde::{Deserialize, Serialize};

/// Result of one probe of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeStatus {
    /// All tested services answered.
    Pass,
    /// The gatekeeper or another core service did not answer.
    Fail,
}

/// A catalog entry: the "critical information" stored centrally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Facility name.
    pub name: String,
    /// Latest probe result.
    pub status: ProbeStatus,
    /// When the site was last probed.
    pub last_probe: SimTime,
    /// Consecutive failed probes (drives escalation to a trouble ticket).
    pub consecutive_failures: u32,
    /// Total probes run against this site.
    pub probes: u64,
    /// Total failed probes.
    pub failed_probes: u64,
}

/// The central catalog service at the iGOC. Entries are indexed by
/// site id; sites never registered or probed hold `None`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteStatusCatalog {
    entries: Vec<Option<CatalogEntry>>,
}

impl SiteStatusCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of a site, grown on first use.
    fn slot(&mut self, id: SiteId) -> &mut Option<CatalogEntry> {
        if id.index() >= self.entries.len() {
            self.entries.resize(id.index() + 1, None);
        }
        &mut self.entries[id.index()]
    }

    /// Register a site so it appears on the status page immediately.
    pub fn register(&mut self, id: SiteId, name: impl Into<String>, now: SimTime) {
        *self.slot(id) = Some(CatalogEntry {
            name: name.into(),
            status: ProbeStatus::Pass,
            last_probe: now,
            consecutive_failures: 0,
            probes: 0,
            failed_probes: 0,
        });
    }

    /// Probe one site: the test passes when grid services and the WAN are
    /// both up.
    pub fn probe(&mut self, site: &Site, now: SimTime) -> ProbeStatus {
        let status = if site.service_up && site.network_up {
            ProbeStatus::Pass
        } else {
            ProbeStatus::Fail
        };
        let entry = self.slot(site.id).get_or_insert_with(|| CatalogEntry {
            name: site.profile.name.clone(),
            status,
            last_probe: now,
            consecutive_failures: 0,
            probes: 0,
            failed_probes: 0,
        });
        entry.status = status;
        entry.last_probe = now;
        entry.probes += 1;
        if status == ProbeStatus::Fail {
            entry.failed_probes += 1;
            entry.consecutive_failures += 1;
        } else {
            entry.consecutive_failures = 0;
        }
        status
    }

    /// The catalog entry for a site.
    pub fn entry(&self, id: SiteId) -> Option<&CatalogEntry> {
        self.entries.get(id.index())?.as_ref()
    }

    /// All entries, in site order (the status web page).
    pub fn entries(&self) -> impl Iterator<Item = (SiteId, &CatalogEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((SiteId(i as u32), e.as_ref()?)))
    }

    /// Sites currently failing.
    pub fn failing_sites(&self) -> Vec<SiteId> {
        self.entries()
            .filter(|(_, e)| e.status == ProbeStatus::Fail)
            .map(|(id, _)| id)
            .collect()
    }

    /// Availability of a site over its probe history.
    pub fn availability(&self, id: SiteId) -> f64 {
        match self.entry(id) {
            Some(e) if e.probes > 0 => 1.0 - e.failed_probes as f64 / e.probes as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn probe_tracks_status_and_counts() {
        let mut cat = SiteStatusCatalog::new();
        let mut site = testing::site(0, 8);
        assert_eq!(cat.probe(&site, SimTime::EPOCH), ProbeStatus::Pass);
        site.service_up = false;
        assert_eq!(cat.probe(&site, SimTime::from_mins(30)), ProbeStatus::Fail);
        assert_eq!(cat.probe(&site, SimTime::from_mins(60)), ProbeStatus::Fail);
        let e = cat.entry(SiteId(0)).unwrap();
        assert_eq!(e.probes, 3);
        assert_eq!(e.failed_probes, 2);
        assert_eq!(e.consecutive_failures, 2);
        assert!((cat.availability(SiteId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cat.failing_sites(), vec![SiteId(0)]);
    }

    #[test]
    fn recovery_resets_consecutive_failures() {
        let mut cat = SiteStatusCatalog::new();
        let mut site = testing::site(1, 8);
        site.network_up = false;
        cat.probe(&site, SimTime::EPOCH);
        cat.probe(&site, SimTime::from_mins(30));
        assert_eq!(cat.entry(SiteId(1)).unwrap().consecutive_failures, 2);
        site.network_up = true;
        cat.probe(&site, SimTime::from_mins(60));
        assert_eq!(cat.entry(SiteId(1)).unwrap().consecutive_failures, 0);
    }

    #[test]
    fn registered_sites_appear_before_first_probe() {
        let mut cat = SiteStatusCatalog::new();
        cat.register(SiteId(5), "LATE_SITE", SimTime::EPOCH);
        assert_eq!(cat.entries().count(), 1);
        assert_eq!(cat.entry(SiteId(5)).unwrap().name, "LATE_SITE");
        assert_eq!(cat.availability(SiteId(5)), 0.0); // no probes yet
    }
}
