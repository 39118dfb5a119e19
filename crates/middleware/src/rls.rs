//! Replica Location Service (RLS).
//!
//! The paper's data management model "is based on GridFTP and RLS" (§8),
//! with the Giggle LRC/RLI design it cites: each site runs a Local Replica
//! Catalog (LRC) of the logical files it holds. Grid3 derived a replica's
//! physical file name from its site and logical name, so the model keeps
//! no physical names. Nothing in the simulation locates a replica by
//! logical name, so the model keeps no Replica Location Index either: the
//! LRCs and the set of sites whose catalogs have gone stale are the whole
//! service. Job lifecycles end with RLS registration (§6.1 counts
//! registration among the steps that must all succeed).

use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{FileId, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The grid-wide replica service: one LRC per site.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplicaLocationService {
    /// site → lfns with a replica there.
    lrcs: FastMap<SiteId, BTreeSet<FileId>>,
    /// Sites whose catalog answers have gone stale: the LRC still
    /// advertises their replicas, but the data is unreadable. Fault
    /// injection sets this; consumers must check [`Self::is_stale`]
    /// before trusting an answer (which is exactly the failure mode —
    /// most don't).
    stale: BTreeSet<SiteId>,
}

impl ReplicaLocationService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a replica of `lfn` at `site`. Idempotent per (lfn, site).
    pub fn register(&mut self, lfn: FileId, site: SiteId) {
        self.lrcs.entry(site).or_default().insert(lfn);
    }

    /// Number of distinct logical files registered at any site.
    pub fn lfn_count(&self) -> usize {
        let lfns: BTreeSet<FileId> = self.lrcs.values().flatten().copied().collect();
        lfns.len()
    }

    /// Number of replicas registered at one site.
    pub fn replicas_at(&self, site: SiteId) -> usize {
        self.lrcs.get(&site).map(|l| l.len()).unwrap_or(0)
    }

    /// Total replicas across all sites (≥ lfn_count when files are
    /// multiply replicated).
    pub fn replica_count(&self) -> usize {
        self.lrcs.values().map(|l| l.len()).sum()
    }

    /// Mark a site's catalog answers stale (fault injection): its LRC
    /// keeps advertising its replicas, but transfers sourced from them
    /// will fail until [`Self::heal_stale`] runs — the classic "catalog
    /// says the data is there, the disk says otherwise" §6 failure.
    pub fn mark_stale(&mut self, site: SiteId) {
        self.stale.insert(site);
    }

    /// Clear a site's staleness after the catalog is reconciled.
    pub fn heal_stale(&mut self, site: SiteId) {
        self.stale.remove(&site);
    }

    /// Whether a site's catalog answers are currently stale.
    pub fn is_stale(&self, site: SiteId) -> bool {
        self.stale.contains(&site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_fills_the_site_catalog() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(2));
        rls.register(FileId(1), SiteId(0));
        assert!(rls.lrcs[&SiteId(2)].contains(&FileId(1)));
        assert_eq!(rls.replicas_at(SiteId(0)), 1);
        assert_eq!(rls.replica_count(), 2);
        assert_eq!(rls.lfn_count(), 1);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(0));
        rls.register(FileId(1), SiteId(0));
        assert_eq!(rls.replica_count(), 1);
        assert_eq!(rls.replicas_at(SiteId(0)), 1);
    }

    #[test]
    fn stale_sites_keep_their_replicas_until_healed() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(0));
        rls.mark_stale(SiteId(0));
        // The stale catalog still advertises the replica — that is the
        // failure mode.
        assert!(rls.is_stale(SiteId(0)));
        assert_eq!(rls.replicas_at(SiteId(0)), 1);
        rls.heal_stale(SiteId(0));
        assert!(!rls.is_stale(SiteId(0)));
    }
}
