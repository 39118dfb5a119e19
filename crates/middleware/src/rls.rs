//! Replica Location Service (RLS).
//!
//! The paper's data management model "is based on GridFTP and RLS" (§8),
//! with the Giggle LRC/RLI design it cites: each site runs a Local Replica
//! Catalog (LRC) of the logical files it holds, and a Replica Location
//! Index (RLI) aggregates which LRCs know each logical file. Grid3 derived
//! a replica's physical file name from its site and logical name, so the
//! model keeps no physical names. Job lifecycles end with RLS registration (§6.1 counts
//! registration among the steps that must all succeed), and LIGO publishes
//! staged-data locations "in RLS so that its location is available to the
//! job" (§4.4).

use grid3_simkit::ids::{FileId, SiteId};
use grid3_simkit::telemetry::{Counter, Telemetry};
use grid3_simkit::units::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RlsError {
    /// The logical file has no replica registered anywhere.
    UnknownLfn(
        /// The unknown logical file.
        FileId,
    ),
}

impl std::fmt::Display for RlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlsError::UnknownLfn(lfn) => write!(f, "no replica registered for {lfn}"),
        }
    }
}

impl std::error::Error for RlsError {}

/// The grid-wide replica service: per-site LRCs plus the global RLI.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplicaLocationService {
    /// site → lfns with a replica there.
    lrcs: HashMap<SiteId, BTreeSet<FileId>>,
    /// lfn → sites holding a replica (the RLI view).
    rli: HashMap<FileId, BTreeSet<SiteId>>,
    /// lfn → size attribute (RLS metadata; planners budget transfers
    /// with it).
    sizes: HashMap<FileId, Bytes>,
    /// Sites whose catalog answers have gone stale: the LRC/RLI still
    /// advertise their replicas, but the data is unreadable. Fault
    /// injection sets this; consumers must check [`Self::is_stale`]
    /// before trusting an answer (which is exactly the failure mode —
    /// most don't).
    stale: BTreeSet<SiteId>,
    #[serde(skip)]
    tele: Telemetry,
    /// Pre-interned `registered` counters, indexed by site; grown on
    /// first registration from a site so the per-file hot path is a
    /// slot-indexed add.
    #[serde(skip)]
    c_registered: Vec<Counter>,
    #[serde(skip)]
    c_lookups: Counter,
}

impl ReplicaLocationService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the grid-wide instrumentation handle.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.c_lookups = tele.register_counter("rls", "lookups", "");
        self.c_registered.clear();
        self.tele = tele;
    }

    /// Register a replica of `lfn` at `site`. Idempotent per (lfn, site).
    pub fn register(&mut self, lfn: FileId, site: SiteId, size: Bytes) {
        let idx = site.index();
        while self.c_registered.len() <= idx {
            let i = self.c_registered.len();
            self.c_registered.push(self.tele.register_counter(
                "rls",
                "registered",
                format!("site{i}"),
            ));
        }
        self.c_registered[idx].add(1);
        self.lrcs.entry(site).or_default().insert(lfn);
        self.rli.entry(lfn).or_default().insert(site);
        self.sizes.insert(lfn, size);
    }

    /// Sites holding a replica of `lfn`, in site-id order (RLI query).
    pub fn locate(&self, lfn: FileId) -> Result<Vec<SiteId>, RlsError> {
        self.c_lookups.add(1);
        self.rli
            .get(&lfn)
            .filter(|s| !s.is_empty())
            .map(|s| s.iter().copied().collect())
            .ok_or(RlsError::UnknownLfn(lfn))
    }

    /// Registered size attribute for a logical file.
    pub fn size_of(&self, lfn: FileId) -> Result<Bytes, RlsError> {
        self.sizes
            .get(&lfn)
            .copied()
            .ok_or(RlsError::UnknownLfn(lfn))
    }

    /// Whether any replica of `lfn` exists.
    pub fn exists(&self, lfn: FileId) -> bool {
        self.rli.get(&lfn).map(|s| !s.is_empty()).unwrap_or(false)
    }

    /// Number of logical files known.
    pub fn lfn_count(&self) -> usize {
        self.rli.len()
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

    /// Mark a site's catalog answers stale (fault injection): `locate`
    /// keeps returning its replicas, but transfers sourced from them will
    /// fail until [`Self::heal_stale`] runs — the classic "catalog says
    /// the data is there, the disk says otherwise" §6 failure.
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

    /// Drop every replica registered at a site (site storage lost). The
    /// RLI is updated; LFNs whose last replica vanished become unknown.
    pub fn drop_site(&mut self, site: SiteId) -> usize {
        let Some(lrc) = self.lrcs.remove(&site) else {
            return 0;
        };
        let n = lrc.len();
        for lfn in &lrc {
            if let Some(sites) = self.rli.get_mut(lfn) {
                sites.remove(&site);
                if sites.is_empty() {
                    self.rli.remove(lfn);
                    self.sizes.remove(lfn);
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_locate_round_trip() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(2), Bytes::from_gb(2));
        rls.register(FileId(1), SiteId(0), Bytes::from_gb(2));
        assert_eq!(rls.locate(FileId(1)).unwrap(), vec![SiteId(0), SiteId(2)]);
        assert!(rls.exists(FileId(1)));
        assert_eq!(rls.size_of(FileId(1)).unwrap(), Bytes::from_gb(2));
        assert!(rls.lrcs[&SiteId(2)].contains(&FileId(1)));
    }

    #[test]
    fn unknown_lfn_errors() {
        let rls = ReplicaLocationService::new();
        assert_eq!(rls.locate(FileId(9)), Err(RlsError::UnknownLfn(FileId(9))));
        assert_eq!(rls.size_of(FileId(9)), Err(RlsError::UnknownLfn(FileId(9))));
        assert!(!rls.exists(FileId(9)));
    }

    #[test]
    fn registration_is_idempotent() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(0), Bytes::from_gb(1));
        rls.register(FileId(1), SiteId(0), Bytes::from_gb(1));
        assert_eq!(rls.replica_count(), 1);
        assert_eq!(rls.replicas_at(SiteId(0)), 1);
    }

    #[test]
    fn stale_sites_keep_answering_until_healed() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(0), Bytes::from_gb(1));
        rls.mark_stale(SiteId(0));
        // The stale catalog still answers — that is the failure mode.
        assert!(rls.is_stale(SiteId(0)));
        assert_eq!(rls.locate(FileId(1)).unwrap(), vec![SiteId(0)]);
        rls.heal_stale(SiteId(0));
        assert!(!rls.is_stale(SiteId(0)));
    }

    #[test]
    fn drop_site_erases_last_replicas() {
        let mut rls = ReplicaLocationService::new();
        rls.register(FileId(1), SiteId(0), Bytes::from_gb(1)); // only at 0
        rls.register(FileId(2), SiteId(0), Bytes::from_gb(1)); // at 0 and 1
        rls.register(FileId(2), SiteId(1), Bytes::from_gb(1));
        let dropped = rls.drop_site(SiteId(0));
        assert_eq!(dropped, 2);
        assert!(!rls.exists(FileId(1)));
        assert_eq!(rls.locate(FileId(2)).unwrap(), vec![SiteId(1)]);
        assert_eq!(rls.drop_site(SiteId(5)), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// RLI and LRC views stay consistent under arbitrary operation
            /// sequences: every RLI entry has a matching LRC entry and
            /// vice versa.
            #[test]
            fn rli_lrc_consistency(ops in proptest::collection::vec(
                (0u8..2, 0u32..12, 0u32..5), 1..200))
            {
                let mut rls = ReplicaLocationService::new();
                for (op, lfn, site) in ops {
                    let lfn = FileId(lfn);
                    let site = SiteId(site);
                    match op {
                        0 => rls.register(lfn, site, Bytes::from_gb(1)),
                        _ => { rls.drop_site(site); }
                    }
                }
                // Consistency both directions.
                let mut rli_pairs = 0usize;
                for (lfn, sites) in &rls.rli {
                    for site in sites {
                        rli_pairs += 1;
                        prop_assert!(rls.lrcs.get(site).is_some_and(|l| l.contains(lfn)));
                    }
                    prop_assert!(!sites.is_empty());
                    prop_assert!(rls.sizes.contains_key(lfn));
                }
                prop_assert_eq!(rli_pairs, rls.replica_count());
            }
        }
    }
}
