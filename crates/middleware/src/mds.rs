//! Monitoring and Discovery Service (MDS): GRIS → GIIS hierarchy with the
//! Grid3 GLUE-schema extensions.
//!
//! §5.1: each site runs an "information service based on MDS, with
//! registration scripts to VO-specific information index servers", and
//! "information providers were developed for site configuration parameters
//! such as application installation areas, temporary working directories,
//! storage element locations, and VDT software installation locations.
//! Only a few extensions to the GLUE MDS schema were required."
//!
//! The model: every site's GRIS periodically publishes a [`GlueRecord`];
//! VO-level [`GiisIndex`]es list the sites registered to each VO; the
//! top-level [`MdsDirectory`] at the iGOC aggregates everything with a TTL
//! so stale sites drop out of brokering.

use grid3_simkit::ids::{GridId, SiteId};
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::{Bandwidth, Bytes};
use grid3_site::cluster::Site;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// A site's published information record: core GLUE attributes plus the
/// Grid3 schema extensions of §5.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlueRecord {
    /// Which site this record describes.
    pub site: SiteId,
    /// Facility name.
    pub site_name: String,
    /// Total batch slots.
    pub total_cpus: u32,
    /// Currently free slots.
    pub free_cpus: u32,
    /// Jobs waiting in the batch queue.
    pub queued_jobs: u32,
    /// Longest grantable walltime (§8 asks sites to publish this).
    pub max_walltime: SimDuration,
    /// Free space on the storage element.
    pub se_free: Bytes,
    /// Storage element capacity.
    pub se_total: Bytes,
    /// Gatekeeper WAN bandwidth.
    pub wan_bandwidth: Bandwidth,
    /// Whether worker nodes have outbound connectivity.
    pub outbound_connectivity: bool,
    /// VOs admitted by local policy (`None` = all).
    pub allowed_vos: Option<Vec<Vo>>,
    // --- Grid3 GLUE extensions (§5.1) ---
    /// VO that operates the facility (informs the §6.4 "favor the
    /// resources provided within their VO" behaviour).
    pub owner_vo: Option<Vo>,
    /// Application installation area ($APP).
    pub app_install_area: String,
    /// Temporary working directory ($TMP).
    pub tmp_dir: String,
    /// Storage element data directory ($DATA).
    pub data_dir: String,
    /// VDT installation location.
    pub vdt_location: String,
    /// Installed VDT version string.
    pub vdt_version: String,
    /// When the GRIS produced this record.
    pub timestamp: SimTime,
}

impl GlueRecord {
    /// Snapshot a site's current state into a record (what the GRIS
    /// information providers collect).
    pub fn from_site(site: &Site, vdt_version: &str, now: SimTime) -> Self {
        GlueRecord {
            site: site.id,
            site_name: site.profile.name.clone(),
            total_cpus: site.total_slots() as u32,
            free_cpus: site.free_slots() as u32,
            queued_jobs: site.queued_count() as u32,
            max_walltime: site.profile.policy.max_walltime,
            se_free: site.storage.free(),
            se_total: site.storage.capacity(),
            wan_bandwidth: site.profile.wan_bandwidth,
            outbound_connectivity: site.profile.outbound_connectivity,
            allowed_vos: site.profile.policy.allowed_vos.clone(),
            owner_vo: site.profile.owner_vo,
            app_install_area: format!("/grid3/app/{}", site.profile.name),
            tmp_dir: format!("/grid3/tmp/{}", site.profile.name),
            data_dir: format!("/grid3/data/{}", site.profile.name),
            vdt_location: "/grid3/vdt".into(),
            vdt_version: vdt_version.into(),
            timestamp: now,
        }
    }

    /// Whether this record admits the given VO.
    pub fn admits_vo(&self, vo: Vo) -> bool {
        match &self.allowed_vos {
            None => true,
            Some(vs) => vs.contains(&vo),
        }
    }
}

/// A VO-level information index server: the list of sites registered to
/// one VO's GIIS (§5.1 "registration scripts to VO-specific information
/// index servers").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GiisIndex {
    /// The VO this index serves.
    pub vo: Vo,
    sites: Vec<SiteId>,
}

impl GiisIndex {
    /// An empty index for `vo`.
    pub fn new(vo: Vo) -> Self {
        GiisIndex {
            vo,
            sites: Vec::new(),
        }
    }

    /// Register a site (idempotent).
    pub fn register(&mut self, site: SiteId) {
        if !self.sites.contains(&site) {
            self.sites.push(site);
        }
    }

    /// Registered sites, in registration order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }
}

/// The top-level MDS index at the iGOC (§5.4 hosts "the top-level MDS
/// index server"). Records older than the TTL are treated as stale, which
/// is how dead sites disappear from brokering.
///
/// Records live in a dense table indexed by [`SiteId`] — site ids are
/// allocated densely from 0, so the broker's per-placement candidate scan
/// is a straight vector walk in site-id order (no hashing, no sort), and
/// [`MdsDirectory::lookup`] is an array index. Every publish bumps
/// [`MdsDirectory::epoch`], which downstream caches (the broker's ranking
/// cache) use as their invalidation signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MdsDirectory {
    /// Dense by `site.index()`; `None` = never published.
    records: Vec<Option<GlueRecord>>,
    /// Number of `Some` slots.
    live: usize,
    /// Incremented on every mutation that can change broker-visible
    /// content (publish, TTL change).
    epoch: u64,
    ttl: SimDuration,
    /// Dense by `site.index()`; `true` = the site's GRIS is frozen
    /// (fault injection): publishes for it are dropped, so its last
    /// record ages out past the TTL like a genuinely wedged GRIS.
    frozen: Vec<bool>,
}

impl MdsDirectory {
    /// The GRIS republish period Grid3 ran (minutes-scale); records twice
    /// this old are considered stale.
    pub const DEFAULT_TTL: SimDuration = SimDuration::from_mins(10);

    /// A directory with the given staleness TTL.
    pub fn new(ttl: SimDuration) -> Self {
        MdsDirectory {
            records: Vec::new(),
            live: 0,
            epoch: 0,
            ttl,
            frozen: Vec::new(),
        }
    }

    /// A directory with the default TTL.
    pub fn with_default_ttl() -> Self {
        Self::new(Self::DEFAULT_TTL)
    }

    /// Publish (upsert) a site's record. Publishes for a frozen site are
    /// silently dropped (the wedged-GRIS fault mode): its last record
    /// stays in place and ages toward staleness.
    pub fn publish(&mut self, record: GlueRecord) {
        if self.is_frozen(record.site) {
            return;
        }
        let idx = record.site.index();
        if idx >= self.records.len() {
            self.records.resize_with(idx + 1, || None);
        }
        if self.records[idx].is_none() {
            self.live += 1;
        }
        self.records[idx] = Some(record);
        self.epoch += 1;
    }

    /// Re-snapshot a site's record in place — the monitor-tick fast path.
    ///
    /// Observably identical to `publish(GlueRecord::from_site(site,
    /// vdt_version, now))`, but when the site already has a record only
    /// the dynamic fields are overwritten: the `$APP`/`$TMP`/`$DATA`
    /// path strings are pure functions of the (immutable) site name, so
    /// the per-tick republish of every site allocates nothing.
    pub fn publish_refresh(&mut self, site: &Site, vdt_version: &str, now: SimTime) {
        if self.is_frozen(site.id) {
            return;
        }
        let idx = site.id.index();
        match self.records.get_mut(idx).and_then(Option::as_mut) {
            Some(r) if r.site_name == site.profile.name && r.vdt_version == vdt_version => {
                r.total_cpus = site.total_slots() as u32;
                r.free_cpus = site.free_slots() as u32;
                r.queued_jobs = site.queued_count() as u32;
                r.max_walltime = site.profile.policy.max_walltime;
                r.se_free = site.storage.free();
                r.se_total = site.storage.capacity();
                r.wan_bandwidth = site.profile.wan_bandwidth;
                r.outbound_connectivity = site.profile.outbound_connectivity;
                if r.allowed_vos != site.profile.policy.allowed_vos {
                    r.allowed_vos.clone_from(&site.profile.policy.allowed_vos);
                }
                r.owner_vo = site.profile.owner_vo;
                r.timestamp = now;
                self.epoch += 1;
            }
            _ => self.publish(GlueRecord::from_site(site, vdt_version, now)),
        }
    }

    /// Change the staleness TTL (must cover the GRIS republish period).
    pub fn set_ttl(&mut self, ttl: SimDuration) {
        self.ttl = ttl;
        self.epoch += 1;
    }

    /// The staleness TTL currently in force. Changing it bumps
    /// [`MdsDirectory::epoch`], so epoch-keyed caches may hold a copy.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Freeze or thaw a site's GRIS (fault injection). While frozen, its
    /// publishes are dropped; on thaw, the next publish refreshes the
    /// record as usual.
    pub fn set_frozen(&mut self, site: SiteId, frozen: bool) {
        let idx = site.index();
        if idx >= self.frozen.len() {
            if !frozen {
                return;
            }
            self.frozen.resize(idx + 1, false);
        }
        self.frozen[idx] = frozen;
    }

    /// Whether a site's GRIS is currently frozen.
    pub(crate) fn is_frozen(&self, site: SiteId) -> bool {
        self.frozen.get(site.index()).copied().unwrap_or(false)
    }

    /// Monotonic change counter: bumped on every publish (and TTL
    /// change), so a consumer holding derived state — like the broker's
    /// site-ranking cache — can revalidate with one integer compare.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest record for a site, fresh or stale.
    pub fn lookup(&self, site: SiteId) -> Option<&GlueRecord> {
        self.records.get(site.index()).and_then(Option::as_ref)
    }

    /// All fresh records at `now`, in site-id order (deterministic
    /// brokering order — free here, since the table is dense by site).
    pub fn fresh_records(&self, now: SimTime) -> Vec<&GlueRecord> {
        self.records
            .iter()
            .flatten()
            .filter(|r| now.since(r.timestamp) <= self.ttl)
            .collect()
    }

    /// Every record held, fresh or stale, in site-id order. Consumers
    /// deriving epoch-keyed state (the broker's rank cache) score this
    /// full set once per [`MdsDirectory::epoch`] and intersect with the
    /// per-query fresh subset, so freshness never invalidates the cache.
    pub fn all_records(&self) -> impl Iterator<Item = &GlueRecord> {
        self.records.iter().flatten()
    }

    /// Number of records held (fresh or stale).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The newest record timestamp among `sites` — what a federation
    /// peer sees as this directory slice's freshness. `None` when no
    /// listed site has ever published.
    pub fn newest_timestamp(&self, sites: impl Iterator<Item = SiteId>) -> Option<SimTime> {
        sites
            .filter_map(|s| self.lookup(s).map(|r| r.timestamp))
            .max()
    }
}

/// Hierarchical MDS peering: the federation-level directory that
/// aggregates per-grid directories *with staleness*.
///
/// Grid3's top-level iGOC index aggregated per-site GRISes; a federation
/// adds one more level, where each member grid's directory registers
/// with a federation index the way GRISes register with a GIIS. The
/// peering view is deliberately lossy: all the federation tracks per
/// grid is how fresh that grid's directory looks (its newest record
/// timestamp) and a monotonic sync epoch. Cross-grid brokering consults
/// [`MdsPeering::is_live`] before offering another grid's sites — a
/// grid whose directory has gone stale (e.g. its GRISes frozen by the
/// `MdsStaleness` chaos fault) is vetoed at the federation level even
/// though its own records may still look individually fresh to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MdsPeering {
    /// Staleness horizon: a grid whose directory freshness lags `now`
    /// by more than this is vetoed for cross-grid placement.
    staleness: SimDuration,
    /// Dense by grid index: newest record timestamp last synced.
    freshest: Vec<SimTime>,
    /// Dense by grid index: sync epoch, bumped whenever `freshest`
    /// advances.
    epoch: Vec<u64>,
    /// Dense by grid index: when the last sync ran.
    synced: Vec<SimTime>,
}

impl MdsPeering {
    /// A peering table over `grids` member directories, none synced yet.
    pub fn new(grids: usize, staleness: SimDuration) -> Self {
        MdsPeering {
            staleness,
            freshest: vec![SimTime::EPOCH; grids],
            epoch: vec![0; grids],
            synced: vec![SimTime::EPOCH; grids],
        }
    }

    /// The staleness horizon in force.
    pub fn staleness(&self) -> SimDuration {
        self.staleness
    }

    /// Record a sync from one member grid's directory: `freshest_ts` is
    /// the newest record timestamp its slice of the world currently
    /// holds ([`MdsDirectory::newest_timestamp`]). The grid's epoch
    /// advances only when its freshness does, so epoch skew across
    /// grids measures exactly the cadence mismatch between their
    /// information systems.
    pub fn sync(&mut self, grid: GridId, freshest_ts: SimTime, now: SimTime) {
        let g = grid.index();
        if g >= self.freshest.len() {
            return;
        }
        if freshest_ts > self.freshest[g] {
            self.freshest[g] = freshest_ts;
            self.epoch[g] += 1;
        }
        self.synced[g] = now;
    }

    /// Whether a grid's aggregated directory is live at `now`: its
    /// newest synced record is within the staleness horizon. A grid
    /// that never synced is not live.
    pub fn is_live(&self, grid: GridId, now: SimTime) -> bool {
        let g = grid.index();
        self.epoch.get(g).is_some_and(|&e| e > 0) && now.since(self.freshest[g]) <= self.staleness
    }

    /// A grid's sync epoch (0 = never synced fresh data).
    pub fn epoch_of(&self, grid: GridId) -> u64 {
        self.epoch.get(grid.index()).copied().unwrap_or(0)
    }

    /// Largest epoch difference between any two member grids — the
    /// federation-level measure of information-cadence mismatch.
    pub fn epoch_skew(&self) -> u64 {
        match (self.epoch.iter().max(), self.epoch.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_site::cluster::{SitePolicy, SiteProfile, SiteTier};
    use grid3_site::failure::FailureModel;
    use grid3_site::scheduler::SchedulerKind;

    fn mk_site(id: u32, name: &str) -> Site {
        Site::new(
            SiteId(id),
            SiteProfile {
                name: name.into(),
                tier: SiteTier::Tier2,
                owner_vo: Some(Vo::Usatlas),
                cpus: 64,
                node_speed: 1.0,
                outbound_connectivity: true,
                wan_bandwidth: Bandwidth::from_mbit_per_sec(155.0),
                storage_capacity: Bytes::from_tb(2),
                scheduler: SchedulerKind::OpenPbs,
                dedicated: false,
                policy: SitePolicy::open(SimDuration::from_hours(72)),
                failures: FailureModel::none(),
            },
        )
    }

    #[test]
    fn record_snapshots_site_state() {
        let site = mk_site(0, "UC_ATLAS_Tier2");
        let rec = GlueRecord::from_site(&site, "VDT-1.1.8", SimTime::from_hours(1));
        assert_eq!(rec.total_cpus, 64);
        assert_eq!(rec.free_cpus, 64);
        assert_eq!(rec.queued_jobs, 0);
        assert_eq!(rec.se_total, Bytes::from_tb(2));
        assert_eq!(rec.app_install_area, "/grid3/app/UC_ATLAS_Tier2");
        assert_eq!(rec.vdt_version, "VDT-1.1.8");
        assert!(rec.admits_vo(Vo::Ligo));
    }

    #[test]
    fn giis_registration_is_idempotent() {
        let mut g = GiisIndex::new(Vo::Uscms);
        g.register(SiteId(1));
        g.register(SiteId(1));
        g.register(SiteId(2));
        assert_eq!(g.sites(), &[SiteId(1), SiteId(2)]);
    }

    /// Whether `site` is among the directory's fresh records at `now`.
    fn is_fresh(dir: &MdsDirectory, site: SiteId, now: SimTime) -> bool {
        dir.fresh_records(now).iter().any(|r| r.site == site)
    }

    #[test]
    fn frozen_gris_drops_publishes_until_thawed() {
        let mut dir = MdsDirectory::new(SimDuration::from_mins(10));
        let site = mk_site(0, "A");
        dir.publish(GlueRecord::from_site(&site, "VDT-1.1.8", SimTime::EPOCH));
        dir.set_frozen(SiteId(0), true);
        assert!(dir.is_frozen(SiteId(0)));
        let epoch = dir.epoch();
        // Publishes are dropped: the record keeps its EPOCH timestamp and
        // ages out past the TTL exactly like a wedged GRIS.
        dir.publish(GlueRecord::from_site(
            &site,
            "VDT-1.1.8",
            SimTime::from_mins(8),
        ));
        assert_eq!(dir.epoch(), epoch);
        assert!(!is_fresh(&dir, SiteId(0), SimTime::from_mins(11)));
        // Thaw: the next publish refreshes as usual.
        dir.set_frozen(SiteId(0), false);
        dir.publish(GlueRecord::from_site(
            &site,
            "VDT-1.1.8",
            SimTime::from_mins(12),
        ));
        assert!(is_fresh(&dir, SiteId(0), SimTime::from_mins(13)));
        // Freezing an unknown site is harmless either way.
        dir.set_frozen(SiteId(9), false);
        assert!(!dir.is_frozen(SiteId(9)));
    }

    #[test]
    fn directory_ttl_hides_stale_sites() {
        let mut dir = MdsDirectory::new(SimDuration::from_mins(10));
        let site = mk_site(0, "A");
        dir.publish(GlueRecord::from_site(&site, "VDT-1.1.8", SimTime::EPOCH));
        assert!(is_fresh(&dir, SiteId(0), SimTime::from_mins(10)));
        assert!(!is_fresh(&dir, SiteId(0), SimTime::from_mins(11)));
        assert_eq!(dir.fresh_records(SimTime::from_mins(11)).len(), 0);
        // Republishing refreshes.
        dir.publish(GlueRecord::from_site(
            &site,
            "VDT-1.1.8",
            SimTime::from_mins(11),
        ));
        assert!(is_fresh(&dir, SiteId(0), SimTime::from_mins(20)));
    }

    #[test]
    fn fresh_records_sorted_by_site_id() {
        let mut dir = MdsDirectory::with_default_ttl();
        for id in [3u32, 0, 2, 1] {
            let site = mk_site(id, &format!("S{id}"));
            dir.publish(GlueRecord::from_site(&site, "VDT", SimTime::EPOCH));
        }
        let ids: Vec<u32> = dir
            .fresh_records(SimTime::EPOCH)
            .iter()
            .map(|r| r.site.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(dir.len(), 4);
    }

    #[test]
    fn lookup_returns_latest_even_if_stale() {
        let mut dir = MdsDirectory::new(SimDuration::from_mins(1));
        let site = mk_site(0, "A");
        dir.publish(GlueRecord::from_site(&site, "VDT", SimTime::EPOCH));
        assert!(dir.lookup(SiteId(0)).is_some());
        assert!(dir.lookup(SiteId(9)).is_none());
    }
}
