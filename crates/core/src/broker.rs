//! Site selection — the §6.4 behaviour.
//!
//! "Several basic application requirements drove how users selected
//! sites: (1) internet connectivity of compute nodes, (2) availability of
//! required disk space, (3) maximum allowable runtime, (4) gatekeeper
//! network bandwidth capacity." On top of the hard requirements the paper
//! observes soft preferences: "applications tend to favor the resources
//! provided within their VO" and "application demonstrators tended to
//! have 'favorite' Grid3 resources and submitted more computational jobs
//! to them."
//!
//! The broker filters candidates by the four hard criteria against fresh
//! MDS records, then applies VO affinity with the configured probability,
//! and finally ranks by available capacity (free CPUs minus queue depth,
//! bandwidth as tie-break) with a little randomized spread across the top
//! candidates — reproducing both the "favorite site" concentration and
//! the residual spread visible in Table 1's max-single-resource
//! percentages.

use grid3_middleware::backend::RankInputs;
use grid3_middleware::mds::{GlueRecord, MdsDirectory};
use grid3_simkit::ids::{GridId, SiteId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The §6.4 soft ranking: available headroom first, then bandwidth
/// (criterion 4), then site id for determinism. A total order on
/// [`GlueRecord`]s — restricting it to any eligible subset therefore
/// yields the same relative order, which is what lets [`SiteTable`]
/// score the full directory once per epoch instead of per job.
fn rank_order(a: &GlueRecord, b: &GlueRecord) -> Ordering {
    let ha = a.free_cpus as i64 - a.queued_jobs as i64;
    let hb = b.free_cpus as i64 - b.queued_jobs as i64;
    hb.cmp(&ha)
        .then_with(|| {
            // cmp_f64_desc keeps the ranking a NaN-safe total order (a
            // poisoned MDS value must not make sort_by panic or go
            // unstable).
            grid3_simkit::stats::cmp_f64_desc(
                a.wan_bandwidth.as_bytes_per_sec(),
                b.wan_bandwidth.as_bytes_per_sec(),
            )
        })
        .then_with(|| a.site.cmp(&b.site))
}

/// Bit over [`Vo::ALL`] for one VO.
#[inline]
fn vo_bit(vo: Vo) -> u8 {
    1u8 << vo.index()
}

/// An epoch-keyed struct-of-arrays mirror of the MDS directory: the
/// per-placement hot path reads dense scalar columns instead of chasing
/// `GlueRecord` pointers, and carries the global rank position of every
/// record so ranked selection needs no per-job sort.
///
/// The rank comparator reads nothing but the `GlueRecord`s, so between
/// MDS publishes the scored order cannot change; only the per-job hard
/// criteria (VO admission, disk, walltime, outbound) and freshness do.
///
/// Rows sit in ascending site-id order — exactly the order
/// [`MdsDirectory::fresh_records`] yields — so index-based selection
/// over a filtered row subset is bit-identical to the reference
/// broker's record filtering. Rebuilt once per [`MdsDirectory::epoch`]
/// into retained buffers (zero steady-state allocation); the TTL is
/// cached too, which is sound because `set_ttl` also bumps the epoch.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    epoch: Option<u64>,
    ttl: SimDuration,
    /// Every published site, best-ranked first.
    order: Vec<SiteId>,
    // --- dense columns, ascending site order ---
    site: Vec<SiteId>,
    timestamp: Vec<SimTime>,
    /// VOs the record admits, as bits over [`Vo::ALL`] (`allowed_vos:
    /// None` ⇒ all bits set).
    admit_mask: Vec<u8>,
    /// The owning VO as a one-bit mask (0 = no owner).
    owner_mask: Vec<u8>,
    outbound: Vec<bool>,
    se_free: Vec<Bytes>,
    max_walltime: Vec<SimDuration>,
    /// Position of this row's site in `order`.
    rank_pos: Vec<u32>,
    /// Member grid of this row's site (from [`SiteTable::set_grid_map`]);
    /// `GridId(0)` everywhere in single-grid runs.
    grid: Vec<GridId>,
    /// Free CPUs — the EDG/LCG rank's tie-break input.
    free: Vec<u32>,
    /// Queued jobs — the EDG/LCG rank's primary input.
    queued: Vec<u32>,
    /// Scratch for inverting `order` into `rank_pos`, dense by site
    /// index; retained across refreshes.
    pos_scratch: Vec<u32>,
    /// Site→grid labelling applied at refresh, dense by site index
    /// (empty ⇒ every row lands in grid 0).
    grid_map: Vec<GridId>,
}

impl SiteTable {
    /// An empty table; the first [`SiteTable::refresh`] populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the site→grid labelling the next refresh stamps onto each
    /// row. Federated assemblies call this once at build time; the empty
    /// default labels every row grid 0.
    pub fn set_grid_map(&mut self, grid_of: &[GridId]) {
        self.grid_map = grid_of.to_vec();
        // Force the next refresh to restamp rows under the new map.
        self.epoch = None;
    }

    /// Revalidate against the directory: one integer compare when the
    /// epoch is unchanged, a full re-score into retained buffers when
    /// it moved.
    pub fn refresh(&mut self, mds: &MdsDirectory) {
        if self.epoch == Some(mds.epoch()) {
            return;
        }
        self.ttl = mds.ttl();
        let mut records: Vec<&GlueRecord> = mds.all_records().collect();
        records.sort_by(|a, b| rank_order(a, b));
        self.order.clear();
        self.order.extend(records.iter().map(|r| r.site));
        self.pos_scratch.clear();
        let max_idx = self
            .order
            .iter()
            .map(|s| s.index())
            .max()
            .map_or(0, |m| m + 1);
        self.pos_scratch.resize(max_idx, u32::MAX);
        for (pos, s) in self.order.iter().enumerate() {
            self.pos_scratch[s.index()] = pos as u32;
        }
        self.site.clear();
        self.timestamp.clear();
        self.admit_mask.clear();
        self.owner_mask.clear();
        self.outbound.clear();
        self.se_free.clear();
        self.max_walltime.clear();
        self.rank_pos.clear();
        self.grid.clear();
        self.free.clear();
        self.queued.clear();
        for r in mds.all_records() {
            self.site.push(r.site);
            self.timestamp.push(r.timestamp);
            self.admit_mask.push(match &r.allowed_vos {
                None => (1u8 << Vo::ALL.len()) - 1,
                Some(vs) => vs.iter().fold(0u8, |m, v| m | vo_bit(*v)),
            });
            self.owner_mask.push(r.owner_vo.map_or(0, vo_bit));
            self.outbound.push(r.outbound_connectivity);
            self.se_free.push(r.se_free);
            self.max_walltime.push(r.max_walltime);
            self.rank_pos.push(self.pos_scratch[r.site.index()]);
            self.grid.push(
                self.grid_map
                    .get(r.site.index())
                    .copied()
                    .unwrap_or(GridId(0)),
            );
            self.free.push(r.free_cpus);
            self.queued.push(r.queued_jobs);
        }
        self.epoch = Some(mds.epoch());
    }

    /// Every published site, best-ranked first, as of the last refresh.
    pub fn order(&self) -> &[SiteId] {
        &self.order
    }

    /// Rows held (published records, fresh or stale).
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// True when no records were published as of the last refresh.
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }
}

/// Reusable per-placement buffers for [`Broker::select_table_for`]: row
/// indices of the eligible set plus a backup for the veto fallbacks.
/// Owned by the caller so steady-state selection allocates nothing.
///
/// Also caches the *static* row set — rows passing the job-independent
/// filters (record freshness and the topology's online view). Both
/// inputs are piecewise-constant: freshness only changes at a cached
/// record's `timestamp + ttl` (stale records cannot refresh without an
/// epoch bump), and the online view only changes at day boundaries. The
/// cache is therefore keyed by `(epoch, day)` and expires at the
/// earliest cached freshness deadline, so between monitor ticks the
/// per-placement scan touches only the static rows.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    eligible: Vec<u32>,
    saved: Vec<u32>,
    static_rows: Vec<u32>,
    static_epoch: Option<u64>,
    static_day: u64,
    static_valid_until: SimTime,
}

/// Broker configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Broker {
    /// Among how many top-ranked candidates to spread submissions.
    pub spread: usize,
    /// Probability a submission goes to the user's *favorite* eligible
    /// site (§6.4: demonstrators "tended to have 'favorite' Grid3
    /// resources and submitted more computational jobs to them"). The
    /// favorite is a deterministic function of the user identity.
    pub favorite_bias: f64,
}

impl Default for Broker {
    fn default() -> Self {
        Broker {
            spread: 3,
            favorite_bias: 0.8,
        }
    }
}

impl Broker {
    /// Pick a site for `spec` from fresh MDS `records` — the reference
    /// broker every fast path is differentially tested against.
    ///
    /// `vo_affinity` is the probability of restricting to sites owned by
    /// the job's VO (when any such site is eligible). Returns `None` when
    /// no site passes the hard criteria.
    ///
    /// `banned` is the health veto from the resilience layer: sites the
    /// fault-handling layer currently distrusts (mid-outage, cooling down
    /// after a restore, or awaiting a storm repair). Banned sites are
    /// dropped after the hard criteria — but if *every* eligible site is
    /// banned, the veto is ignored and the full eligible set is ranked:
    /// operators kept submitting during grid-wide incidents rather than
    /// silently dropping work, so a degraded pick beats no pick.
    ///
    /// A never-banning veto (`|_| false`) consumes exactly the RNG draws
    /// of an unfiltered selection, so enabling the resilience layer does
    /// not perturb baseline selection streams.
    pub fn select_filtered(
        &self,
        spec: &JobSpec,
        vo_affinity: f64,
        records: &[&GlueRecord],
        rng: &mut SimRng,
        banned: impl Fn(SiteId) -> bool,
    ) -> Option<SiteId> {
        let vo = spec.class.vo();
        let mut eligible: Vec<&&GlueRecord> = records
            .iter()
            .filter(|r| r.admits_vo(vo))
            .filter(|r| !spec.needs_outbound || r.outbound_connectivity) // criterion 1
            .filter(|r| spec.input_bytes + spec.output_bytes + spec.scratch_bytes <= r.se_free) // criterion 2
            .filter(|r| spec.requested_walltime <= r.max_walltime) // criterion 3
            .collect();
        if eligible.is_empty() {
            return None;
        }

        // Health veto, with all-banned fallback.
        let healthy: Vec<&&GlueRecord> = eligible
            .iter()
            .copied()
            .filter(|r| !banned(r.site))
            .collect();
        if !healthy.is_empty() {
            eligible = healthy;
        }

        // Soft preference: own-VO sites.
        if rng.chance(vo_affinity) {
            let own: Vec<&&GlueRecord> = eligible
                .iter()
                .copied()
                .filter(|r| r.owner_vo == Some(vo))
                .collect();
            if !own.is_empty() {
                eligible = own;
            }
        }

        // Favorite-site behaviour: each user routes most submissions to a
        // small stable palette of two favorite sites (sorted by site id so
        // favorites do not drift with load). This reproduces the §6.4
        // concentration — classes touch roughly (users × palette) sites
        // rather than the whole grid.
        if rng.chance(self.favorite_bias) {
            let mut by_id: Vec<SiteId> = eligible.iter().map(|r| r.site).collect();
            by_id.sort();
            let salt = rng.below(2);
            let idx = (spec.user.0 as usize)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt * 97)
                % by_id.len();
            return Some(by_id[idx]);
        }

        // Rank by the §6.4 soft criteria (see [`rank_order`]).
        eligible.sort_by(|a, b| rank_order(a, b));
        let k = self.spread.max(1).min(eligible.len());
        Some(eligible[rng.below(k)].site)
    }

    /// [`Broker::select_filtered`] over the struct-of-arrays
    /// [`SiteTable`] — the allocation-free production path, optionally
    /// restricted to one member grid and ranked by a backend's
    /// [`RankInputs`].
    ///
    /// Freshness (against the table's cached TTL) and the caller's
    /// `online` view are applied here rather than by pre-filtering a
    /// record vector, so the whole selection touches only dense scalar
    /// columns and the caller-owned `scratch` buffers. With `grid = None`
    /// and [`RankInputs::HeadroomBandwidth`] (the single-grid path) the
    /// RNG draw sequence and the pick are exactly the reference broker's:
    /// the same `chance`/`below` calls, whose arguments depend only on
    /// eligible-set membership — which this path preserves row for row.
    ///
    /// The `scratch` static-row cache is keyed by `(epoch, day)` only, so
    /// callers must dedicate one [`SelectScratch`] per distinct
    /// `(grid, online)` query shape — the federated brokering subsystem
    /// keeps one per member grid.
    #[allow(clippy::too_many_arguments)]
    pub fn select_table_for(
        &self,
        spec: &JobSpec,
        vo_affinity: f64,
        table: &SiteTable,
        now: SimTime,
        grid: Option<GridId>,
        rank: RankInputs,
        online: impl Fn(SiteId) -> bool,
        banned: impl Fn(SiteId) -> bool,
        scratch: &mut SelectScratch,
        rng: &mut SimRng,
    ) -> Option<SiteId> {
        let vo = vo_bit(spec.class.vo());
        let need = spec.input_bytes + spec.output_bytes + spec.scratch_bytes;
        // Revalidate the static-row cache (see [`SelectScratch`]): rows
        // passing the job-independent filters. Within one `(epoch, day)`
        // a fresh row can only *leave* the set — at `timestamp + ttl` —
        // so expiring the cache at the earliest such deadline keeps its
        // membership exact, and with it the RNG draw sequence.
        let day = now.day_index();
        if scratch.static_epoch != table.epoch
            || scratch.static_day != day
            || now > scratch.static_valid_until
        {
            scratch.static_rows.clear();
            let mut valid_until = SimTime::from_micros(u64::MAX);
            for i in 0..table.site.len() {
                if now.since(table.timestamp[i]) <= table.ttl
                    && grid.is_none_or(|g| table.grid[i] == g)
                    && online(table.site[i])
                {
                    valid_until = valid_until.min(table.timestamp[i] + table.ttl);
                    scratch.static_rows.push(i as u32);
                }
            }
            scratch.static_epoch = table.epoch;
            scratch.static_day = day;
            scratch.static_valid_until = valid_until;
        }
        scratch.eligible.clear();
        for &row in &scratch.static_rows {
            let i = row as usize;
            if table.admit_mask[i] & vo != 0                         // VO admission
                && (!spec.needs_outbound || table.outbound[i])       // criterion 1
                && need <= table.se_free[i]                          // criterion 2
                && spec.requested_walltime <= table.max_walltime[i]
            // criterion 3
            {
                scratch.eligible.push(row);
            }
        }
        if scratch.eligible.is_empty() {
            return None;
        }

        // Health veto, with all-banned fallback: drop banned rows only
        // when the veto is partial — all-banned keeps the full set, and
        // none-banned (every baseline placement) touches nothing.
        let n_banned = scratch
            .eligible
            .iter()
            .filter(|&&i| banned(table.site[i as usize]))
            .count();
        if n_banned > 0 && n_banned < scratch.eligible.len() {
            scratch
                .eligible
                .retain(|&i| !banned(table.site[i as usize]));
        }

        // Soft preference: own-VO sites (keep the full set when none).
        if rng.chance(vo_affinity) {
            let n_own = scratch
                .eligible
                .iter()
                .filter(|&&i| table.owner_mask[i as usize] == vo)
                .count();
            if n_own > 0 && n_own < scratch.eligible.len() {
                scratch
                    .eligible
                    .retain(|&i| table.owner_mask[i as usize] == vo);
            }
        }

        // Favorite path: rows are in ascending site order, so indexing
        // the eligible list is the reference path's sorted `by_id` walk.
        if rng.chance(self.favorite_bias) {
            let salt = rng.below(2);
            let idx = (spec.user.0 as usize)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt * 97)
                % scratch.eligible.len();
            return Some(table.site[scratch.eligible[idx] as usize]);
        }

        // Ranked path. The `target` draw is identical under either rank
        // — only which site the slot resolves to differs per backend.
        let k = self.spread.max(1).min(scratch.eligible.len());
        let target = rng.below(k);
        match rank {
            // The reference (`Vdt`) rank: the reference broker sorts the
            // eligible subset by `rank_order` and reads slot `target`;
            // restricting a total order to a subset preserves relative
            // order, so that slot holds the eligible row with the
            // `target`-th smallest global rank position — found in one
            // pass (rank positions are unique).
            RankInputs::HeadroomBandwidth => {
                const SMALL_K: usize = 8;
                if k <= SMALL_K {
                    let mut best = [u32::MAX; SMALL_K];
                    for &i in &scratch.eligible {
                        let rp = table.rank_pos[i as usize];
                        if rp >= best[k - 1] {
                            continue;
                        }
                        let mut j = k - 1;
                        while j > 0 && best[j - 1] > rp {
                            best[j] = best[j - 1];
                            j -= 1;
                        }
                        best[j] = rp;
                    }
                    return Some(table.order[best[target] as usize]);
                }
                // Oversized spread (not a shipped configuration): select
                // via a sort of the rank positions in the retained buffer.
                scratch.saved.clear();
                scratch
                    .saved
                    .extend(scratch.eligible.iter().map(|&i| table.rank_pos[i as usize]));
                scratch.saved.sort_unstable();
                Some(table.order[scratch.saved[target] as usize])
            }
            // The EDG/LCG resource-broker rank: shortest batch queue
            // first, free CPUs and site id as tie-breaks. Keys are
            // unique (site id is the last word), so slot `target` of the
            // sorted key set is well-defined.
            RankInputs::QueueDepth => {
                let key = |i: u32| {
                    let i = i as usize;
                    ((table.queued[i] as u128) << 64)
                        | (((u32::MAX - table.free[i]) as u128) << 32)
                        | table.site[i].0 as u128
                };
                let mut picks: Vec<(u128, SiteId)> = scratch
                    .eligible
                    .iter()
                    .map(|&i| (key(i), table.site[i as usize]))
                    .collect();
                picks.sort_unstable();
                Some(picks[target].1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::UserId;
    use grid3_simkit::time::{SimDuration, SimTime};
    use grid3_simkit::units::{Bandwidth, Bytes};
    use grid3_site::vo::{UserClass, Vo};

    fn record(site: u32, free: u32, owner: Option<Vo>) -> GlueRecord {
        GlueRecord {
            site: SiteId(site),
            site_name: format!("S{site}"),
            total_cpus: 100,
            free_cpus: free,
            queued_jobs: 0,
            max_walltime: SimDuration::from_hours(48),
            se_free: Bytes::from_tb(5),
            se_total: Bytes::from_tb(5),
            wan_bandwidth: Bandwidth::from_mbit_per_sec(100.0),
            outbound_connectivity: true,
            allowed_vos: None,
            owner_vo: owner,
            app_install_area: "/app".into(),
            tmp_dir: "/tmp".into(),
            data_dir: "/data".into(),
            vdt_location: "/vdt".into(),
            vdt_version: "1".into(),
            timestamp: SimTime::EPOCH,
        }
    }

    fn spec(class: UserClass) -> JobSpec {
        JobSpec {
            class,
            user: UserId(0),
            reference_runtime: SimDuration::from_hours(4),
            requested_walltime: SimDuration::from_hours(8),
            input_bytes: Bytes::from_gb(1),
            output_bytes: Bytes::from_gb(1),
            scratch_bytes: Bytes::from_gb(1),
            needs_outbound: false,
            staged_files: 1,
            registers_output: true,
        }
    }

    #[test]
    fn hard_criteria_filter() {
        let broker = Broker::default();
        let mut rng = SimRng::for_entity(1, 1);
        // Outbound requirement knocks out the only site.
        let mut r = record(0, 50, None);
        r.outbound_connectivity = false;
        let mut s = spec(UserClass::Sdss);
        s.needs_outbound = true;
        assert_eq!(
            broker.select_filtered(&s, 0.0, &[&r], &mut rng, |_| false),
            None
        );
        // Disk.
        let mut r = record(0, 50, None);
        r.se_free = Bytes::from_mb(10);
        assert_eq!(
            broker.select_filtered(&spec(UserClass::Sdss), 0.0, &[&r], &mut rng, |_| false),
            None
        );
        // Walltime.
        let mut r = record(0, 50, None);
        r.max_walltime = SimDuration::from_hours(1);
        assert_eq!(
            broker.select_filtered(&spec(UserClass::Sdss), 0.0, &[&r], &mut rng, |_| false),
            None
        );
        // VO admission.
        let mut r = record(0, 50, None);
        r.allowed_vos = Some(vec![Vo::Ligo]);
        assert_eq!(
            broker.select_filtered(&spec(UserClass::Sdss), 0.0, &[&r], &mut rng, |_| false),
            None
        );
        // Clean record passes.
        let r = record(0, 50, None);
        assert_eq!(
            broker.select_filtered(&spec(UserClass::Sdss), 0.0, &[&r], &mut rng, |_| false),
            Some(SiteId(0))
        );
    }

    fn no_favorites() -> Broker {
        Broker {
            favorite_bias: 0.0,
            ..Broker::default()
        }
    }

    #[test]
    fn full_affinity_always_picks_own_vo_site() {
        let broker = no_favorites();
        let mut rng = SimRng::for_entity(2, 2);
        let records = [
            record(0, 90, None),
            record(1, 90, Some(Vo::Uscms)),
            record(2, 10, Some(Vo::Usatlas)), // less headroom, but owned
        ];
        let refs: Vec<&GlueRecord> = records.iter().collect();
        for _ in 0..50 {
            let pick = broker
                .select_filtered(&spec(UserClass::Usatlas), 1.0, &refs, &mut rng, |_| false)
                .unwrap();
            assert_eq!(pick, SiteId(2));
        }
    }

    #[test]
    fn zero_affinity_spreads_over_top_candidates() {
        let broker = no_favorites();
        let mut rng = SimRng::for_entity(3, 3);
        let records = [
            record(0, 90, None),
            record(1, 80, None),
            record(2, 70, None),
            record(3, 5, None),
        ];
        let refs: Vec<&GlueRecord> = records.iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(
                broker
                    .select_filtered(&spec(UserClass::Ivdgl), 0.0, &refs, &mut rng, |_| false)
                    .unwrap(),
            );
        }
        // Spread=3 → the top three sites all get traffic, the laggard none.
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
    }

    #[test]
    fn affinity_falls_back_when_no_own_site_eligible() {
        let broker = no_favorites();
        let mut rng = SimRng::for_entity(4, 4);
        let records = [record(0, 50, Some(Vo::Uscms))];
        let refs: Vec<&GlueRecord> = records.iter().collect();
        let pick = broker.select_filtered(&spec(UserClass::Ligo), 1.0, &refs, &mut rng, |_| false);
        assert_eq!(pick, Some(SiteId(0)));
    }

    #[test]
    fn favorite_bias_concentrates_per_user() {
        // With full favorite bias, each user always lands on one stable
        // site, and different users can have different favorites.
        let broker = Broker {
            spread: 3,
            favorite_bias: 1.0,
        };
        let mut rng = SimRng::for_entity(9, 9);
        let records = [
            record(0, 90, None),
            record(1, 80, None),
            record(2, 70, None),
        ];
        let refs: Vec<&GlueRecord> = records.iter().collect();
        let mut spec_a = spec(UserClass::Ivdgl);
        spec_a.user = UserId(4);
        let mut palette = std::collections::BTreeSet::new();
        for _ in 0..40 {
            palette.insert(
                broker
                    .select_filtered(&spec_a, 0.0, &refs, &mut rng, |_| false)
                    .unwrap(),
            );
        }
        assert!(
            palette.len() <= 2,
            "one user's traffic stays on a ≤2-site palette, got {palette:?}"
        );
        let mut seen = std::collections::BTreeSet::new();
        for u in 0..12u32 {
            let mut s = spec(UserClass::Ivdgl);
            s.user = UserId(u);
            seen.insert(
                broker
                    .select_filtered(&s, 0.0, &refs, &mut rng, |_| false)
                    .unwrap(),
            );
        }
        assert!(seen.len() > 1, "different users spread across favorites");
    }

    #[test]
    fn soa_table_path_matches_reference_broker() {
        // Drive both selection paths with identical RNG streams over a
        // messy directory (owned sites, banned sites, a NaN bandwidth,
        // capacity ties) and require bit-identical picks. Freshness and
        // online checks are folded into the table scan: a stale record
        // and an offline site must drop out exactly as pre-filtering
        // drops them for the reference path.
        let broker = Broker::default();
        let mut records = vec![
            record(0, 90, None),
            record(1, 80, Some(Vo::Uscms)),
            record(2, 80, Some(Vo::Usatlas)),
            record(3, 70, None),
            record(4, 5, Some(Vo::Usatlas)),
            record(5, 90, None),
            record(6, 60, None),
            record(7, 55, None),
        ];
        records[3].wan_bandwidth = Bandwidth::from_bytes_per_sec(f64::NAN);
        records[5].queued_jobs = 88; // headroom 2
        records[6].timestamp = SimTime::EPOCH; // will be stale at `now`
        records[2].allowed_vos = Some(vec![Vo::Usatlas, Vo::Ivdgl]);
        let now = SimTime::from_mins(30);
        for r in records.iter_mut() {
            if r.site != SiteId(6) {
                r.timestamp = now;
            }
        }
        let mut mds = grid3_middleware::mds::MdsDirectory::with_default_ttl();
        for r in &records {
            mds.publish(r.clone());
        }
        let mut table = SiteTable::new();
        table.refresh(&mds);
        let offline = SiteId(7);
        let banned = |s: SiteId| s == SiteId(0);
        let online = |s: SiteId| s != offline;
        // The reference path sees the same pre-filtered fresh+online set.
        let fresh: Vec<&GlueRecord> = mds
            .fresh_records(now)
            .into_iter()
            .filter(|r| online(r.site))
            .collect();
        let mut scratch = SelectScratch::default();
        let mut fast_rng = SimRng::for_entity(78, 78);
        let mut ref_rng = SimRng::for_entity(78, 78);
        for trial in 0..300u32 {
            let mut s = spec(if trial % 2 == 0 {
                UserClass::Usatlas
            } else {
                UserClass::Ivdgl
            });
            s.user = UserId(trial % 7);
            let affinity = f64::from(trial % 3) / 2.0;
            let fast = broker.select_table_for(
                &s,
                affinity,
                &table,
                now,
                None,
                RankInputs::HeadroomBandwidth,
                online,
                banned,
                &mut scratch,
                &mut fast_rng,
            );
            let reference = broker.select_filtered(&s, affinity, &fresh, &mut ref_rng, banned);
            assert_eq!(fast, reference, "trial {trial} diverged");
        }
    }

    #[test]
    fn site_table_revalidates_on_epoch_bump() {
        let mut mds = grid3_middleware::mds::MdsDirectory::with_default_ttl();
        mds.publish(record(0, 10, None));
        mds.publish(record(1, 90, None));
        let mut table = SiteTable::new();
        table.refresh(&mds);
        assert_eq!(table.order(), &[SiteId(1), SiteId(0)]);
        // No epoch movement → refresh is a no-op integer compare.
        table.refresh(&mds);
        assert_eq!(table.order(), &[SiteId(1), SiteId(0)]);
        // A publish flips the capacity order and bumps the epoch.
        mds.publish(record(0, 100, None));
        table.refresh(&mds);
        assert_eq!(table.order(), &[SiteId(0), SiteId(1)]);
    }

    #[test]
    fn edg_rank_and_grid_filter_reshape_selection() {
        let broker = Broker {
            spread: 1,
            favorite_bias: 0.0,
        };
        let mut rng = SimRng::for_entity(6, 6);
        let mut a = record(0, 90, None);
        a.queued_jobs = 30; // headroom 60 — Vdt's best rank
        let b = record(1, 10, None); // queue 0 — EDG's best rank
        let mut c = record(2, 40, None);
        c.queued_jobs = 5;
        let mut mds = grid3_middleware::mds::MdsDirectory::with_default_ttl();
        for r in [&a, &b, &c] {
            mds.publish(r.clone());
        }
        let mut table = SiteTable::new();
        table.refresh(&mds);
        let s = spec(UserClass::Ivdgl);
        let pick = |table: &SiteTable, grid, rank, rng: &mut SimRng| {
            let mut scratch = SelectScratch::default();
            broker.select_table_for(
                &s,
                0.0,
                table,
                SimTime::EPOCH,
                grid,
                rank,
                |_| true,
                |_| false,
                &mut scratch,
                rng,
            )
        };
        // Same directory, opposite winners per backend rank.
        assert_eq!(
            pick(&table, None, RankInputs::HeadroomBandwidth, &mut rng),
            Some(SiteId(0))
        );
        assert_eq!(
            pick(&table, None, RankInputs::QueueDepth, &mut rng),
            Some(SiteId(1))
        );
        // Grid restriction: label site 2 into grid 1 — each grid's
        // broker only ever sees its own rows.
        table.set_grid_map(&[GridId(0), GridId(0), GridId(1)]);
        table.refresh(&mds);
        assert_eq!(
            pick(
                &table,
                Some(GridId(1)),
                RankInputs::HeadroomBandwidth,
                &mut rng
            ),
            Some(SiteId(2))
        );
        assert_eq!(
            pick(
                &table,
                Some(GridId(0)),
                RankInputs::HeadroomBandwidth,
                &mut rng
            ),
            Some(SiteId(0))
        );
    }

    #[test]
    fn queue_depth_reduces_ranking() {
        let broker = Broker {
            spread: 1,
            favorite_bias: 0.0,
        };
        let mut rng = SimRng::for_entity(5, 5);
        let mut busy = record(0, 50, None);
        busy.queued_jobs = 45; // headroom 5
        let calm = record(1, 30, None); // headroom 30
        let refs: Vec<&GlueRecord> = vec![&busy, &calm];
        assert_eq!(
            broker.select_filtered(&spec(UserClass::Btev), 0.0, &refs, &mut rng, |_| false),
            Some(SiteId(1))
        );
    }
}
