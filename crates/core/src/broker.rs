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

/// Row sets as 64-bit words, several sets of one width in one buffer:
/// set `i` occupies words `i * words .. (i + 1) * words`, and row `r` is
/// bit `r % 64` of word `r / 64`.
#[derive(Debug, Clone, Default)]
struct RowMasks {
    words: usize,
    bits: Vec<u64>,
}

impl RowMasks {
    /// `sets` empty sets of `words` words each, in the retained buffer.
    fn reset(&mut self, sets: usize, words: usize) {
        self.words = words;
        self.bits.clear();
        self.bits.resize(sets * words, 0);
    }

    /// Set `i`, or `None` past the last one.
    fn get(&self, i: usize) -> Option<&[u64]> {
        self.bits.get(i * self.words..(i + 1) * self.words)
    }

    fn insert(&mut self, i: usize, row: usize) {
        self.bits[i * self.words + row / 64] |= 1 << (row % 64);
    }
}

/// A `need <= value` criterion over one column: the column's distinct
/// values sorted ascending, and one suffix mask per distinct value (mask
/// `d` holds the rows whose value is at least `values[d]`, and mask
/// `values.len()` is empty). The rows meeting a need are one binary
/// search away.
#[derive(Debug, Clone, Default)]
struct AtLeast<T> {
    values: Vec<T>,
    suffix: RowMasks,
    /// `(value, row)` for every row, sorted; retained across rebuilds.
    sorted: Vec<(T, u32)>,
}

impl<T: Ord + Copy> AtLeast<T> {
    /// Start a rebuild with no rows.
    fn clear(&mut self) {
        self.sorted.clear();
    }

    /// Record one row's value.
    fn push(&mut self, row: usize, value: T) {
        self.sorted.push((value, row as u32));
    }

    /// Sort the recorded rows and rebuild the suffix masks.
    fn build(&mut self, words: usize) {
        self.sorted.sort_unstable();
        self.values.clear();
        self.values.extend(self.sorted.iter().map(|&(v, _)| v));
        self.values.dedup();
        self.suffix.reset(self.values.len() + 1, words);
        let mut rows = self.sorted.iter().rev().peekable();
        for d in (0..self.values.len()).rev() {
            let (head, tail) = self.suffix.bits.split_at_mut((d + 1) * words);
            head[d * words..].copy_from_slice(&tail[..words]);
            while let Some(&(_, row)) = rows.next_if(|&&(v, _)| v == self.values[d]) {
                self.suffix.insert(d, row as usize);
            }
        }
    }

    /// Rows whose value is at least `need`.
    fn at_least(&self, need: T) -> &[u64] {
        let d = self.values.partition_point(|&v| v < need);
        self.suffix.get(d).unwrap_or_default()
    }
}

/// Fill `top` with the `k` smallest `key(row)` over the set bits of
/// `mask`, ascending, in one walk: a key enters only while the buffer
/// has room or when it beats the largest key kept.
fn smallest_keys(mask: &[u64], k: usize, top: &mut Vec<u128>, key: impl Fn(usize) -> u128) {
    top.clear();
    let mut bound = u128::MAX;
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let row = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = key(row);
            if key < bound {
                if top.len() == k {
                    top.pop();
                }
                top.insert(top.partition_point(|&t| t < key), key);
                if top.len() == k {
                    bound = top[k - 1];
                }
            }
        }
    }
}

/// Row of the `n`-th set bit (counting from 0) across `mask`'s words;
/// `n` must be below the mask's population.
fn nth_row(mask: &[u64], mut n: usize) -> usize {
    for (w, &word) in mask.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if n < ones {
            let mut word = word;
            for _ in 0..n {
                word &= word - 1;
            }
            return w * 64 + word.trailing_zeros() as usize;
        }
        n -= ones;
    }
    unreachable!("row index beyond the mask's population")
}

/// An epoch-keyed mirror of the MDS directory built for word-parallel
/// selection: every job-independent fact a hard criterion reads is a
/// 64-bit row mask, so filtering a placement is a few ANDs per word
/// instead of a scan over rows. The rank position of every record is
/// carried too, so ranked selection needs no per-job sort.
///
/// The rank comparator reads nothing but the `GlueRecord`s, so between
/// MDS publishes the scored order cannot change; only the per-job hard
/// criteria (VO admission, disk, walltime, outbound) and freshness do.
///
/// Rows sit in ascending site-id order — exactly the order
/// [`MdsDirectory::fresh_records`] yields — so the `n`-th set bit of a
/// filtered mask is the `n`-th record the reference broker keeps.
/// Rebuilt once per [`MdsDirectory::epoch`] into retained buffers (zero
/// steady-state allocation); the TTL is cached too, which is sound
/// because `set_ttl` also bumps the epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteTable {
    epoch: Option<u64>,
    ttl: SimDuration,
    /// Every published site, best-ranked first.
    order: Vec<SiteId>,
    // --- dense columns, ascending site order ---
    site: Vec<SiteId>,
    timestamp: Vec<SimTime>,
    /// Position of this row's site in `order`.
    rank_pos: Vec<u32>,
    /// Free CPUs — the EDG/LCG rank's tie-break input.
    free: Vec<u32>,
    /// Queued jobs — the EDG/LCG rank's primary input.
    queued: Vec<u32>,
    // --- row masks, ⌈rows / 64⌉ words each ---
    /// Rows admitting each VO, one set per [`Vo::index`]
    /// (`allowed_vos: None` admits every VO).
    admits: RowMasks,
    /// Rows owned by each VO, one set per [`Vo::index`].
    owned_by: RowMasks,
    /// Rows whose worker nodes reach the internet (criterion 1), as
    /// set 0.
    outbound_rows: RowMasks,
    /// Rows of each member grid, one set per [`GridId`] in the grid map
    /// (a single set of every row when the map is empty).
    grid_rows: RowMasks,
    /// Free storage element space (criterion 2).
    disk: AtLeast<Bytes>,
    /// Maximum walltime (criterion 3).
    walltime: AtLeast<SimDuration>,
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
    pub(crate) fn set_grid_map(&mut self, grid_of: &[GridId]) {
        self.grid_map = grid_of.to_vec();
        // Force the next refresh to restamp rows under the new map.
        self.epoch = None;
    }

    /// Revalidate against the directory: one integer compare when the
    /// epoch is unchanged, a full rebuild into retained buffers when it
    /// moved.
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
        let words = records.len().div_ceil(64);
        let grids = self.grid_map.iter().map(|g| g.index() + 1).max();
        self.site.clear();
        self.timestamp.clear();
        self.rank_pos.clear();
        self.free.clear();
        self.queued.clear();
        self.admits.reset(Vo::ALL.len(), words);
        self.owned_by.reset(Vo::ALL.len(), words);
        self.outbound_rows.reset(1, words);
        self.grid_rows.reset(grids.unwrap_or(1), words);
        self.disk.clear();
        self.walltime.clear();
        for (row, r) in mds.all_records().enumerate() {
            self.site.push(r.site);
            self.timestamp.push(r.timestamp);
            self.rank_pos.push(self.pos_scratch[r.site.index()]);
            self.free.push(r.free_cpus);
            self.queued.push(r.queued_jobs);
            for vo in Vo::ALL.into_iter().filter(|&vo| r.admits_vo(vo)) {
                self.admits.insert(vo.index(), row);
            }
            if let Some(vo) = r.owner_vo {
                self.owned_by.insert(vo.index(), row);
            }
            if r.outbound_connectivity {
                self.outbound_rows.insert(0, row);
            }
            let grid = self.grid_map.get(r.site.index()).copied();
            self.grid_rows
                .insert(grid.unwrap_or(GridId(0)).index(), row);
            self.disk.push(row, r.se_free);
            self.walltime.push(row, r.max_walltime);
        }
        self.disk.build(words);
        self.walltime.build(words);
        self.epoch = Some(mds.epoch());
    }

    /// Rows held (published records, fresh or stale).
    pub fn len(&self) -> usize {
        self.site.len()
    }
}

/// Reusable per-placement buffers for [`Broker::select_table_for`],
/// owned by the caller so steady-state selection allocates nothing.
///
/// Also caches the *live* row mask — rows passing the job-independent
/// filters (record freshness and the caller's online view). Both inputs
/// are piecewise-constant: freshness only changes at a cached record's
/// `timestamp + ttl` (stale records cannot refresh without an epoch
/// bump), and the online view only changes at day boundaries. The mask
/// is therefore keyed by `(epoch, day)` and expires at the earliest live
/// row's freshness deadline. It spans every member grid — a grid
/// restriction is one more AND per placement — so one scratch serves
/// every query against one table and one online view.
#[derive(Debug, Clone, Default)]
pub(crate) struct SelectScratch {
    /// Fresh-and-online rows.
    live: Vec<u64>,
    live_epoch: Option<u64>,
    live_day: u64,
    live_until: SimTime,
    /// The candidate rows, narrowed step by step through one placement.
    candidates: Vec<u64>,
    /// Candidates the health veto bans.
    vetoed: Vec<u64>,
    /// The ranked walk's best keys so far, ascending.
    top: Vec<u128>,
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

    /// [`Broker::select_filtered`] over the row masks of a
    /// [`SiteTable`] — the allocation-free production path, optionally
    /// restricted to one member grid and ranked by a backend's
    /// [`RankInputs`].
    ///
    /// Freshness (against the table's cached TTL) and the caller's
    /// `online` view are applied here rather than by pre-filtering a
    /// record vector: each hard criterion is an AND of ⌈rows / 64⌉ words
    /// against the cached live mask, and the counts the RNG draws depend
    /// on are popcounts. With `grid = None` and
    /// [`RankInputs::HeadroomBandwidth`] (the single-grid path) the RNG
    /// draw sequence and the pick are exactly the reference broker's: the
    /// same `chance`/`below` calls, whose arguments depend only on
    /// eligible-set membership — which the masks keep row for row.
    ///
    /// `banned` is the health veto, `None` when the grid has no
    /// resilience layer; it is asked only about candidate rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select_table_for(
        &self,
        spec: &JobSpec,
        vo_affinity: f64,
        table: &SiteTable,
        now: SimTime,
        grid: Option<GridId>,
        rank: RankInputs,
        online: impl Fn(SiteId) -> bool,
        banned: Option<impl Fn(SiteId) -> bool>,
        scratch: &mut SelectScratch,
        rng: &mut SimRng,
    ) -> Option<SiteId> {
        let words = table.len().div_ceil(64);
        // Revalidate the live mask (see [`SelectScratch`]). Within one
        // `(epoch, day)` a fresh row can only *leave* the set — at
        // `timestamp + ttl` — so expiring the mask at the earliest such
        // deadline keeps its membership exact, and with it the RNG draw
        // sequence.
        let day = now.day_index();
        if scratch.live_epoch != table.epoch || scratch.live_day != day || now > scratch.live_until
        {
            scratch.live.clear();
            scratch.live.resize(words, 0);
            let mut until = SimTime::from_micros(u64::MAX);
            for (row, (&site, &stamp)) in table.site.iter().zip(&table.timestamp).enumerate() {
                if now.since(stamp) <= table.ttl && online(site) {
                    until = until.min(stamp + table.ttl);
                    scratch.live[row / 64] |= 1 << (row % 64);
                }
            }
            scratch.live_epoch = table.epoch;
            scratch.live_day = day;
            scratch.live_until = until;
        }

        // The four hard criteria, plus the grid restriction: a grid with
        // no rows has no candidates.
        let vo = spec.class.vo().index();
        let members = match grid {
            Some(g) => Some(table.grid_rows.get(g.index())?),
            None => None,
        };
        let admits = table.admits.get(vo).unwrap_or_default();
        let outbound = table.outbound_rows.get(0).unwrap_or_default();
        let need = spec.input_bytes + spec.output_bytes + spec.scratch_bytes;
        let disk = table.disk.at_least(need); // criterion 2
        let walltime = table.walltime.at_least(spec.requested_walltime); // criterion 3
        scratch.candidates.clear();
        let mut count = 0;
        for w in 0..words {
            let mut m = scratch.live[w] & admits[w] & disk[w] & walltime[w];
            if spec.needs_outbound {
                m &= outbound[w]; // criterion 1
            }
            if let Some(members) = members {
                m &= members[w];
            }
            count += m.count_ones() as usize;
            scratch.candidates.push(m);
        }
        if count == 0 {
            return None;
        }

        // Health veto, with all-banned fallback: drop banned rows only
        // when the veto is partial — all-banned keeps the full set.
        if let Some(banned) = banned {
            scratch.vetoed.clear();
            let mut n_banned = 0;
            for (w, &word) in scratch.candidates.iter().enumerate() {
                let (mut bits, mut hit) = (word, 0u64);
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if banned(table.site[w * 64 + bit]) {
                        hit |= 1 << bit;
                    }
                }
                n_banned += hit.count_ones() as usize;
                scratch.vetoed.push(hit);
            }
            if n_banned > 0 && n_banned < count {
                for (m, v) in scratch.candidates.iter_mut().zip(&scratch.vetoed) {
                    *m &= !v;
                }
                count -= n_banned;
            }
        }

        // Soft preference: own-VO sites (keep the full set when none).
        if rng.chance(vo_affinity) {
            let owned = table.owned_by.get(vo).unwrap_or_default();
            let n_own: usize = scratch
                .candidates
                .iter()
                .zip(owned)
                .map(|(m, o)| (m & o).count_ones() as usize)
                .sum();
            if n_own > 0 && n_own < count {
                for (m, o) in scratch.candidates.iter_mut().zip(owned) {
                    *m &= o;
                }
                count = n_own;
            }
        }

        // Favorite path: rows are in ascending site order, so the idx-th
        // set bit is the reference path's sorted `by_id[idx]`.
        if rng.chance(self.favorite_bias) {
            let salt = rng.below(2);
            let idx = (spec.user.0 as usize)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt * 97)
                % count;
            return Some(table.site[nth_row(&scratch.candidates, idx)]);
        }

        // Ranked path: slot `target` of the candidates sorted by the
        // backend's rank, found in one walk that keeps the `k` smallest
        // keys. The `target` draw is identical under either rank — only
        // which site the slot resolves to differs per backend.
        let k = self.spread.max(1).min(count);
        let target = rng.below(k);
        let (candidates, top) = (&scratch.candidates, &mut scratch.top);
        Some(match rank {
            // The reference (`Vdt`) rank: the reference broker sorts the
            // eligible subset by `rank_order`, and restricting a total
            // order to a subset preserves relative order, so the key is
            // the global rank position (unique per row).
            RankInputs::HeadroomBandwidth => {
                smallest_keys(candidates, k, top, |row| u128::from(table.rank_pos[row]));
                table.order[top[target] as usize]
            }
            // The EDG/LCG resource-broker rank: shortest batch queue
            // first, free CPUs and site id as tie-breaks. Keys are unique
            // (site id is the last word), which also names the pick.
            RankInputs::QueueDepth => {
                smallest_keys(candidates, k, top, |row| {
                    u128::from(table.queued[row]) << 64
                        | u128::from(u32::MAX - table.free[row]) << 32
                        | u128::from(table.site[row].0)
                });
                SiteId(top[target] as u32)
            }
        })
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
                Some(banned),
                &mut scratch,
                &mut fast_rng,
            );
            let reference = broker.select_filtered(&s, affinity, &fresh, &mut ref_rng, banned);
            assert_eq!(fast, reference, "trial {trial} diverged");
        }
    }

    /// [`Broker::select_filtered`] with the EDG/LCG rank: the same
    /// filters, veto, affinity and favourite draws, then a sort by
    /// `(queued, u32::MAX − free, site)` in place of [`rank_order`].
    fn select_queue_depth_reference(
        broker: &Broker,
        spec: &JobSpec,
        vo_affinity: f64,
        records: &[&GlueRecord],
        rng: &mut SimRng,
        banned: impl Fn(SiteId) -> bool,
    ) -> Option<SiteId> {
        let vo = spec.class.vo();
        let need = spec.input_bytes + spec.output_bytes + spec.scratch_bytes;
        let mut eligible: Vec<&GlueRecord> = records
            .iter()
            .copied()
            .filter(|r| r.admits_vo(vo))
            .filter(|r| !spec.needs_outbound || r.outbound_connectivity)
            .filter(|r| need <= r.se_free)
            .filter(|r| spec.requested_walltime <= r.max_walltime)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let healthy: Vec<&GlueRecord> = eligible
            .iter()
            .copied()
            .filter(|r| !banned(r.site))
            .collect();
        if !healthy.is_empty() {
            eligible = healthy;
        }
        if rng.chance(vo_affinity) {
            let own: Vec<&GlueRecord> = eligible
                .iter()
                .copied()
                .filter(|r| r.owner_vo == Some(vo))
                .collect();
            if !own.is_empty() {
                eligible = own;
            }
        }
        if rng.chance(broker.favorite_bias) {
            let salt = rng.below(2);
            let idx = (spec.user.0 as usize)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt * 97)
                % eligible.len();
            return Some(eligible[idx].site);
        }
        eligible.sort_by_key(|r| (r.queued_jobs, u32::MAX - r.free_cpus, r.site));
        let k = broker.spread.max(1).min(eligible.len());
        Some(eligible[rng.below(k)].site)
    }

    #[test]
    fn multi_word_table_matches_both_references() {
        // 150 site ids with nine never published: the table holds 141
        // rows, so every mask spans three words and rows 63/64 and
        // 127/128 sit on word boundaries.
        let mut gen = SimRng::for_entity(0x6d61_736b, 15);
        let shapes: Vec<JobSpec> = [(1, 8, false), (7, 30, true), (40, 2, false)]
            .into_iter()
            .map(|(gb, hours, outbound)| {
                let mut s = spec(UserClass::Ivdgl);
                s.input_bytes = Bytes::from_gb(gb);
                s.requested_walltime = SimDuration::from_hours(hours);
                s.needs_outbound = outbound;
                s
            })
            .collect();
        // Disk and walltime are drawn from sets holding every shape's
        // exact threshold (the `<=` ties) and values either side of it.
        let mut disks = vec![Bytes::ZERO, Bytes::from_tb(5)];
        let mut walls = vec![SimDuration::ZERO, SimDuration::from_hours(72)];
        for s in &shapes {
            let need = s.input_bytes + s.output_bytes + s.scratch_bytes;
            disks.extend([need - Bytes::new(1), need, need + Bytes::new(1)]);
            let w = s.requested_walltime;
            walls.extend([
                w - SimDuration::from_micros(1),
                w,
                w + SimDuration::from_micros(1),
            ]);
        }
        let grid_of: Vec<GridId> = (0..150).map(|_| GridId(gen.below(2) as u32)).collect();
        let ttl = MdsDirectory::DEFAULT_TTL;
        // Just before midnight, so the trials cross a day boundary.
        let start = SimTime::from_days(1) - SimDuration::from_mins(3);
        let mut mds = MdsDirectory::with_default_ttl();
        let publish = |mds: &mut MdsDirectory, gen: &mut SimRng, site: u32, now: SimTime| {
            let mut r = record(site, gen.below(8) as u32, None);
            r.queued_jobs = gen.below(4) as u32;
            r.wan_bandwidth = *gen.pick(&[
                Bandwidth::from_mbit_per_sec(100.0),
                Bandwidth::from_mbit_per_sec(622.0),
                Bandwidth::from_bytes_per_sec(f64::NAN),
            ]);
            r.outbound_connectivity = gen.chance(0.7);
            r.allowed_vos = if gen.chance(0.3) {
                None
            } else {
                Some(Vo::ALL.into_iter().filter(|_| gen.chance(0.6)).collect())
            };
            r.owner_vo = if gen.chance(0.4) {
                Some(*gen.pick(&Vo::ALL))
            } else {
                None
            };
            r.se_free = *gen.pick(&disks);
            r.max_walltime = *gen.pick(&walls);
            // Most rows stay fresh through every trial; the rest are up
            // to twice the TTL old, so some start stale and others age
            // out as the trials advance the clock.
            let oldest = if gen.chance(0.3) { ttl * 2 } else { ttl / 3 };
            let age = gen.below(oldest.as_micros() as usize) as u64;
            r.timestamp = SimTime::from_micros(now.as_micros().saturating_sub(age));
            mds.publish(r);
        };
        for site in 0..150 {
            if site % 17 != 5 {
                publish(&mut mds, &mut gen, site, start);
            }
        }
        let mut table = SiteTable::new();
        table.set_grid_map(&grid_of);
        table.refresh(&mds);
        assert!(table.len() >= 130, "{} rows", table.len());

        let brokers = [
            Broker::default(),
            Broker {
                spread: 1,
                favorite_bias: 0.3,
            },
            Broker {
                spread: 12,
                favorite_bias: 0.0,
            },
        ];
        // One scratch serves both ranks and both grids: the live mask it
        // caches is the same for every query shape.
        let mut scratch = SelectScratch::default();
        let mut fast_rng = SimRng::for_entity(151, 15);
        let mut ref_rng = SimRng::for_entity(151, 15);
        let mut placed = 0;
        for trial in 0..1_500u32 {
            let now = start + SimDuration::from_secs(u64::from(trial / 4));
            // A few republishes move the epoch (and restamp rows fresh).
            if trial % 250 == 249 {
                for _ in 0..20 {
                    let site = gen.below(150) as u32;
                    publish(&mut mds, &mut gen, site, now);
                }
                table.refresh(&mds);
            }
            let day = now.day_index();
            let online = |s: SiteId| !(u64::from(s.0) * 7 + day).is_multiple_of(11);
            // No veto at all (a grid without a resilience layer), a
            // partial ban, a total ban, and a ban of every low site id.
            let ban_mode = trial % 4;
            let banned = |s: SiteId| match ban_mode {
                0 => false,
                1 => s.0.is_multiple_of(3),
                2 => true,
                _ => s.0 < 70,
            };
            let veto = (ban_mode != 0).then_some(banned);
            let broker = &brokers[(trial % 3) as usize];
            let mut s = shapes[(trial / 3 % 3) as usize].clone();
            s.class = *gen.pick(&UserClass::ALL);
            s.user = UserId(gen.below(50) as u32);
            let affinity = f64::from(trial % 5) / 4.0;
            let fresh: Vec<&GlueRecord> = mds
                .fresh_records(now)
                .into_iter()
                .filter(|r| online(r.site))
                .collect();
            let (fast, reference) = if trial % 2 == 0 {
                let fast = broker.select_table_for(
                    &s,
                    affinity,
                    &table,
                    now,
                    None,
                    RankInputs::HeadroomBandwidth,
                    online,
                    veto,
                    &mut scratch,
                    &mut fast_rng,
                );
                let reference = broker.select_filtered(&s, affinity, &fresh, &mut ref_rng, banned);
                (fast, reference)
            } else {
                let g = GridId(gen.below(2) as u32);
                let members: Vec<&GlueRecord> = fresh
                    .iter()
                    .copied()
                    .filter(|r| grid_of[r.site.index()] == g)
                    .collect();
                let fast = broker.select_table_for(
                    &s,
                    affinity,
                    &table,
                    now,
                    Some(g),
                    RankInputs::QueueDepth,
                    online,
                    veto,
                    &mut scratch,
                    &mut fast_rng,
                );
                let reference = select_queue_depth_reference(
                    broker,
                    &s,
                    affinity,
                    &members,
                    &mut ref_rng,
                    banned,
                );
                (fast, reference)
            };
            assert_eq!(fast, reference, "trial {trial} diverged");
            placed += usize::from(fast.is_some());
        }
        assert!(placed >= 1_000, "only {placed} of 1500 trials placed a job");
    }

    #[test]
    fn site_table_revalidates_on_epoch_bump() {
        let mut mds = grid3_middleware::mds::MdsDirectory::with_default_ttl();
        mds.publish(record(0, 10, None));
        mds.publish(record(1, 90, None));
        let mut table = SiteTable::new();
        table.refresh(&mds);
        assert_eq!(table.order, [SiteId(1), SiteId(0)]);
        // No epoch movement → refresh is a no-op integer compare.
        table.refresh(&mds);
        assert_eq!(table.order, [SiteId(1), SiteId(0)]);
        // A publish flips the capacity order and bumps the epoch.
        mds.publish(record(0, 100, None));
        table.refresh(&mds);
        assert_eq!(table.order, [SiteId(0), SiteId(1)]);
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
                None::<fn(SiteId) -> bool>,
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
