//! MonALISA: the central repository and its round-robin database.
//!
//! §5.2: "MonALISA … provides access to monitoring data provided by a
//! variety of information providers, including agents which monitored the
//! GRAM logfiles, job queues, and Ganglia metrics. … The MonALISA central
//! repository collects its information in a central server at the iGOC,
//! storing it in a round robin-like database, and makes it available
//! through the web." Custom agents collected "VO-specific activity at
//! sites such as jobs run, compute element usage, and I/O."

use crate::chunked::ChunkedLog;
use grid3_simkit::ids::SiteId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::cluster::Site;
use grid3_site::vo::Vo;
use serde::{Decode, DecodeError, Deserialize, Encode, Reader, Serialize, Sink};
use std::collections::VecDeque;

/// A fixed-capacity, fixed-step time-series ring: the "round robin-like
/// database". Samples landing in the same step consolidate by averaging;
/// when the ring is full the oldest step is evicted.
///
/// [`MonAlisaRepository::series`] answers with one of these; the
/// repository itself stores every series in one shared log.
#[derive(Debug, Clone)]
pub struct RoundRobinDb {
    step: SimDuration,
    capacity: usize,
    // (step start, sum, count) per consolidated step.
    ring: VecDeque<(SimTime, f64, u32)>,
}

impl RoundRobinDb {
    /// A ring of `capacity` steps of width `step`.
    pub fn new(step: SimDuration, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(!step.is_zero(), "step must be positive");
        RoundRobinDb {
            step,
            capacity,
            ring: VecDeque::new(),
        }
    }

    /// Record a sample at `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let step_us = self.step.as_micros();
        let bucket = SimTime::from_micros((t.as_micros() / step_us) * step_us);
        match self.ring.back_mut() {
            Some((start, sum, count)) if *start == bucket => {
                *sum += value;
                *count += 1;
            }
            Some((start, _, _)) if *start > bucket => {
                // Late sample for an already-closed step: fold into the
                // matching step if it is still in the ring, else drop (RRD
                // semantics: the past is consolidated).
                if let Some((_, sum, count)) = self.ring.iter_mut().find(|(s, _, _)| *s == bucket) {
                    *sum += value;
                    *count += 1;
                }
            }
            _ => {
                self.ring.push_back((bucket, value, 1));
                if self.ring.len() > self.capacity {
                    self.ring.pop_front();
                }
            }
        }
    }

    /// Consolidated `(step start, average)` series, oldest first.
    pub fn series(&self) -> Vec<(SimTime, f64)> {
        self.ring
            .iter()
            .map(|(t, sum, n)| (*t, sum / *n as f64))
            .collect()
    }

    /// Number of consolidated steps held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Latest consolidated value.
    pub fn last(&self) -> Option<f64> {
        self.ring.back().map(|(_, sum, n)| sum / *n as f64)
    }
}

/// Key of a repository series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SeriesKey {
    /// Queue depth at a site.
    Queued(
        /// Site.
        SiteId,
    ),
    /// Gatekeeper load at a site.
    GkLoad(
        /// Site.
        SiteId,
    ),
    /// Running jobs of a VO at a site.
    Running(
        /// Site.
        SiteId,
        /// VO.
        Vo,
    ),
}

/// Series slots per site in the repository's dense layout: queue depth,
/// gatekeeper load, plus one running-jobs series per VO.
const SLOTS_PER_SITE: usize = 2 + Vo::ALL.len();

/// No log position: the end of a series' chain of closed buckets.
const NONE: u32 = u32::MAX;

/// The log is compacted once it holds twice its live buckets, and never
/// below this many entries.
const COMPACT_MIN: usize = 1 << 10;

/// One consolidated step of a series: its start, the sum and count of
/// its samples, and the log position of the same series' previous
/// closed bucket ([`NONE`] at the end of the chain).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start: SimTime,
    sum: f64,
    count: u32,
    prev: u32,
}

/// A series' open (newest) bucket — `count == 0` while the series has
/// never reported — and how many of its closed buckets the log holds.
#[derive(Debug, Clone, Copy)]
struct Row {
    open: Bucket,
    closed: u32,
}

const EMPTY_ROW: Row = Row {
    open: Bucket {
        start: SimTime::EPOCH,
        sum: 0.0,
        count: 0,
        prev: NONE,
    },
    closed: 0,
};

/// One ring as snapshots carry it: `(step start, sum, count)` per step,
/// oldest first.
type Ring = Vec<(SimTime, f64, u32)>;

/// The central MonALISA repository at the iGOC.
///
/// Every series key maps to a fixed `(site, slot)` row, so a sample is
/// an index, not a map walk. A row holds its series' open
/// bucket; a sample for a later step closes that bucket onto one
/// time-ordered log shared by every series, linked back to the series'
/// previous closed bucket. Each series is thus a [`RoundRobinDb`] ring
/// laid out in append order: the newest `capacity - 1` closed buckets
/// on its chain plus the open one. Buckets that leave a ring are
/// dropped at once from every answer, and from the log when it holds
/// twice the live buckets (amortised compaction).
///
/// Snapshots carry each row's ring, not the log or its links (see
/// `RepositoryWire`).
#[derive(Debug, Clone)]
pub struct MonAlisaRepository {
    step: SimDuration,
    capacity: usize,
    rows: Vec<Row>,
    log: ChunkedLog<Bucket>,
    /// Closed buckets still inside their ring.
    live: usize,
    populated: usize,
}

impl MonAlisaRepository {
    /// Repository with the given RRD geometry for every series.
    pub fn new(step: SimDuration, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(!step.is_zero(), "step must be positive");
        MonAlisaRepository {
            step,
            capacity,
            rows: Vec::new(),
            log: ChunkedLog::default(),
            live: 0,
            populated: 0,
        }
    }

    /// Dense index of a series key: sites are contiguous blocks of
    /// [`SLOTS_PER_SITE`] slots.
    fn slot_index(key: &SeriesKey) -> usize {
        let (site, slot) = match key {
            SeriesKey::Queued(s) => (s, 0),
            SeriesKey::GkLoad(s) => (s, 1),
            SeriesKey::Running(s, vo) => (s, 2 + vo.index()),
        };
        site.index() * SLOTS_PER_SITE + slot
    }

    /// Closed buckets a ring keeps beside its open one.
    fn ring_keeps(&self) -> u32 {
        u32::try_from(self.capacity - 1).unwrap_or(u32::MAX)
    }

    /// Log positions of a row's closed buckets inside its ring, newest
    /// first.
    fn ring_positions(&self, row: &Row) -> impl Iterator<Item = u32> + '_ {
        let mut at = row.open.prev;
        (0..row.closed.min(self.ring_keeps())).map(move |_| {
            let here = at;
            at = self.log.get(here).prev;
            here
        })
    }

    /// A populated row's ring into `out`, oldest step first.
    fn ring_into(&self, row: &Row, out: &mut Ring) {
        out.clear();
        out.extend(self.ring_positions(row).map(|at| {
            let b = self.log.get(at);
            (b.start, b.sum, b.count)
        }));
        out.reverse();
        out.push((row.open.start, row.open.sum, row.open.count));
    }

    /// The series for a key, if any samples arrived.
    pub fn series(&self, key: &SeriesKey) -> Option<RoundRobinDb> {
        let row = self.rows.get(Self::slot_index(key))?;
        if row.open.count == 0 {
            return None;
        }
        let mut ring = Vec::new();
        self.ring_into(row, &mut ring);
        Some(RoundRobinDb {
            step: self.step,
            capacity: self.capacity,
            ring: ring.into(),
        })
    }

    /// Number of distinct series held.
    pub fn series_count(&self) -> usize {
        self.populated
    }

    /// Record one agent report from `site` at `now` (§5.2's job-queue,
    /// GRAM-log and VO-activity agents): its queue depth, its
    /// gatekeeper's 1-minute load, then running jobs per VO.
    pub fn observe(&mut self, site: &Site, gatekeeper_load: f64, now: SimTime) {
        let id = site.id;
        self.record(SeriesKey::Queued(id), now, site.queued_count() as f64);
        self.record(SeriesKey::GkLoad(id), now, gatekeeper_load);
        let per_vo = site.running_per_vo();
        for vo in Vo::ALL {
            self.record(SeriesKey::Running(id, vo), now, per_vo[vo.index()] as f64);
        }
    }

    /// Record a sample with [`RoundRobinDb::record`]'s semantics.
    fn record(&mut self, key: SeriesKey, t: SimTime, v: f64) {
        let idx = Self::slot_index(&key);
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, EMPTY_ROW);
        }
        let step_us = self.step.as_micros();
        let start = SimTime::from_micros((t.as_micros() / step_us) * step_us);
        let keeps = self.ring_keeps();
        let row = &mut self.rows[idx];
        if row.open.count == 0 {
            self.populated += 1;
            row.open = Bucket {
                start,
                sum: v,
                count: 1,
                prev: NONE,
            };
        } else if row.open.start == start {
            row.open.sum += v;
            row.open.count += 1;
        } else if row.open.start < start {
            let closed = self.log.push(row.open);
            row.closed = row.closed.saturating_add(1);
            if row.closed <= keeps {
                self.live += 1;
            }
            row.open = Bucket {
                start,
                sum: v,
                count: 1,
                prev: closed,
            };
            if self.log.len() >= 2 * self.live.max(COMPACT_MIN) {
                self.compact();
            }
        } else {
            // Late sample for an already-closed step: fold it into that
            // step if the ring still holds it, else drop it (RRD
            // semantics: the past is consolidated).
            let row = *row;
            let mut at = row.open.prev;
            for _ in 0..row.closed.min(keeps) {
                let b = self.log.get_mut(at);
                if b.start <= start {
                    if b.start == start {
                        b.sum += v;
                        b.count += 1;
                    }
                    break;
                }
                at = b.prev;
            }
        }
    }

    /// Drop the closed buckets that have left their rings, in place:
    /// the survivors keep their order and their chains are relinked.
    fn compact(&mut self) {
        let len = self.log.len();
        let mut keep = vec![0u64; len.div_ceil(64)];
        for row in &self.rows {
            for at in self.ring_positions(row) {
                keep[at as usize / 64] |= 1 << (at % 64);
            }
        }
        // Survivors before each word of `keep`: a survivor's new position
        // is its rank among them.
        let mut before = Vec::with_capacity(keep.len());
        let mut survivors = 0;
        for word in &keep {
            before.push(survivors);
            survivors += word.count_ones();
        }
        let kept = |at: u32| at != NONE && keep[at as usize / 64] >> (at % 64) & 1 == 1;
        let relink = |at: u32| {
            if kept(at) {
                let (word, bit) = (at as usize / 64, at % 64);
                before[word] + (keep[word] & ((1 << bit) - 1)).count_ones()
            } else {
                NONE
            }
        };
        let mut write = 0;
        for at in 0..len as u32 {
            if kept(at) {
                let mut b = self.log.get(at);
                b.prev = relink(b.prev);
                *self.log.get_mut(write) = b;
                write += 1;
            }
        }
        self.log.truncate(write as usize);
        let keeps = self.ring_keeps();
        for row in &mut self.rows {
            row.open.prev = relink(row.open.prev);
            row.closed = row.closed.min(keeps);
        }
        self.live = write as usize;
    }

    /// A repository holding the rings of a decoded snapshot.
    fn from_wire(wire: RepositoryWire) -> Result<Self, &'static str> {
        if wire.capacity == 0 || wire.step.is_zero() {
            return Err("MonALISA ring geometry");
        }
        let mut repo = MonAlisaRepository::new(wire.step, wire.capacity);
        for ring in &wire.rows {
            repo.push_row(ring.as_deref())?;
        }
        Ok(repo)
    }

    /// Append a row holding `ring` (oldest step first; `None` for a
    /// series that never reported).
    fn push_row(&mut self, ring: Option<&[(SimTime, f64, u32)]>) -> Result<(), &'static str> {
        let Some(ring) = ring else {
            self.rows.push(EMPTY_ROW);
            return Ok(());
        };
        let Some((&(start, sum, count), closed)) = ring.split_last() else {
            return Err("empty MonALISA ring");
        };
        let closed_len = u32::try_from(closed.len()).map_err(|_| "MonALISA ring")?;
        if ring.len() > self.capacity
            || ring.iter().any(|b| b.2 == 0)
            || ring.windows(2).any(|w| w[0].0 >= w[1].0)
        {
            return Err("MonALISA ring");
        }
        let mut prev = NONE;
        for &(start, sum, count) in closed {
            prev = self.log.push(Bucket {
                start,
                sum,
                count,
                prev,
            });
        }
        self.rows.push(Row {
            open: Bucket {
                start,
                sum,
                count,
                prev,
            },
            closed: closed_len,
        });
        self.live += closed.len();
        self.populated += 1;
        Ok(())
    }
}

/// The repository's snapshot layout: the ring geometry, then every
/// row's ring (see [`MonAlisaRepository::push_row`]). The binary encoder
/// below writes exactly these bytes without building the rings; decoding
/// and the value model go through this struct.
#[derive(Serialize, Deserialize)]
struct RepositoryWire {
    step: SimDuration,
    capacity: usize,
    rows: Vec<Option<Ring>>,
}

impl Serialize for MonAlisaRepository {
    fn to_value(&self) -> serde::Value {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                (row.open.count > 0).then(|| {
                    let mut ring = Vec::new();
                    self.ring_into(row, &mut ring);
                    ring
                })
            })
            .collect();
        RepositoryWire {
            step: self.step,
            capacity: self.capacity,
            rows,
        }
        .to_value()
    }
}

impl Deserialize for MonAlisaRepository {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        MonAlisaRepository::from_wire(RepositoryWire::from_value(v)?).map_err(serde::DeError::msg)
    }
}

impl Encode for MonAlisaRepository {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.step.encode(out);
        self.capacity.encode(out);
        self.rows.len().encode(out);
        let mut ring = Vec::new();
        for row in &self.rows {
            if row.open.count == 0 {
                0u8.encode(out);
            } else {
                1u8.encode(out);
                self.ring_into(row, &mut ring);
                ring.encode(out);
            }
        }
    }
}

impl Decode for MonAlisaRepository {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        MonAlisaRepository::from_wire(RepositoryWire::decode(r)?).map_err(DecodeError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use std::collections::BTreeMap;

    #[test]
    fn rrd_consolidates_within_step() {
        let mut db = RoundRobinDb::new(SimDuration::from_mins(5), 10);
        db.record(SimTime::from_secs(10), 2.0);
        db.record(SimTime::from_secs(200), 4.0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.last(), Some(3.0));
    }

    #[test]
    fn rrd_evicts_oldest_when_full() {
        let mut db = RoundRobinDb::new(SimDuration::from_mins(1), 3);
        for i in 0..5 {
            db.record(SimTime::from_mins(i), i as f64);
        }
        assert_eq!(db.len(), 3);
        let s = db.series();
        assert_eq!(s[0], (SimTime::from_mins(2), 2.0));
        assert_eq!(s[2], (SimTime::from_mins(4), 4.0));
    }

    #[test]
    fn rrd_late_samples_fold_into_existing_step() {
        let mut db = RoundRobinDb::new(SimDuration::from_mins(1), 10);
        db.record(SimTime::from_mins(0), 2.0);
        db.record(SimTime::from_mins(5), 10.0);
        // Late sample for minute 0, still in the ring.
        db.record(SimTime::from_secs(30), 4.0);
        let s = db.series();
        assert_eq!(s[0].1, 3.0);
        // Late sample for an evicted/absent step is dropped silently.
        db.record(SimTime::from_mins(2), 100.0);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn observe_fills_its_sites_rows() {
        let mut site = testing::site(1, 8);
        testing::enqueue(&mut site, &[Vo::Uscms, Vo::Ligo, Vo::Uscms]);
        site.dispatch(SimTime::EPOCH, &mut Vec::new());
        testing::enqueue(&mut site, &[Vo::Btev; 4]);
        let mut repo = MonAlisaRepository::new(SimDuration::from_mins(5), 100);
        repo.observe(&site, 225.0, SimTime::from_mins(1));
        assert_eq!(repo.series_count(), SLOTS_PER_SITE);
        for idx in 0..3 * SLOTS_PER_SITE {
            let key = key_of((idx / SLOTS_PER_SITE) as u32, idx % SLOTS_PER_SITE);
            let want = match key {
                SeriesKey::Queued(SiteId(1)) => Some(4.0),
                SeriesKey::GkLoad(SiteId(1)) => Some(225.0),
                SeriesKey::Running(SiteId(1), Vo::Uscms) => Some(2.0),
                SeriesKey::Running(SiteId(1), Vo::Ligo) => Some(1.0),
                SeriesKey::Running(SiteId(1), _) => Some(0.0),
                _ => None,
            };
            let got = repo.series(&key).map(|db| db.series());
            assert_eq!(got, want.map(|v| vec![(SimTime::EPOCH, v)]), "{key:?}");
        }
    }

    /// The key of dense row `slot` at `site`.
    fn key_of(site: u32, slot: usize) -> SeriesKey {
        let site = SiteId(site);
        match slot {
            0 => SeriesKey::Queued(site),
            1 => SeriesKey::GkLoad(site),
            _ => SeriesKey::Running(site, Vo::ALL[slot - 2]),
        }
    }

    /// `repo` holds exactly the reference rings, by key and in its
    /// snapshot bytes, and its log stays within the compaction bound.
    fn assert_matches(repo: &MonAlisaRepository, reference: &BTreeMap<usize, RoundRobinDb>) {
        assert_eq!(repo.series_count(), reference.len());
        for idx in 0..repo.rows.len().max(SLOTS_PER_SITE) {
            let key = key_of((idx / SLOTS_PER_SITE) as u32, idx % SLOTS_PER_SITE);
            assert_eq!(MonAlisaRepository::slot_index(&key), idx);
            assert_eq!(
                repo.series(&key).map(|db| db.ring),
                reference.get(&idx).map(|db| db.ring.clone()),
                "{key:?}"
            );
        }
        assert!(repo.live <= repo.log.len());
        assert!(repo.log.len() < 2 * repo.live.max(COMPACT_MIN));
        let wire = RepositoryWire {
            step: repo.step,
            capacity: repo.capacity,
            rows: (0..repo.rows.len())
                .map(|i| {
                    reference
                        .get(&i)
                        .map(|db| db.ring.iter().copied().collect())
                })
                .collect(),
        };
        assert!(serde::binary::to_bytes(repo) == serde::binary::to_bytes(&wire));
    }

    /// Record `(t, v)` into the repository and the reference ring of
    /// dense row `idx`.
    fn record_both(
        repo: &mut MonAlisaRepository,
        reference: &mut BTreeMap<usize, RoundRobinDb>,
        idx: usize,
        t: SimTime,
        v: f64,
    ) {
        let key = key_of((idx / SLOTS_PER_SITE) as u32, idx % SLOTS_PER_SITE);
        repo.record(key, t, v);
        reference
            .entry(idx)
            .or_insert_with(|| RoundRobinDb::new(repo.step, repo.capacity))
            .record(t, v);
    }

    #[test]
    fn repository_log_compacts_to_the_rings() {
        let step = SimDuration::from_mins(1);
        let mut repo = MonAlisaRepository::new(step, 3);
        let mut reference = BTreeMap::new();
        for i in 0..5_000u64 {
            for idx in [0, 4, 20] {
                record_both(
                    &mut repo,
                    &mut reference,
                    idx,
                    SimTime::from_mins(i),
                    i as f64,
                );
            }
        }
        // Three rings of two closed buckets each are live; the log was
        // compacted back to them on the way.
        assert_eq!(repo.live, 6);
        assert!(repo.log.len() < 2 * COMPACT_MIN);
        assert_matches(&repo, &reference);
        // A late sample still folds into a kept step after compaction.
        repo.compact();
        assert_eq!(repo.log.len(), 6);
        record_both(&mut repo, &mut reference, 4, SimTime::from_mins(4_998), 1.0);
        assert_matches(&repo, &reference);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The repository answers every series exactly as one
            /// `RoundRobinDb` per series fed the same samples: in order,
            /// within one step, late, past capacity and from rows that
            /// skip sweeps, across compactions and through both snapshot
            /// models.
            #[test]
            fn repository_matches_per_series_rings(
                capacity in 1usize..6,
                ops in proptest::collection::vec(
                    (0usize..2 * SLOTS_PER_SITE + 3, 0u8..8, 0u64..5, -5f64..5.0),
                    1..300,
                ),
            ) {
                let step = SimDuration::from_mins(1);
                let mut repo = MonAlisaRepository::new(step, capacity);
                let mut reference = BTreeMap::new();
                let mut clock = 0u64;
                for (idx, kind, amount, v) in ops {
                    let at = match kind {
                        // Compact now, whatever the log's size.
                        0 => {
                            repo.compact();
                            continue;
                        }
                        // Skip whole sweeps.
                        1 => {
                            clock += amount * 60;
                            clock
                        }
                        // Late: up to four steps back.
                        2 => clock.saturating_sub(amount * 60),
                        // Within the step, or into the next.
                        _ => {
                            clock += amount * 13;
                            clock
                        }
                    };
                    record_both(&mut repo, &mut reference, idx, SimTime::from_secs(at), v);
                }
                assert_matches(&repo, &reference);
                let bytes = serde::binary::to_bytes(&repo);
                let back: MonAlisaRepository = serde::binary::from_bytes(&bytes).unwrap();
                assert_matches(&back, &reference);
                prop_assert!(serde::binary::to_bytes(&back) == bytes);
                let back = MonAlisaRepository::from_value(&repo.to_value()).unwrap();
                assert_matches(&back, &reference);
            }

            /// The ring never exceeds capacity and stays time-ordered.
            #[test]
            fn rrd_bounded_and_ordered(samples in proptest::collection::vec((0u64..10_000, -5f64..5.0), 1..300)) {
                let mut db = RoundRobinDb::new(SimDuration::from_mins(1), 16);
                let mut sorted = samples.clone();
                sorted.sort_by_key(|(t, _)| *t);
                for (t, v) in sorted {
                    db.record(SimTime::from_secs(t), v);
                }
                prop_assert!(db.len() <= 16);
                let series = db.series();
                for w in series.windows(2) {
                    prop_assert!(w[0].0 < w[1].0);
                }
            }
        }
    }
}
