//! MonALISA: agents, the central repository, and its round-robin database.
//!
//! §5.2: "MonALISA … provides access to monitoring data provided by a
//! variety of information providers, including agents which monitored the
//! GRAM logfiles, job queues, and Ganglia metrics. … The MonALISA central
//! repository collects its information in a central server at the iGOC,
//! storing it in a round robin-like database, and makes it available
//! through the web." Custom agents collected "VO-specific activity at
//! sites such as jobs run, compute element usage, and I/O."

use crate::framework::{Metric, MetricEvent, MetricSink};
use grid3_simkit::ids::SiteId;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::cluster::Site;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A fixed-capacity, fixed-step time-series ring: the "round robin-like
/// database". Samples landing in the same step consolidate by averaging;
/// when the ring is full the oldest step is evicted.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// A per-site MonALISA agent: wraps the GRAM log, job queues and Ganglia
/// metrics into metric events (§5.2's agent list).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonAlisaAgent {
    /// Site this agent runs at.
    pub site: SiteId,
}

impl MonAlisaAgent {
    /// An agent for `site`.
    pub fn new(site: SiteId) -> Self {
        MonAlisaAgent { site }
    }

    /// Sample VO activity and queue depth at the site.
    pub fn sample(&self, site: &Site, gatekeeper_load: f64, now: SimTime) -> Vec<MetricEvent> {
        let mut events = Vec::new();
        self.sample_into(site, gatekeeper_load, now, &mut events);
        events
    }

    /// [`MonAlisaAgent::sample`] into a caller-owned buffer (appended,
    /// not cleared) — the monitor sweep reuses one buffer across all
    /// sites so a tick allocates nothing.
    pub fn sample_into(
        &self,
        site: &Site,
        gatekeeper_load: f64,
        now: SimTime,
        out: &mut Vec<MetricEvent>,
    ) {
        let per_vo = site.running_per_vo();
        out.extend([
            MetricEvent {
                at: now,
                metric: Metric::QueuedJobs {
                    site: self.site,
                    queued: site.queued_count() as u32,
                },
            },
            MetricEvent {
                at: now,
                metric: Metric::GatekeeperLoad {
                    site: self.site,
                    load: gatekeeper_load,
                },
            },
        ]);
        for vo in Vo::ALL {
            out.push(MetricEvent {
                at: now,
                metric: Metric::RunningJobs {
                    site: self.site,
                    vo,
                    running: per_vo[vo.index()],
                },
            });
        }
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
    /// Cluster CPU load at a site.
    CpuLoad(
        /// Site.
        SiteId,
    ),
}

/// Series slots per site in the repository's dense layout: queue depth,
/// gatekeeper load, CPU load, plus one running-jobs series per VO.
const SLOTS_PER_SITE: usize = 3 + Vo::ALL.len();

/// The central MonALISA repository at the iGOC.
///
/// Series live in a dense vector indexed by `(site, slot)` — every key
/// the agents emit maps to a fixed slot — so the per-metric ingest on
/// the monitoring sweep is an index, not an ordered-map walk. Slots a
/// site never reported stay `None`, mirroring the absent keys of a
/// keyed map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonAlisaRepository {
    step: SimDuration,
    capacity: usize,
    series: Vec<Option<RoundRobinDb>>,
    populated: usize,
}

impl MonAlisaRepository {
    /// Repository with the given RRD geometry for every series.
    pub fn new(step: SimDuration, capacity: usize) -> Self {
        MonAlisaRepository {
            step,
            capacity,
            series: Vec::new(),
            populated: 0,
        }
    }

    /// Dense index of a series key: sites are contiguous blocks of
    /// [`SLOTS_PER_SITE`] slots.
    fn slot_index(key: &SeriesKey) -> usize {
        let (site, slot) = match key {
            SeriesKey::Queued(s) => (s, 0),
            SeriesKey::GkLoad(s) => (s, 1),
            SeriesKey::CpuLoad(s) => (s, 2),
            SeriesKey::Running(s, vo) => (s, 3 + vo.index()),
        };
        site.index() * SLOTS_PER_SITE + slot
    }

    /// The series for a key, if any samples arrived.
    pub fn series(&self, key: &SeriesKey) -> Option<&RoundRobinDb> {
        self.series.get(Self::slot_index(key))?.as_ref()
    }

    /// Number of distinct series held.
    pub fn series_count(&self) -> usize {
        self.populated
    }

    fn record(&mut self, key: SeriesKey, t: SimTime, v: f64) {
        let idx = Self::slot_index(&key);
        if idx >= self.series.len() {
            self.series.resize_with(idx + 1, || None);
        }
        let slot = &mut self.series[idx];
        let db = match slot {
            Some(db) => db,
            None => {
                self.populated += 1;
                slot.insert(RoundRobinDb::new(self.step, self.capacity))
            }
        };
        db.record(t, v);
    }
}

impl MetricSink for MonAlisaRepository {
    fn name(&self) -> &str {
        "ML repository"
    }

    fn ingest(&mut self, event: &MetricEvent) {
        match &event.metric {
            Metric::QueuedJobs { site, queued } => {
                self.record(SeriesKey::Queued(*site), event.at, *queued as f64);
            }
            Metric::GatekeeperLoad { site, load } => {
                self.record(SeriesKey::GkLoad(*site), event.at, *load);
            }
            Metric::RunningJobs { site, vo, running } => {
                self.record(SeriesKey::Running(*site, *vo), event.at, *running as f64);
            }
            Metric::CpuLoad { site, load } => {
                self.record(SeriesKey::CpuLoad(*site), event.at, *load);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn repository_routes_series_by_key() {
        let mut repo = MonAlisaRepository::new(SimDuration::from_mins(5), 100);
        repo.ingest(&MetricEvent {
            at: SimTime::from_mins(1),
            metric: Metric::RunningJobs {
                site: SiteId(0),
                vo: Vo::Uscms,
                running: 40,
            },
        });
        repo.ingest(&MetricEvent {
            at: SimTime::from_mins(1),
            metric: Metric::RunningJobs {
                site: SiteId(1),
                vo: Vo::Uscms,
                running: 60,
            },
        });
        repo.ingest(&MetricEvent {
            at: SimTime::from_mins(1),
            metric: Metric::GatekeeperLoad {
                site: SiteId(0),
                load: 225.0,
            },
        });
        assert_eq!(repo.series_count(), 3);
        let running = |site, vo| {
            repo.series(&SeriesKey::Running(SiteId(site), vo))
                .and_then(RoundRobinDb::last)
        };
        assert_eq!(running(0, Vo::Uscms), Some(40.0));
        assert_eq!(running(1, Vo::Uscms), Some(60.0));
        assert_eq!(running(0, Vo::Ligo), None);
        assert_eq!(
            repo.series(&SeriesKey::GkLoad(SiteId(0))).unwrap().last(),
            Some(225.0)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
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
