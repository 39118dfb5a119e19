//! The Metrics Data Viewer (MDViewer).
//!
//! §5.2: "The Metrics Data Viewer allows for the analysis and display of
//! collected metrics information. It provides an API for manipulating,
//! comparing and viewing information and a set of predefined plots,
//! parametric in arbitrary time intervals, sites and VOs, tailored to
//! Grid2003 needs."
//!
//! The predefined plots here are precisely the paper's figures:
//!
//! * Figure 2 — integrated CPU-days by VO over an observation window;
//! * Figure 3 — differential usage (time-averaged busy CPUs) by VO;
//! * Figure 4 — CMS usage by site (per-site CPU-days + cumulative curve);
//! * Figure 5 — data consumed by VO (daily and cumulative TB).
//!
//! CPU plots integrate *actual occupancy*: every job that started
//! contributes `[started, finished)`, whether or not it ultimately
//! succeeded — failed jobs burned real CPU on Grid3 too.

use grid3_simkit::ids::SiteId;
use grid3_simkit::series::{BinnedSeries, UsageIntegrator};
#[cfg(test)]
use grid3_simkit::time::SimDuration;
use grid3_simkit::time::SimTime;
use grid3_site::job::JobRecord;
use grid3_site::vo::{UserClass, Vo};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The viewer: per-VO and per-site usage plots over a fixed window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MdViewer {
    start: SimTime,
    days: usize,
    cpu_by_vo: Vec<UsageIntegrator>,
    // Dense by site index (ascending SiteId = the old BTreeMap walk
    // order); O(1) per record on the job-finished hot path instead of a
    // tree lookup, with integrators lazily built per CMS site.
    cms_by_site: Vec<Option<UsageIntegrator>>,
    bytes_by_vo: Vec<BinnedSeries>,
    bytes_total: BinnedSeries,
    jobs_seen: u64,
}

impl MdViewer {
    /// A viewer over `days` daily bins starting at `start`.
    pub fn new(start: SimTime, days: usize) -> Self {
        MdViewer {
            start,
            days,
            cpu_by_vo: (0..6)
                .map(|_| UsageIntegrator::daily(start, days))
                .collect(),
            cms_by_site: Vec::new(),
            bytes_by_vo: (0..6).map(|_| BinnedSeries::daily(start, days)).collect(),
            bytes_total: BinnedSeries::daily(start, days),
            jobs_seen: 0,
        }
    }

    /// Window start.
    pub fn window_start(&self) -> SimTime {
        self.start
    }

    /// Window length in days.
    pub fn window_days(&self) -> usize {
        self.days
    }

    /// Job records folded into the plots.
    pub fn jobs_seen(&self) -> u64 {
        self.jobs_seen
    }

    /// Fold one job record into the CPU plots.
    pub fn ingest_job(&mut self, record: &JobRecord) {
        self.jobs_seen += 1;
        let Some(started) = record.started else {
            return; // never ran; no CPU consumed
        };
        let end = started + record.runtime;
        let vo = record.class.vo();
        self.cpu_by_vo[vo.index()].add_interval(started, end, 1.0);
        if record.class == UserClass::Uscms {
            let (days, start) = (self.days, self.start);
            let idx = record.site.0 as usize;
            if idx >= self.cms_by_site.len() {
                self.cms_by_site.resize_with(idx + 1, || None);
            }
            self.cms_by_site[idx]
                .get_or_insert_with(|| UsageIntegrator::daily(start, days))
                .add_interval(started, end, 1.0);
        }
    }

    /// Fold one delivered transfer into the data plots.
    pub fn ingest_transfer(&mut self, at: SimTime, vo: Vo, bytes: grid3_simkit::units::Bytes) {
        let gb = bytes.as_gb_f64();
        self.bytes_by_vo[vo.index()].add(at, gb);
        self.bytes_total.add(at, gb);
    }

    // --- Figure 2: integrated CPU usage (CPU-days), cumulative by day ---

    /// Cumulative CPU-days per day for one VO.
    pub fn fig2_integrated_cpu_days(&self, vo: Vo) -> Vec<f64> {
        self.cpu_by_vo[vo.index()]
            .series()
            .cumulative()
            .into_iter()
            .map(|busy_secs| busy_secs / 86_400.0)
            .collect()
    }

    /// Final integrated CPU-days for one VO (Figure 2's right edge).
    pub fn total_cpu_days(&self, vo: Vo) -> f64 {
        self.cpu_by_vo[vo.index()].total_unit_days()
    }

    // --- Figure 3: differential usage (time-averaged CPUs per day) ---

    /// Daily time-averaged busy CPUs for one VO.
    pub fn fig3_avg_cpus(&self, vo: Vo) -> Vec<f64> {
        self.cpu_by_vo[vo.index()].time_average()
    }

    /// Daily time-averaged busy CPUs, all VOs summed.
    pub fn fig3_avg_cpus_total(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.days];
        for vo in Vo::ALL {
            for (t, v) in total.iter_mut().zip(self.fig3_avg_cpus(vo)) {
                *t += v;
            }
        }
        total
    }

    // --- Figure 4: CMS usage by site ---

    /// Per-site CMS CPU-days (the Figure 4 distribution).
    pub fn fig4_cms_cpu_days_by_site(&self) -> BTreeMap<SiteId, f64> {
        self.cms_by_site
            .iter()
            .enumerate()
            .filter_map(|(i, u)| u.as_ref().map(|u| (SiteId(i as u32), u.total_unit_days())))
            .collect()
    }

    /// Grid-wide cumulative CMS CPU-days per day (Figure 4's growth curve).
    pub fn fig4_cms_cumulative(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.days];
        for u in self.cms_by_site.iter().flatten() {
            for (t, v) in total.iter_mut().zip(u.series().values()) {
                *t += v / 86_400.0;
            }
        }
        let mut acc = 0.0;
        total
            .iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    }

    // --- Figure 5: data consumed, by VO ---

    /// Cumulative TB delivered, all sources (Figure 5's top curve).
    pub fn fig5_cumulative_tb_total(&self) -> Vec<f64> {
        self.bytes_total
            .cumulative()
            .into_iter()
            .map(|gb| gb / 1_000.0)
            .collect()
    }

    /// Total TB delivered for one VO over the window.
    pub fn total_tb(&self, vo: Vo) -> f64 {
        self.bytes_by_vo[vo.index()].total() / 1_000.0
    }

    /// Peak single-day transfer volume in TB (the §7 "4 TB/day" metric).
    pub fn peak_daily_tb(&self) -> f64 {
        self.bytes_total.peak() / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::{JobId, UserId};
    use grid3_simkit::units::Bytes;
    use grid3_site::job::{FailureCause, JobOutcome};

    fn job(
        class: UserClass,
        site: u32,
        start_hr: u64,
        runtime_hr: u64,
        outcome: JobOutcome,
    ) -> JobRecord {
        let started = SimTime::from_hours(start_hr);
        let runtime = SimDuration::from_hours(runtime_hr);
        JobRecord {
            job: JobId(start_hr as u32),
            class,
            user: UserId(0),
            site: SiteId(site),
            submitted: started,
            started: Some(started),
            finished: started + runtime,
            runtime,
            transferred: Bytes::ZERO,
            outcome,
        }
    }

    #[test]
    fn fig2_accumulates_cpu_days() {
        let mut v = MdViewer::new(SimTime::EPOCH, 30);
        // Two 24 h ATLAS jobs on days 0 and 1.
        v.ingest_job(&job(UserClass::Usatlas, 0, 0, 24, JobOutcome::Completed));
        v.ingest_job(&job(UserClass::Usatlas, 0, 24, 24, JobOutcome::Completed));
        let c = v.fig2_integrated_cpu_days(Vo::Usatlas);
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[1] - 2.0).abs() < 1e-9);
        assert!((c[29] - 2.0).abs() < 1e-9);
        assert!((v.total_cpu_days(Vo::Usatlas) - 2.0).abs() < 1e-9);
        assert_eq!(v.total_cpu_days(Vo::Uscms), 0.0);
    }

    #[test]
    fn failed_jobs_still_consume_cpu() {
        let mut v = MdViewer::new(SimTime::EPOCH, 10);
        v.ingest_job(&job(
            UserClass::Uscms,
            1,
            0,
            12,
            JobOutcome::Failed(FailureCause::NodeRollover),
        ));
        assert!((v.total_cpu_days(Vo::Uscms) - 0.5).abs() < 1e-9);
        // A job that never started consumes nothing.
        let mut never = job(
            UserClass::Uscms,
            1,
            0,
            0,
            JobOutcome::Failed(FailureCause::NoEligibleSite),
        );
        never.started = None;
        v.ingest_job(&never);
        assert!((v.total_cpu_days(Vo::Uscms) - 0.5).abs() < 1e-9);
        assert_eq!(v.jobs_seen(), 2);
    }

    #[test]
    fn fig3_time_average_matches_occupancy() {
        let mut v = MdViewer::new(SimTime::EPOCH, 2);
        // 4 concurrent LIGO jobs for the first half of day 0.
        for i in 0..4 {
            let mut j = job(UserClass::Ligo, 0, 0, 12, JobOutcome::Completed);
            j.job = JobId(i);
            v.ingest_job(&j);
        }
        let avg = v.fig3_avg_cpus(Vo::Ligo);
        assert!((avg[0] - 2.0).abs() < 1e-9, "4 CPUs × half a day");
        assert_eq!(avg[1], 0.0);
        let total = v.fig3_avg_cpus_total();
        assert!((total[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_tracks_cms_by_site_only() {
        let mut v = MdViewer::new(SimTime::EPOCH, 150);
        v.ingest_job(&job(UserClass::Uscms, 3, 0, 48, JobOutcome::Completed));
        v.ingest_job(&job(UserClass::Uscms, 5, 0, 24, JobOutcome::Completed));
        v.ingest_job(&job(UserClass::Usatlas, 3, 0, 48, JobOutcome::Completed));
        let by_site = v.fig4_cms_cpu_days_by_site();
        assert_eq!(by_site.len(), 2);
        assert!((by_site[&SiteId(3)] - 2.0).abs() < 1e-9);
        assert!((by_site[&SiteId(5)] - 1.0).abs() < 1e-9);
        let cumulative = v.fig4_cms_cumulative();
        assert!((cumulative[149] - 3.0).abs() < 1e-9);
        // Monotone.
        for w in cumulative.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn fig5_accumulates_transfers_by_vo() {
        let mut v = MdViewer::new(SimTime::EPOCH, 30);
        v.ingest_transfer(SimTime::from_hours(5), Vo::Ivdgl, Bytes::from_tb(2));
        v.ingest_transfer(SimTime::from_days(1), Vo::Ivdgl, Bytes::from_tb(4));
        v.ingest_transfer(SimTime::from_days(1), Vo::Uscms, Bytes::from_tb(1));
        assert!((v.total_tb(Vo::Ivdgl) - 6.0).abs() < 1e-9);
        assert!((v.total_tb(Vo::Uscms) - 1.0).abs() < 1e-9);
        let cum = v.fig5_cumulative_tb_total();
        assert!((cum[0] - 2.0).abs() < 1e-9);
        assert!((cum[1] - 7.0).abs() < 1e-9);
        // §7 daily metric: peak day moved 5 TB.
        assert!((v.peak_daily_tb() - 5.0).abs() < 1e-9);
    }
}
