//! The ACDC Job Monitor (U. Buffalo).
//!
//! §5.2: "The ACDC Job Monitor … collects information from local job
//! managers using a typical pull-based model. Statistics and job metrics
//! are collected and stored in a web-visible database, available for
//! aggregated queries and browsing." Table 1 is computed from this
//! database ("source ACDC University at Buffalo", "a sample of 291052 job
//! records"), and its caption notes it is "based on completed production
//! jobs" — so the per-class statistics here count completed jobs only,
//! while failure accounting is kept separately for the efficiency metrics.

use grid3_simkit::ids::{SiteId, UserId};
use grid3_simkit::series::MonthlySeries;
use grid3_simkit::stats::success_rate;
use grid3_site::job::{FailureCause, JobOutcome, JobRecord};
use grid3_site::vo::UserClass;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-class statistics in exactly the shape of Table 1's rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// The class (Table 1 column).
    pub class: UserClass,
    /// "Number of Users" — distinct users with completed jobs.
    pub users: usize,
    /// "Grid3 Sites Used" — distinct sites with completed jobs.
    pub sites_used: usize,
    /// "Number of Jobs" — completed jobs.
    pub jobs: u64,
    /// "Avg. Runtime (hr)".
    pub avg_runtime_hr: f64,
    /// "Max. Runtime (hr)".
    pub max_runtime_hr: f64,
    /// "Total CPU (days)".
    pub total_cpu_days: f64,
    /// "Peak Production Rate (jobs/month)".
    pub peak_month_jobs: u64,
    /// "Peak Production Month-Year", e.g. `"11-2003"`.
    pub peak_month: String,
    /// "Number of Peak Prod. Resources" — distinct sites in the peak month.
    pub peak_resources: usize,
    /// "Max. Prod. from Single Resource (jobs/month)" — most jobs one site
    /// completed in the peak month.
    pub max_single_resource_jobs: u64,
    /// The `[%]` companion: that site's share of the peak month's jobs.
    pub max_single_resource_pct: f64,
    /// "Peak Production CPU (days)" — CPU-days consumed in the peak month.
    pub peak_month_cpu_days: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CompletedJob {
    site: SiteId,
    user: UserId,
    month: u32,
    runtime_hr: f64,
    cpu_days: f64,
}

/// Failure counts folded densely by [`FailureCause::index`]. The view
/// walks [`FailureCause::ALL`] (declaration = `Ord` order) and skips
/// zero rows, so it reads exactly like the `BTreeMap<FailureCause, u64>`
/// it replaced — without the per-first-failure node allocation on the
/// engine's job-finished hot path.
#[derive(Debug, Clone, Copy)]
pub struct FailureBreakdown<'a>(&'a [u64; FailureCause::ALL.len()]);

impl<'a> FailureBreakdown<'a> {
    /// `(cause, count)` pairs with nonzero counts, in `Ord` order.
    pub fn iter(self) -> impl Iterator<Item = (&'a FailureCause, &'a u64)> {
        FailureCause::ALL
            .iter()
            .zip(self.0.iter())
            .filter(|(_, n)| **n > 0)
    }

    /// Nonzero counts, in `Ord` order.
    pub fn values(self) -> impl Iterator<Item = &'a u64> {
        self.iter().map(|(_, n)| n)
    }

    /// Count for one cause; `None` when it never occurred (mirroring map
    /// lookup of an absent key).
    pub fn get(self, cause: &FailureCause) -> Option<&'a u64> {
        let n = &self.0[cause.index()];
        (*n > 0).then_some(n)
    }
}

impl std::ops::Index<&FailureCause> for FailureBreakdown<'_> {
    type Output = u64;
    fn index(&self, cause: &FailureCause) -> &u64 {
        &self.0[cause.index()]
    }
}

/// The job-record database.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AcdcJobMonitor {
    completed: Vec<Vec<CompletedJob>>, // indexed by UserClass::index()
    failures: [u64; FailureCause::ALL.len()],
    failed_by_class: [u64; 7],
    total_records: u64,
    queue_waits: Vec<grid3_simkit::stats::Summary>, // indexed by class
}

impl AcdcJobMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        AcdcJobMonitor {
            completed: (0..7).map(|_| Vec::new()).collect(),
            failures: [0; FailureCause::ALL.len()],
            failed_by_class: [0; 7],
            total_records: 0,
            queue_waits: (0..7)
                .map(|_| grid3_simkit::stats::Summary::new())
                .collect(),
        }
    }

    /// Pull one record from a local job manager.
    pub fn ingest_record(&mut self, record: &JobRecord) {
        self.total_records += 1;
        if let Some(wait) = record.queue_wait() {
            self.queue_waits[record.class.index()].record(wait.as_hours_f64());
        }
        match record.outcome {
            JobOutcome::Completed => {
                self.completed[record.class.index()].push(CompletedJob {
                    site: record.site,
                    user: record.user,
                    month: record.finished.month_index(),
                    runtime_hr: record.runtime.as_hours_f64(),
                    cpu_days: record.cpu_days(),
                });
            }
            JobOutcome::Failed(cause) => {
                self.failures[cause.index()] += 1;
                self.failed_by_class[record.class.index()] += 1;
            }
        }
    }

    /// Total records pulled (completed + failed).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Completed jobs for a class.
    pub fn completed_count(&self, class: UserClass) -> u64 {
        self.completed[class.index()].len() as u64
    }

    /// Failed jobs for a class.
    pub fn failed_count(&self, class: UserClass) -> u64 {
        self.failed_by_class[class.index()]
    }

    /// Completion efficiency for a class (§7's job-completion metric).
    pub fn efficiency(&self, class: UserClass) -> f64 {
        let done = self.completed_count(class);
        success_rate(done, done + self.failed_count(class))
    }

    /// Grid-wide completion efficiency.
    pub fn overall_efficiency(&self) -> f64 {
        let done: u64 = UserClass::ALL
            .iter()
            .map(|c| self.completed_count(*c))
            .sum();
        let failed: u64 = self.failed_by_class.iter().sum();
        success_rate(done, done + failed)
    }

    /// Failure counts by cause.
    pub fn failure_breakdown(&self) -> FailureBreakdown<'_> {
        FailureBreakdown(&self.failures)
    }

    /// Fraction of failures attributable to site problems (§6.1 reports
    /// ≈90 %).
    pub fn site_problem_fraction(&self) -> f64 {
        let total: u64 = self.failures.iter().sum();
        let site: u64 = FailureCause::ALL
            .iter()
            .zip(self.failures.iter())
            .filter(|(c, _)| c.is_site_problem())
            .map(|(_, n)| *n)
            .sum();
        success_rate(site, total)
    }

    /// Time-to-start statistics (submission → execution start, hours,
    /// i.e. staging plus batch queue) for a class — the §8 "job resource
    /// requirements … will aid in efficient job scheduling" lesson needs
    /// exactly this signal.
    pub fn queue_wait_stats(&self, class: UserClass) -> &grid3_simkit::stats::Summary {
        &self.queue_waits[class.index()]
    }

    /// Jobs run per month across all classes — Figure 6's series. Counts
    /// every record (success or failure): the paper plots "the number of
    /// jobs run".
    pub fn monthly_jobs_all(&self) -> MonthlySeries {
        // Failures are not stored per month, so this counts completed
        // jobs; the paper's ramp-up shape (Figure 6) is unaffected.
        let mut series = MonthlySeries::new();
        for class_jobs in &self.completed {
            for j in class_jobs {
                series.add_month_index(j.month, 1.0);
            }
        }
        series
    }

    /// CPU-days by site for one class (Figure 4's per-site breakdown).
    pub fn cpu_days_by_site(&self, class: UserClass) -> BTreeMap<SiteId, f64> {
        let mut map = BTreeMap::new();
        for j in &self.completed[class.index()] {
            *map.entry(j.site).or_insert(0.0) += j.cpu_days;
        }
        map
    }

    /// Completed-job counts by site for one class.
    pub fn jobs_by_site(&self, class: UserClass) -> BTreeMap<SiteId, u64> {
        let mut map = BTreeMap::new();
        for j in &self.completed[class.index()] {
            *map.entry(j.site).or_insert(0) += 1;
        }
        map
    }

    /// The full Table 1 row for a class.
    pub(crate) fn class_stats(&self, class: UserClass) -> ClassStats {
        let jobs = &self.completed[class.index()];
        let users: BTreeSet<UserId> = jobs.iter().map(|j| j.user).collect();
        let sites: BTreeSet<SiteId> = jobs.iter().map(|j| j.site).collect();
        let n = jobs.len() as u64;
        let avg_runtime_hr = if jobs.is_empty() {
            0.0
        } else {
            jobs.iter().map(|j| j.runtime_hr).sum::<f64>() / jobs.len() as f64
        };
        let max_runtime_hr = jobs.iter().map(|j| j.runtime_hr).fold(0.0, f64::max);
        let total_cpu_days: f64 = jobs.iter().map(|j| j.cpu_days).sum();

        // Per-month job counts and CPU-days.
        let mut month_jobs: BTreeMap<u32, u64> = BTreeMap::new();
        let mut month_cpu: BTreeMap<u32, f64> = BTreeMap::new();
        let mut month_site_jobs: BTreeMap<(u32, SiteId), u64> = BTreeMap::new();
        for j in jobs {
            *month_jobs.entry(j.month).or_insert(0) += 1;
            *month_cpu.entry(j.month).or_insert(0.0) += j.cpu_days;
            *month_site_jobs.entry((j.month, j.site)).or_insert(0) += 1;
        }
        let (peak_month_idx, peak_month_jobs) = month_jobs
            .iter()
            .max_by_key(|(m, n)| (**n, std::cmp::Reverse(**m)))
            .map(|(m, n)| (*m, *n))
            .unwrap_or((0, 0));
        let peak_month = grid3_simkit::time::month_index_label(peak_month_idx);
        let peak_sites: BTreeSet<SiteId> = month_site_jobs
            .iter()
            .filter(|((m, _), _)| *m == peak_month_idx)
            .map(|((_, s), _)| *s)
            .collect();
        let max_single_resource_jobs = month_site_jobs
            .iter()
            .filter(|((m, _), _)| *m == peak_month_idx)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        let max_single_resource_pct = if peak_month_jobs == 0 {
            0.0
        } else {
            100.0 * max_single_resource_jobs as f64 / peak_month_jobs as f64
        };
        let peak_month_cpu_days = month_cpu.get(&peak_month_idx).copied().unwrap_or(0.0);

        ClassStats {
            class,
            users: users.len(),
            sites_used: sites.len(),
            jobs: n,
            avg_runtime_hr,
            max_runtime_hr,
            total_cpu_days,
            peak_month_jobs,
            peak_month,
            peak_resources: peak_sites.len(),
            max_single_resource_jobs,
            max_single_resource_pct,
            peak_month_cpu_days,
        }
    }

    /// All seven rows, in Table 1 column order.
    pub fn table1(&self) -> Vec<ClassStats> {
        UserClass::ALL
            .iter()
            .map(|c| self.class_stats(*c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::ids::JobId;
    use grid3_simkit::time::{SimDuration, SimTime};
    use grid3_simkit::units::Bytes;
    use grid3_site::job::JobOutcome;

    fn record(
        id: u32,
        class: UserClass,
        user: u32,
        site: u32,
        finished_day: u64,
        runtime_hr: f64,
        outcome: JobOutcome,
    ) -> JobRecord {
        let finished = SimTime::from_days(finished_day);
        let runtime = SimDuration::from_hours_f64(runtime_hr);
        JobRecord {
            job: JobId(id),
            class,
            user: UserId(user),
            site: SiteId(site),
            submitted: finished - runtime,
            started: Some(finished - runtime),
            finished,
            runtime,
            transferred: Bytes::from_gb(1),
            outcome,
        }
    }

    #[test]
    fn counts_completed_only_in_table_stats() {
        let mut db = AcdcJobMonitor::new();
        db.ingest_record(&record(
            1,
            UserClass::Btev,
            1,
            0,
            5,
            2.0,
            JobOutcome::Completed,
        ));
        db.ingest_record(&record(
            2,
            UserClass::Btev,
            1,
            0,
            5,
            2.0,
            JobOutcome::Failed(FailureCause::DiskFull),
        ));
        let stats = db.class_stats(UserClass::Btev);
        assert_eq!(stats.jobs, 1);
        assert_eq!(db.total_records(), 2);
        assert_eq!(db.failed_count(UserClass::Btev), 1);
        assert!((db.efficiency(UserClass::Btev) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table1_shape_statistics() {
        let mut db = AcdcJobMonitor::new();
        // November 2003 (days 7..37): 3 jobs at site 0, 1 at site 1.
        for (i, (site, day)) in [(0u32, 10u64), (0, 12), (0, 15), (1, 20)]
            .iter()
            .enumerate()
        {
            db.ingest_record(&record(
                i as u32,
                UserClass::Sdss,
                i as u32 % 2,
                *site,
                *day,
                4.0,
                JobOutcome::Completed,
            ));
        }
        // December 2003 (days 37..68): 1 job.
        db.ingest_record(&record(
            9,
            UserClass::Sdss,
            0,
            2,
            40,
            8.0,
            JobOutcome::Completed,
        ));
        let s = db.class_stats(UserClass::Sdss);
        assert_eq!(s.users, 2);
        assert_eq!(s.sites_used, 3);
        assert_eq!(s.jobs, 5);
        assert!((s.avg_runtime_hr - 4.8).abs() < 1e-9);
        assert_eq!(s.max_runtime_hr, 8.0);
        assert!((s.total_cpu_days - (4.0 * 4.0 + 8.0) / 24.0).abs() < 1e-9);
        assert_eq!(s.peak_month, "11-2003");
        assert_eq!(s.peak_month_jobs, 4);
        assert_eq!(s.peak_resources, 2);
        assert_eq!(s.max_single_resource_jobs, 3);
        assert!((s.max_single_resource_pct - 75.0).abs() < 1e-9);
        assert!((s.peak_month_cpu_days - 16.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn empty_class_stats_are_zeroed() {
        let db = AcdcJobMonitor::new();
        let s = db.class_stats(UserClass::Ligo);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.users, 0);
        assert_eq!(s.avg_runtime_hr, 0.0);
        assert_eq!(s.peak_month_jobs, 0);
        assert_eq!(db.table1().len(), 7);
    }

    #[test]
    fn site_problem_fraction_matches_ingested_mix() {
        let mut db = AcdcJobMonitor::new();
        for i in 0..9 {
            db.ingest_record(&record(
                i,
                UserClass::Usatlas,
                0,
                0,
                5,
                1.0,
                JobOutcome::Failed(FailureCause::DiskFull),
            ));
        }
        db.ingest_record(&record(
            99,
            UserClass::Usatlas,
            0,
            0,
            5,
            1.0,
            JobOutcome::Failed(FailureCause::RandomLoss),
        ));
        assert!((db.site_problem_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(db.failure_breakdown()[&FailureCause::DiskFull], 9);
    }

    #[test]
    fn cpu_days_by_site_feeds_figure_4() {
        let mut db = AcdcJobMonitor::new();
        db.ingest_record(&record(
            1,
            UserClass::Uscms,
            0,
            3,
            10,
            24.0,
            JobOutcome::Completed,
        ));
        db.ingest_record(&record(
            2,
            UserClass::Uscms,
            0,
            3,
            11,
            24.0,
            JobOutcome::Completed,
        ));
        db.ingest_record(&record(
            3,
            UserClass::Uscms,
            0,
            5,
            12,
            48.0,
            JobOutcome::Completed,
        ));
        let by_site = db.cpu_days_by_site(UserClass::Uscms);
        assert!((by_site[&SiteId(3)] - 2.0).abs() < 1e-9);
        assert!((by_site[&SiteId(5)] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn monthly_series_tracks_ramp_up() {
        let mut db = AcdcJobMonitor::new();
        // Oct: 2 jobs, Nov: 5, Dec: 4 — the fig 6 ramp shape.
        for (day, n) in [(2u64, 2u32), (15, 5), (45, 4)] {
            for i in 0..n {
                db.ingest_record(&record(
                    (day as u32) * 100 + i,
                    UserClass::Exerciser,
                    0,
                    0,
                    day,
                    0.25,
                    JobOutcome::Completed,
                ));
            }
        }
        let all = db.monthly_jobs_all();
        assert_eq!(all.values(), &[2.0, 5.0, 4.0]);
        assert_eq!(all.total(), 11.0);
    }
}
