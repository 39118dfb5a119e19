//! Whole-run campaigns: fan a scenario across seeds and parameter
//! variants in parallel, then merge the per-run [`Grid3Report`]s into a
//! campaign summary with percentile bands.
//!
//! The discrete-event core is strictly sequential per run — a run is a
//! pure function of `(config, seed)` — so parallelism lives *across*
//! runs, over a grid of `variants × seeds`. [`run_with_threads`] is the
//! one executor: reports are collected in plan order no matter which
//! worker finished first, so the merged summary is independent of
//! thread count and scheduling (`run_with_threads(plan, 1)` is the
//! serial reference). [`run_campaign_resumable`] runs on the same worker
//! pool and adds the write-ahead journal and checkpoints on top of the
//! same merge.

pub mod resume;

pub use resume::{
    plan_fingerprint, run_campaign_resumable, CampaignJournal, ResumableOptions, RunFailure,
    WalError, WalRecord,
};

use crate::dsl::DslError;
use crate::report::Grid3Report;
use crate::scenario::ScenarioConfig;
use grid3_simkit::profiler::CostProfiler;
use grid3_simkit::stats::{percentile, Summary};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One named configuration variant of a campaign (e.g. the SRM ablation
/// or a resilience-layer overlay of the same window).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignVariant {
    /// Label carried into the summary.
    pub name: String,
    /// The configuration to sweep (its seed is replaced per run).
    pub cfg: ScenarioConfig,
}

/// A campaign plan: the cross product of variants and seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// The configuration variants to sweep.
    pub variants: Vec<CampaignVariant>,
    /// The seeds each variant runs under.
    pub seeds: Vec<u64>,
}

impl CampaignPlan {
    /// A single-variant plan: one configuration across `seeds`.
    pub fn single(name: impl Into<String>, cfg: ScenarioConfig, seeds: Vec<u64>) -> Self {
        CampaignPlan {
            variants: vec![CampaignVariant {
                name: name.into(),
                cfg,
            }],
            seeds,
        }
    }

    /// Add a variant to the sweep.
    pub fn with_variant(mut self, name: impl Into<String>, cfg: ScenarioConfig) -> Self {
        self.variants.push(CampaignVariant {
            name: name.into(),
            cfg,
        });
        self
    }

    /// Total runs in the plan.
    pub fn len(&self) -> usize {
        self.variants.len() * self.seeds.len()
    }

    /// True when the plan has no runs.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty() || self.seeds.is_empty()
    }

    /// The runs in plan order: variants outermost, seeds innermost.
    fn runs(&self) -> Vec<(usize, u64, ScenarioConfig)> {
        let mut out = Vec::with_capacity(self.len());
        for (vi, v) in self.variants.iter().enumerate() {
            for &seed in &self.seeds {
                out.push((vi, seed, v.cfg.clone().with_seed(seed)));
            }
        }
        out
    }
}

/// Progress snapshot handed to [`CampaignObserver::run_finished`] as
/// each run completes.
#[derive(Debug, Clone)]
pub struct RunProgress<'a> {
    /// The finished run's variant label.
    pub variant: &'a str,
    /// The finished run's seed.
    pub seed: u64,
    /// Runs finished so far, this one included (monotonic across
    /// workers: 1, 2, …, `total` regardless of thread count).
    pub completed: usize,
    /// Total runs in the plan.
    pub total: usize,
    /// The finished run's overall completion efficiency.
    pub efficiency: f64,
}

/// Progress hook for campaign executors. Called once per finished run,
/// from whichever worker finished it, in *completion* order; reports
/// and profiles are still collected in plan order, so the
/// [`CampaignOutcome`] is identical for any thread count or scheduling.
pub trait CampaignObserver: Sync {
    /// One run of the plan finished.
    fn run_finished(&self, progress: &RunProgress<'_>);
}

/// The do-nothing observer behind the observer-less entry points.
struct NullObserver;

impl CampaignObserver for NullObserver {
    fn run_finished(&self, _: &RunProgress<'_>) {}
}

/// A percentile band of one metric across a variant's runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PercentileBand {
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Mean across runs.
    pub mean: f64,
    /// Smallest run value.
    pub min: f64,
    /// Largest run value.
    pub max: f64,
}

impl PercentileBand {
    /// Band a sample set (empty samples give an all-zero band).
    pub(crate) fn from_samples(samples: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in samples {
            s.record(v);
        }
        PercentileBand {
            p5: percentile(samples, 5.0),
            p25: percentile(samples, 25.0),
            p50: percentile(samples, 50.0),
            p75: percentile(samples, 75.0),
            p95: percentile(samples, 95.0),
            mean: if samples.is_empty() { 0.0 } else { s.mean() },
            min: if samples.is_empty() { 0.0 } else { s.min() },
            max: if samples.is_empty() { 0.0 } else { s.max() },
        }
    }
}

/// One cost center's band across a variant's profiled runs: which
/// `(subsystem, event-type)` the engine spent its time in, and how
/// stable that cost was across seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CenterBand {
    /// Subsystem the events were routed to.
    pub subsystem: String,
    /// Event-type label within the subsystem.
    pub event: String,
    /// Events dispatched to this center, summed across runs.
    pub events: u64,
    /// Handler self-time per event, nanoseconds, banded across runs.
    pub ns_per_event: PercentileBand,
}

/// The merged statistics of one variant across every seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantSummary {
    /// The variant's label.
    pub name: String,
    /// Seeds run, in plan order.
    pub seeds: Vec<u64>,
    /// Completion-efficiency band.
    pub efficiency: PercentileBand,
    /// Peak-concurrent-jobs band.
    pub peak_concurrent: PercentileBand,
    /// Site-problem failure-fraction band.
    pub site_problem_fraction: PercentileBand,
    /// Total delivered data band, TB.
    pub total_data_tb: PercentileBand,
    /// Total terminal job records band.
    pub total_jobs: PercentileBand,
    /// Per-cost-center ns/event bands, ranked most expensive first.
    /// Empty unless the variant's config ran with profiling enabled.
    pub cost_bands: Vec<CenterBand>,
}

/// A scenario file a directory sweep skipped, with the rendered load
/// error (see [`plan_from_dir`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkippedScenario {
    /// The offending file.
    pub path: String,
    /// The typed load error, rendered.
    pub error: String,
}

/// The merged campaign summary: one [`VariantSummary`] per variant, in
/// plan order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Per-variant bands, in plan order.
    pub variants: Vec<VariantSummary>,
    /// Total runs merged.
    pub runs: usize,
    /// Scenario files the sweep skipped as malformed (directory sweeps
    /// only; always empty for plan-built campaigns).
    #[serde(default)]
    pub skipped: Vec<SkippedScenario>,
}

/// A finished campaign: every per-run report (grouped by variant, seeds
/// in plan order) plus the merged summary.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// `reports[v][s]` is variant `v` under the `s`-th seed.
    pub reports: Vec<Vec<Grid3Report>>,
    /// Per-variant cost profiles merged across seeds; `None` for
    /// variants whose config ran without profiling.
    pub profiles: Vec<Option<CostProfiler>>,
    /// The merged percentile-band summary.
    pub summary: CampaignSummary,
}

/// Per-center ns/event bands across one variant's profiled runs, ranked
/// by mean ns/event descending. Centers a run never dispatched to
/// contribute no sample; centers no run dispatched to are dropped.
fn cost_bands(group: &[(Grid3Report, Option<CostProfiler>)]) -> Vec<CenterBand> {
    let Some(first) = group.iter().find_map(|(_, p)| p.as_ref()) else {
        return Vec::new();
    };
    let mut bands: Vec<CenterBand> = first
        .centers()
        .iter()
        .enumerate()
        .filter_map(|(ci, c)| {
            let samples: Vec<f64> = group
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .filter_map(|p| {
                    let s = &p.stats()[ci];
                    (s.events > 0).then(|| s.total_ns as f64 / s.events as f64)
                })
                .collect();
            let events: u64 = group
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .map(|p| p.stats()[ci].events)
                .sum();
            (events > 0).then(|| CenterBand {
                subsystem: c.subsystem.to_string(),
                event: c.event.to_string(),
                events,
                ns_per_event: PercentileBand::from_samples(&samples),
            })
        })
        .collect();
    bands.sort_by(|a, b| {
        b.ns_per_event
            .mean
            .partial_cmp(&a.ns_per_event.mean)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    bands
}

fn merge(plan: &CampaignPlan, flat: Vec<(Grid3Report, Option<CostProfiler>)>) -> CampaignOutcome {
    merge_partial(plan, flat.into_iter().map(Some).collect())
}

/// [`merge`] over a possibly gappy run set: `None` marks a run that
/// failed or was skipped, and contributes nothing to its variant's
/// bands (the variant's `seeds` list only the runs actually merged).
/// With every slot present this is exactly [`merge`] — the resumable
/// executor's uninterrupted path is byte-identical to the plain one.
fn merge_partial(
    plan: &CampaignPlan,
    flat: Vec<Option<(Grid3Report, Option<CostProfiler>)>>,
) -> CampaignOutcome {
    let per = plan.seeds.len();
    let mut groups: Vec<Vec<(Grid3Report, Option<CostProfiler>)>> =
        Vec::with_capacity(plan.variants.len());
    let mut group_seeds: Vec<Vec<u64>> = Vec::with_capacity(plan.variants.len());
    let mut it = flat.into_iter();
    for _ in &plan.variants {
        let mut group = Vec::with_capacity(per);
        let mut seeds = Vec::with_capacity(per);
        for (slot, &seed) in it.by_ref().take(per).zip(&plan.seeds) {
            if let Some(pair) = slot {
                group.push(pair);
                seeds.push(seed);
            }
        }
        groups.push(group);
        group_seeds.push(seeds);
    }
    let variants = plan
        .variants
        .iter()
        .zip(&groups)
        .zip(group_seeds)
        .map(|((v, group), seeds)| {
            let metric = |f: &dyn Fn(&Grid3Report) -> f64| {
                let samples: Vec<f64> = group.iter().map(|(r, _)| f(r)).collect();
                PercentileBand::from_samples(&samples)
            };
            VariantSummary {
                name: v.name.clone(),
                seeds,
                efficiency: metric(&|r| r.metrics.overall_efficiency),
                peak_concurrent: metric(&|r| r.metrics.peak_concurrent_jobs),
                site_problem_fraction: metric(&|r| r.metrics.site_problem_fraction),
                total_data_tb: metric(&|r| r.metrics.total_data.as_tb_f64()),
                total_jobs: metric(&|r| r.total_jobs as f64),
                cost_bands: cost_bands(group),
            }
        })
        .collect();
    let mut reports: Vec<Vec<Grid3Report>> = Vec::with_capacity(groups.len());
    let mut profiles: Vec<Option<CostProfiler>> = Vec::with_capacity(groups.len());
    for group in groups {
        let mut merged: Option<CostProfiler> = None;
        let mut group_reports = Vec::with_capacity(group.len());
        for (report, profile) in group {
            if let Some(p) = profile {
                match &mut merged {
                    Some(m) => m.merge(&p),
                    None => merged = Some(p),
                }
            }
            group_reports.push(report);
        }
        reports.push(group_reports);
        profiles.push(merged);
    }
    CampaignOutcome {
        summary: CampaignSummary {
            variants,
            runs: reports.iter().map(Vec::len).sum(),
            skipped: Vec::new(),
        },
        reports,
        profiles,
    }
}

/// Execute one planned run and notify `observer` with its plan context
/// and the campaign-wide completion count.
fn run_and_observe(
    plan: &CampaignPlan,
    (vi, seed, cfg): &(usize, u64, ScenarioConfig),
    done: &AtomicUsize,
    total: usize,
    observer: &dyn CampaignObserver,
) -> (Grid3Report, Option<CostProfiler>) {
    let artifacts = cfg.run_full();
    let completed = done.fetch_add(1, Ordering::SeqCst) + 1;
    observer.run_finished(&RunProgress {
        variant: &plan.variants[*vi].name,
        seed: *seed,
        completed,
        total,
        efficiency: artifacts.report.metrics.overall_efficiency,
    });
    (artifacts.report, artifacts.profile)
}

/// A directory-built campaign plan plus the files it had to skip, each
/// with its typed load error.
#[derive(Debug, Clone)]
pub struct DirPlan {
    /// The plan over the valid scenario files.
    pub plan: CampaignPlan,
    /// Malformed files, in filename order, with their typed errors.
    pub skipped: Vec<(std::path::PathBuf, DslError)>,
}

/// Build a campaign plan from a directory of scenario files: every
/// `*.json` in `dir` becomes one variant, named by file stem, in
/// filename order (sorted, so the plan — and therefore the outcome —
/// is independent of directory-listing order).
///
/// Malformed files do **not** abort the sweep: each is recorded in
/// [`DirPlan::skipped`] with its typed [`DslError`] and the remaining
/// valid scenarios proceed. The whole directory is an error only when
/// it cannot be read, holds no `*.json` files at all, or every file is
/// malformed (an all-invalid directory is a configuration mistake, not
/// a partial one — the first file's error is returned).
pub fn plan_from_dir(dir: &std::path::Path, seeds: Vec<u64>) -> Result<DirPlan, DslError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| DslError::Io {
            path: dir.display().to_string(),
            msg: e.to_string(),
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(DslError::Io {
            path: dir.display().to_string(),
            msg: "no *.json scenario files found".to_string(),
        });
    }
    let mut plan = CampaignPlan {
        variants: Vec::with_capacity(paths.len()),
        seeds,
    };
    let mut skipped = Vec::new();
    for path in paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        match crate::dsl::load_config(&path) {
            Ok(cfg) => plan.variants.push(CampaignVariant { name, cfg }),
            Err(err) => skipped.push((path, err)),
        }
    }
    if plan.variants.is_empty() {
        let (_, err) = skipped.swap_remove(0);
        return Err(err);
    }
    Ok(DirPlan { plan, skipped })
}

/// Sweep a directory of scenario files: load each `*.json` as a variant
/// (via [`plan_from_dir`]) and run the cross product with `seeds` on
/// every available core. The scenario files are data — a sweep needs no
/// code. Malformed files are recorded in the summary's
/// [`skipped`](CampaignSummary::skipped) list and the valid scenarios
/// still run.
pub fn run_campaign_dir(
    dir: &std::path::Path,
    seeds: Vec<u64>,
) -> Result<CampaignOutcome, DslError> {
    let DirPlan { plan, skipped } = plan_from_dir(dir, seeds)?;
    let mut outcome = run_with_threads(&plan, available_threads());
    outcome.summary.skipped = skipped
        .into_iter()
        .map(|(path, err)| SkippedScenario {
            path: path.display().to_string(),
            error: err.to_string(),
        })
        .collect();
    Ok(outcome)
}

/// The cores this process may use (1 when the platform cannot say).
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run `job` once for every index in `0..n` on up to `threads` scoped
/// workers, each pulling its next index from a shared cursor, and return
/// the results in index order: which worker ran an index, and when,
/// cannot change the output. Every campaign executor runs on this pool.
fn run_pool<T: Send + Sync>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.max(1).min(n.max(1));
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                assert!(
                    slots[i].set(job(i)).is_ok(),
                    "each index fills its slot once"
                );
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot filled"))
        .collect()
}

/// Run the plan on exactly `threads` OS threads. Workers pull runs from
/// a shared cursor and write each report into its plan-order slot, so
/// the outcome is identical for any thread count; one thread is the
/// serial reference.
pub fn run_with_threads(plan: &CampaignPlan, threads: usize) -> CampaignOutcome {
    run_with_threads_observed(plan, threads, &NullObserver)
}

/// [`run_with_threads`] with a progress observer, invoked in completion
/// order as workers finish.
pub fn run_with_threads_observed(
    plan: &CampaignPlan,
    threads: usize,
    observer: &dyn CampaignObserver,
) -> CampaignOutcome {
    let runs = plan.runs();
    let n = runs.len();
    let done = AtomicUsize::new(0);
    let flat = run_pool(n, threads, |i| {
        run_and_observe(plan, &runs[i], &done, n, observer)
    });
    merge(plan, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig::sc2003()
            .with_scale(0.004)
            .with_days(5)
            .with_demo(false)
    }

    #[test]
    fn band_percentiles_are_ordered() {
        let b = PercentileBand::from_samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(b.p5 <= b.p25 && b.p25 <= b.p50 && b.p50 <= b.p75 && b.p75 <= b.p95);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.p50, 3.0);
        assert!((b.mean - 3.0).abs() < 1e-12);
        let empty = PercentileBand::from_samples(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p50, 0.0);
    }

    #[test]
    fn empty_plans_merge_to_empty_summaries() {
        // No seeds: every variant is present but carries zeroed bands.
        let no_seeds = CampaignPlan::single("base", tiny(), vec![]);
        assert!(no_seeds.is_empty());
        assert_eq!(no_seeds.len(), 0);
        let outcome = run_with_threads(&no_seeds, 1);
        assert_eq!(outcome.summary.runs, 0);
        assert_eq!(outcome.summary.variants.len(), 1);
        let v = &outcome.summary.variants[0];
        assert_eq!(v.efficiency.mean, 0.0);
        assert_eq!(v.efficiency.p50, 0.0);
        assert_eq!(v.total_jobs.max, 0.0);
        assert!(outcome.reports[0].is_empty());

        // No variants: nothing to summarise at all.
        let no_variants = CampaignPlan {
            variants: vec![],
            seeds: vec![1, 2],
        };
        assert!(no_variants.is_empty());
        let outcome = run_with_threads(&no_variants, 1);
        assert_eq!(outcome.summary.runs, 0);
        assert!(outcome.summary.variants.is_empty());
        assert!(outcome.reports.is_empty());
    }

    #[test]
    fn single_run_bands_degenerate_to_that_run() {
        let plan = CampaignPlan::single("solo", tiny(), vec![7]);
        let outcome = run_with_threads(&plan, 1);
        assert_eq!(outcome.summary.runs, 1);
        let v = &outcome.summary.variants[0];
        // Every percentile of a one-sample band reads the same value.
        for band in [&v.efficiency, &v.peak_concurrent, &v.total_jobs] {
            assert_eq!(band.p5, band.p95, "one-sample band is flat");
            assert_eq!(band.p50, band.mean);
            assert_eq!(band.min, band.max);
            assert_eq!(band.min, band.p50);
        }
        assert_eq!(
            v.efficiency.p50,
            outcome.reports[0][0].metrics.overall_efficiency
        );
    }

    #[test]
    fn nan_metrics_flow_through_bands_without_panicking() {
        // A poisoned per-run metric (upstream 0/0) must not panic the
        // merge, and — per the cmp_f64_asc NaN-last contract — must not
        // masquerade as the sample minimum even when negatively signed.
        let neg_nan = f64::NAN.copysign(-1.0);
        let band = PercentileBand::from_samples(&[0.9, neg_nan, 0.1, f64::NAN, 0.5]);
        assert_eq!(band.p5, 0.1, "NaN stays out of the low percentiles");
        assert_eq!(band.p50, 0.9);
        assert!(band.p95.is_nan(), "NaN pools at the top rank");
        assert!(band.mean.is_nan(), "the mean honestly reports poison");
        // All-NaN samples: nothing to rank, nothing to panic over.
        let poisoned = PercentileBand::from_samples(&[f64::NAN, neg_nan]);
        assert!(poisoned.p50.is_nan());
        assert!(poisoned.mean.is_nan());
    }

    #[test]
    fn plan_enumerates_variants_times_seeds() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2, 3])
            .with_variant("srm", tiny().with_srm(true));
        assert_eq!(plan.len(), 6);
        let runs = plan.runs();
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[3].0, 1);
        assert_eq!(runs[4].1, 2);
    }

    /// Records every progress callback for the observer tests.
    struct RecordingObserver(std::sync::Mutex<Vec<(usize, String, u64)>>);

    impl CampaignObserver for RecordingObserver {
        fn run_finished(&self, p: &RunProgress<'_>) {
            self.0
                .lock()
                .unwrap()
                .push((p.completed, p.variant.to_string(), p.seed));
        }
    }

    #[test]
    fn observer_sees_every_run_with_monotonic_completion() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2])
            .with_variant("srm", tiny().with_srm(true));
        let observer = RecordingObserver(std::sync::Mutex::new(Vec::new()));
        let outcome = run_with_threads_observed(&plan, 3, &observer);
        let calls = observer.0.into_inner().unwrap();
        assert_eq!(calls.len(), plan.len());
        // Completion counts arrive in order 1..=n no matter which worker
        // finished which run.
        let counts: Vec<usize> = calls.iter().map(|(c, _, _)| *c).collect();
        assert_eq!(counts, (1..=plan.len()).collect::<Vec<_>>());
        // Every (variant, seed) pair is reported exactly once.
        let mut pairs: Vec<(String, u64)> = calls.iter().map(|(_, v, s)| (v.clone(), *s)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), plan.len());
        assert_eq!(outcome.summary.runs, plan.len());
    }

    #[test]
    fn observed_outcome_is_thread_count_independent() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2, 3]);
        let observer = RecordingObserver(std::sync::Mutex::new(Vec::new()));
        let one = run_with_threads_observed(&plan, 1, &observer);
        let four = run_with_threads_observed(&plan, 4, &observer);
        let eff = |o: &CampaignOutcome| -> Vec<f64> {
            o.reports[0]
                .iter()
                .map(|r| r.metrics.overall_efficiency)
                .collect()
        };
        assert_eq!(eff(&one), eff(&four));
        assert_eq!(
            one.summary.variants[0].efficiency.p50,
            four.summary.variants[0].efficiency.p50
        );
    }

    #[test]
    fn profiled_campaigns_merge_cost_bands() {
        let plan = CampaignPlan::single("profiled", tiny().with_profile(true), vec![1, 2]);
        let outcome = run_with_threads(&plan, 1);
        let merged = outcome.profiles[0].as_ref().expect("merged profile");
        assert!(merged.stats().iter().any(|s| s.events > 0));
        let bands = &outcome.summary.variants[0].cost_bands;
        assert!(!bands.is_empty(), "profiled variant has cost bands");
        // Ranked most expensive first by mean ns/event.
        for pair in bands.windows(2) {
            assert!(pair[0].ns_per_event.mean >= pair[1].ns_per_event.mean);
        }
        for band in bands {
            assert!(band.events > 0);
            assert!(band.ns_per_event.min <= band.ns_per_event.max);
        }
        // An unprofiled plan carries no profile and no bands.
        let plain = run_with_threads(&CampaignPlan::single("plain", tiny(), vec![1]), 1);
        assert!(plain.profiles[0].is_none());
        assert!(plain.summary.variants[0].cost_bands.is_empty());
    }

    #[test]
    fn variant_bands_reflect_their_configs() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2])
            .with_variant("srm", tiny().with_srm(true));
        let outcome = run_with_threads(&plan, 2);
        assert_eq!(outcome.summary.variants.len(), 2);
        assert_eq!(outcome.summary.runs, 4);
        for v in &outcome.summary.variants {
            assert!(v.efficiency.mean > 0.0 && v.efficiency.mean <= 1.0);
            assert!(v.total_jobs.min > 0.0);
        }
    }
}
