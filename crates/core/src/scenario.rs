//! Canned experiment configurations.
//!
//! Each paper artifact has a natural observation window:
//!
//! * **SC2003** (Figures 2, 3, 5): 30 days from 2003-10-25.
//! * **CMS production** (Figure 4): 150 days from November 2003 — we run
//!   the same epoch-rooted clock for 157 days so the window covers it.
//! * **Seven months** (Table 1, Figure 6, §7 metrics): 2003-10-25 →
//!   2004-04-23, 181 days.
//!
//! `scale` multiplies every workload's monthly job quota: 1.0 reproduces
//! the full 291 k-job record sample (run it in release builds — the
//! `figures` binary does); small scales keep unit tests fast.

use crate::apps::workloads::{grid3_workloads, WorkloadSpec};
use crate::engine::Grid3Engine;
use crate::report::Grid3Report;
use crate::resilience::ResilienceConfig;
use crate::workflow::mop::CmsSimulator;
use grid3_pacman::install::InstallPipeline;
use grid3_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A DAG-shaped production campaign run *inside* the simulation: MCRunJob
/// writes the gen→sim→digi chains (§4.2) and a DAGMan instance releases
/// each step only when its parent completed, retrying transient failures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Dataset name (for reporting).
    pub dataset: String,
    /// Total events requested.
    pub events: u64,
    /// Events per job chain.
    pub events_per_job: u64,
    /// Simulator generation (CMSIM or OSCAR).
    pub simulator: CmsSimulator,
    /// Day (from the epoch) the campaign is submitted.
    pub submit_day: u64,
    /// DAGMan retries per node.
    pub retries: u32,
    /// DAGMan submission throttle (max simultaneously submitted nodes).
    pub throttle: usize,
    /// Rescue-DAG resubmissions allowed after a node exhausts its
    /// retries: each one re-arms every failed node with a fresh retry
    /// budget, as resubmitting the written rescue DAG did (§4.2). Zero
    /// disables the mechanism.
    pub rescue_dags: u32,
}

/// Everything a run needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; a run is a pure function of `(config, seed)`.
    pub seed: u64,
    /// Horizon in days from the epoch (2003-10-25).
    pub days: u64,
    /// Workload scale factor in `(0, 1]`.
    pub scale: f64,
    /// Run the Entrada GridFTP demonstrator?
    pub include_demo: bool,
    /// Sites in the demo transfer matrix.
    pub demo_sites: usize,
    /// The demo's daily volume goal, TB (§6.3's goal was 2).
    pub demo_daily_target_tb: u64,
    /// Monitoring sweep cadence.
    pub monitor_interval: SimDuration,
    /// Site install/certification pipeline.
    pub pipeline: InstallPipeline,
    /// §8 ablation: SRM-style storage reservations.
    pub srm_reservations: bool,
    /// DAG-shaped production campaigns to run inside the simulation
    /// (empty by default; the flat Table 1 workloads model the bulk).
    pub campaigns: Vec<CampaignSpec>,
    /// The adaptive fault-handling layer (`None` by default: baseline
    /// scenarios reproduce the unoperated failure behaviour bit-for-bit).
    /// When enabled, sites also suffer ongoing configuration drift at the
    /// layer's `churn_mtbf`, so there is something for the feedback loop
    /// to catch and repair.
    pub resilience: Option<ResilienceConfig>,
    /// Correlated multi-site outage storms (§6.2's "all jobs submitted to
    /// a site would die" episodes, hitting several sites at once).
    pub storms: Vec<StormSpec>,
    /// Topology replication factor (1 = the historical 27-site catalog).
    /// Values above 1 append full `~k`-suffixed copies of the catalog —
    /// the [`ScenarioConfig::scale_out`] stress grid.
    pub site_replicas: usize,
    /// Deterministic fault-injection plan (`None` by default: baseline
    /// scenarios are bit-identical to the pre-chaos engine). The plan is
    /// plain data — replaying the same plan under the same seed
    /// reproduces the run bit-for-bit.
    pub chaos: Option<crate::chaos::FaultPlan>,
    /// Run the grid-wide invariant auditor alongside the simulation.
    /// Observation-only: it draws no randomness, schedules no events and
    /// adds nothing to the report, so enabling it cannot change a run's
    /// golden hash.
    pub audit: bool,
    /// Run the cost-attribution profiler alongside the simulation:
    /// per-(subsystem × event-type) wall time, fan-out, and (with the
    /// simkit `count-allocs` feature) allocation accounting. Like the
    /// auditor it is observation-only — wall clocks are read but nothing
    /// feeds back into the run, so the golden hashes cannot move. The
    /// profile lives beside the report ([`ScenarioConfig::run_full`]),
    /// never inside it.
    pub profile: bool,
    /// Record the structured ops journal: the JSON-lines stream of
    /// operational events (faults, tickets, blacklists, repairs, rescue
    /// DAGs, watchdog reaps) behind `figures -- ops`. Observation-only
    /// and kept beside the report, exactly like the profile.
    pub ops_journal: bool,
    /// The multi-grid federation layer (`None` = the classic single
    /// Grid3, which runs bit-identically to the pre-federation engine;
    /// so does an explicit one-grid `Vdt` federation).
    #[serde(default)]
    pub federation: Option<crate::federation::Federation>,
    /// Override the synthetic workload set (`None` = the built-in seven
    /// Table 1 classes). `Some(vec![])` disables synthetic workloads
    /// entirely — pure trace-replay runs use that.
    #[serde(default)]
    pub workloads: Option<Vec<WorkloadSpec>>,
    /// A per-job submission trace replayed verbatim alongside (or instead
    /// of) the synthetic workloads. Trace jobs are fully specified, draw
    /// no randomness, and are scheduled exactly at their logged instants.
    #[serde(default)]
    pub trace: Option<crate::dsl::JobTrace>,
    /// Horizon override in whole hours. `None` (the default) keeps the
    /// day-granular `days` horizon; `Some(h)` trumps it — the scenario
    /// smoke harness uses `Some(1)` to run one simulated hour of any
    /// scenario file.
    #[serde(default)]
    pub horizon_hours: Option<u64>,
}

impl Default for ScenarioConfig {
    /// The DSL baseline: a minimal scenario document (`{}`) loads to
    /// exactly this value. Identical to [`ScenarioConfig::sc2003`].
    fn default() -> Self {
        Self::sc2003()
    }
}

/// A correlated multi-site outage: every listed site's grid services
/// crash at the same instant and stay down for the outage window. This
/// models shared-cause failure bursts (a bad middleware push, a campus
/// power event, a backbone cut) that the per-site Poisson schedules
/// cannot produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormSpec {
    /// Day (from the epoch) the storm hits.
    pub day: u64,
    /// Hour of that day.
    pub hour: u64,
    /// Outage length, hours.
    pub outage_hours: u64,
    /// Raw site ids hit by the storm (out-of-range ids are ignored).
    pub sites: Vec<u32>,
}

impl ScenarioConfig {
    /// The 30-day SC2003 window (Figures 2, 3 and 5).
    pub fn sc2003() -> Self {
        ScenarioConfig {
            seed: 2003,
            days: 30,
            scale: 1.0,
            include_demo: true,
            demo_sites: 10,
            demo_daily_target_tb: 3,
            monitor_interval: SimDuration::from_hours(2),
            pipeline: InstallPipeline::grid3_default(),
            srm_reservations: false,
            campaigns: Vec::new(),
            resilience: None,
            storms: Vec::new(),
            site_replicas: 1,
            chaos: None,
            audit: false,
            profile: false,
            ops_journal: false,
            federation: None,
            workloads: None,
            trace: None,
            horizon_hours: None,
        }
    }

    /// The SC2003 window run as a two-grid federation: the CMS-leaning
    /// sites (FNAL and the CMS Tier-2s) form an EDG/LCG-flavoured grid
    /// admitting only US-CMS and BTeV, while everything else stays on
    /// the VDT grid. SDSS data archives at FNAL — inside the EDG grid,
    /// which refuses SDSS jobs — so every SDSS stage-in is forced
    /// across the grid boundary (the paper's Figure-5 bulk-movement
    /// challenge, federated), and CMS work spills onto the VDT grid
    /// when the EDG grid saturates or its directory goes stale.
    pub fn sc2003_federated() -> Self {
        use crate::federation::{Federation, GridSpec};
        use grid3_middleware::backend::BackendKind;
        use grid3_site::vo::Vo;
        Self::sc2003().with_federation(Federation::new(vec![
            GridSpec {
                name: "grid3".to_string(),
                backend: BackendKind::Vdt,
                sites: Vec::new(),
                admits: None,
            },
            GridSpec {
                name: "edg".to_string(),
                backend: BackendKind::EdgLcg,
                sites: vec![
                    "FNAL_CMS_Tier1".to_string(),
                    "Caltech_Tier2".to_string(),
                    "UCSD_Tier2".to_string(),
                    "UFlorida_Tier2".to_string(),
                    "KNU_KISTI".to_string(),
                    "Rice_CMS".to_string(),
                ],
                admits: Some(vec![Vo::Uscms, Vo::Btev]),
            },
        ]))
    }

    /// The SC2003 window under a sampled chaos plan with the auditor on:
    /// every §6 failure class fires at its default rate over the month,
    /// and the invariant auditor checks conservation as the grid absorbs
    /// them. The plan is sampled from the scenario seed, so the whole
    /// run stays a pure function of `(config, seed)`.
    pub fn sc2003_chaos() -> Self {
        let base = Self::sc2003();
        let plan = crate::chaos::FaultPlan::sample(
            &crate::chaos::ChaosRates::grid3_default(),
            base.seed,
            crate::topology::grid3_topology().len(),
            base.horizon().since(SimTime::EPOCH),
        );
        base.with_chaos(plan).with_audit(true)
    }

    /// The hot-path stress grid: the SC2003 month with the site catalog
    /// replicated 10× (≈300 sites, ≈28 k steady CPUs) and 10× the job
    /// arrivals. Workload quotas still honour the `scale` knob, so
    /// benchmarks can trim the run length/volume without losing the
    /// widened topology (`scale_out().with_scale(10.0 * s)` keeps
    /// arrivals at 10× of a scale-`s` baseline).
    pub fn scale_out() -> Self {
        Self::sc2003()
            .with_site_replicas(10)
            .with_scale(10.0)
            .with_demo(false)
    }

    /// The *operated* SC2003 window: the resilience layer on (with its
    /// configuration-drift churn) plus two correlated outage storms — a
    /// mid-demo middleware push gone wrong across four Tier-2 sites, and
    /// a later backbone event hitting three. This is the scenario behind
    /// the §7 m-eff split: ≈70 % overall, >90 % on validated sites.
    pub fn sc2003_operated() -> Self {
        Self::sc2003()
            .with_resilience(ResilienceConfig::grid3_default())
            .with_storm(StormSpec {
                day: 8,
                hour: 14,
                outage_hours: 6,
                sites: vec![3, 7, 11, 19],
            })
            .with_storm(StormSpec {
                day: 19,
                hour: 3,
                outage_hours: 9,
                sites: vec![2, 9, 16],
            })
    }

    /// The 150-day CMS production window (Figure 4), counted from the
    /// epoch so it covers "a 150 day period beginning in November 2003".
    pub fn cms_production() -> Self {
        ScenarioConfig {
            days: 157,
            ..Self::sc2003()
        }
    }

    /// The full seven-month operations window (Table 1, Figure 6, §7).
    pub fn seven_months() -> Self {
        ScenarioConfig {
            days: 181,
            ..Self::sc2003()
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the workload scale. `1.0` is the historical record;
    /// fractions keep tests fast, factors above one stress-test arrival
    /// volume (the scale-out benchmarks).
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Replace the topology replication factor.
    pub(crate) fn with_site_replicas(mut self, replicas: usize) -> Self {
        assert!(replicas >= 1, "site_replicas must be at least 1");
        self.site_replicas = replicas;
        self
    }

    /// Replace the horizon.
    pub fn with_days(mut self, days: u64) -> Self {
        self.days = days;
        self
    }

    /// Enable/disable the GridFTP demo.
    pub fn with_demo(mut self, on: bool) -> Self {
        self.include_demo = on;
        self
    }

    /// Enable the SRM-reservation ablation.
    pub fn with_srm(mut self, on: bool) -> Self {
        self.srm_reservations = on;
        self
    }

    /// Replace the install pipeline (manual vs automated ablation).
    pub fn with_pipeline(mut self, pipeline: InstallPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Add a DAG-shaped production campaign.
    pub fn with_campaign(mut self, campaign: CampaignSpec) -> Self {
        self.campaigns.push(campaign);
        self
    }

    /// Enable the adaptive fault-handling layer.
    pub(crate) fn with_resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Add a correlated multi-site outage storm.
    pub(crate) fn with_storm(mut self, storm: StormSpec) -> Self {
        self.storms.push(storm);
        self
    }

    /// Install a deterministic fault-injection plan.
    pub fn with_chaos(mut self, plan: crate::chaos::FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Enable/disable the invariant auditor.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Enable/disable the cost-attribution profiler.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enable/disable the structured ops journal.
    pub fn with_ops_journal(mut self, on: bool) -> Self {
        self.ops_journal = on;
        self
    }

    /// Install a multi-grid federation layer.
    pub fn with_federation(mut self, fed: crate::federation::Federation) -> Self {
        self.federation = Some(fed);
        self
    }

    /// Override the synthetic workload set (see [`ScenarioConfig::workloads`]).
    pub fn with_workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = Some(workloads);
        self
    }

    /// Install a submission trace to replay.
    pub fn with_trace(mut self, trace: crate::dsl::JobTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Override the horizon at hour granularity.
    pub fn with_horizon_hours(mut self, hours: u64) -> Self {
        self.horizon_hours = Some(hours);
        self
    }

    /// The simulation horizon as an instant. An hour-granular override
    /// trumps the day count.
    pub fn horizon(&self) -> SimTime {
        match self.horizon_hours {
            Some(h) => SimTime::EPOCH + SimDuration::from_hours(h),
            None => SimTime::from_days(self.days),
        }
    }

    /// The scenario's workloads — the override if one is set, else the
    /// Table 1 set — with monthly quotas scaled by `scale` (rounding up,
    /// so tiny scales still submit at least one job for any non-zero
    /// month). Declarative arrival processes scale their intensity.
    pub fn scaled_workloads(&self) -> Vec<WorkloadSpec> {
        let mut workloads = match &self.workloads {
            Some(custom) => custom.clone(),
            None => grid3_workloads(),
        };
        if (self.scale - 1.0).abs() > f64::EPSILON {
            for w in &mut workloads {
                for q in &mut w.monthly_jobs {
                    if *q > 0 {
                        *q = ((*q as f64 * self.scale).ceil() as u64).max(1);
                    }
                }
                if let Some(a) = &w.arrivals {
                    w.arrivals = Some(a.scaled(self.scale));
                }
            }
        }
        workloads
    }

    /// Build and run the simulation, extracting the full report.
    pub fn run(&self) -> Grid3Report {
        let mut sim = Grid3Engine::new(self.clone());
        sim.run();
        Grid3Report::extract(&sim)
    }

    /// Build and run the simulation, returning the report *and* the
    /// observation-only artifacts that live beside it: the cost profile
    /// (if `profile` is on), the ops journal (if `ops_journal` is on),
    /// and the processed-event count. The report is byte-identical to
    /// what [`ScenarioConfig::run`] extracts — the artifacts never touch
    /// its JSON, so golden hashes hold either way.
    pub fn run_full(&self) -> RunArtifacts {
        let mut sim = Grid3Engine::new(self.clone());
        sim.run();
        let report = Grid3Report::extract(&sim);
        RunArtifacts {
            events_processed: sim.events_processed(),
            ops: sim.ops_journal().clone(),
            profile: sim.take_profiler(),
            report,
        }
    }
}

/// Everything one run produces: the (golden-hashed) report plus the
/// observation-only side artifacts. See [`ScenarioConfig::run_full`].
#[derive(Debug)]
pub struct RunArtifacts {
    /// The extracted report — byte-identical to [`ScenarioConfig::run`].
    pub report: Grid3Report,
    /// Timed queue pops processed by the engine.
    pub events_processed: u64,
    /// The accumulated cost profile (`None` unless `profile` was on).
    pub profile: Option<grid3_simkit::profiler::CostProfiler>,
    /// The ops journal handle (disabled and empty unless `ops_journal`
    /// was on).
    pub ops: crate::ops::OpsJournal,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_site::vo::UserClass;

    #[test]
    fn canned_windows_match_paper() {
        assert_eq!(ScenarioConfig::sc2003().days, 30);
        assert_eq!(ScenarioConfig::cms_production().days, 157);
        assert_eq!(ScenarioConfig::seven_months().days, 181);
        // Seven months: epoch Oct 25 + 181 days = Apr 23, 2004 (Table 1's
        // closing date).
        let end = ScenarioConfig::seven_months().horizon().calendar_date();
        assert_eq!((end.year, end.month, end.day), (2004, 4, 23));
    }

    #[test]
    fn scaling_preserves_shape() {
        let cfg = ScenarioConfig::sc2003().with_scale(0.1);
        let scaled = cfg.scaled_workloads();
        let full = grid3_workloads();
        for (s, f) in scaled.iter().zip(&full) {
            assert_eq!(s.class, f.class);
            assert_eq!(s.peak_month().0, f.peak_month().0, "{}", s.class);
            // Quota ratio ≈ scale; ceiling effects dominate only for tiny
            // classes (LIGO's 3 jobs).
            let ratio = s.total_jobs() as f64 / f.total_jobs() as f64;
            assert!(
                (0.1..0.2).contains(&ratio) || f.total_jobs() < 100,
                "{}: ratio {ratio}",
                s.class
            );
        }
    }

    #[test]
    fn tiny_scale_keeps_nonzero_months() {
        let cfg = ScenarioConfig::sc2003().with_scale(0.001);
        let scaled = cfg.scaled_workloads();
        let ligo = scaled.iter().find(|w| w.class == UserClass::Ligo).unwrap();
        assert_eq!(
            ligo.total_jobs(),
            1,
            "non-zero months keep at least one job at any scale"
        );
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        let _ = ScenarioConfig::sc2003().with_scale(0.0);
    }

    #[test]
    fn scale_out_widens_topology_and_arrivals() {
        let cfg = ScenarioConfig::scale_out();
        assert_eq!(cfg.site_replicas, 10);
        assert_eq!(cfg.scale, 10.0);
        assert!(!cfg.include_demo, "demo stays off in the stress grid");
        // Over-unity scales multiply quotas (ceil keeps them integral).
        let full: u64 = grid3_workloads().iter().map(|w| w.total_jobs()).sum();
        let scaled: u64 = cfg.scaled_workloads().iter().map(|w| w.total_jobs()).sum();
        assert_eq!(scaled, 10 * full);
        // A trimmed scale-out run goes end to end on the widened grid.
        let report = cfg.with_scale(0.02).with_days(3).run();
        let jobs: u64 = report.table1.iter().map(|c| c.jobs).sum();
        assert!(jobs > 0, "scale-out run completed work");
    }

    #[test]
    fn config_serde_round_trips() {
        let cfg = ScenarioConfig::seven_months()
            .with_scale(0.5)
            .with_srm(true);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.days, cfg.days);
        assert_eq!(back.scale, cfg.scale);
        assert_eq!(back.srm_reservations, cfg.srm_reservations);
        // A deserialized config runs identically.
        let cfg_small = ScenarioConfig::sc2003()
            .with_scale(0.003)
            .with_days(4)
            .with_demo(false);
        let back: ScenarioConfig =
            serde_json::from_str(&serde_json::to_string(&cfg_small).unwrap()).unwrap();
        assert_eq!(back.run().to_json(), cfg_small.run().to_json());
    }

    #[test]
    fn operated_scenario_shape() {
        let cfg = ScenarioConfig::sc2003_operated();
        // Same month as the baseline, plus the operations overlay.
        assert_eq!(cfg.days, ScenarioConfig::sc2003().days);
        let rcfg = cfg.resilience.as_ref().expect("resilience enabled");
        assert!(rcfg.retry.max_retries > 0);
        assert_eq!(cfg.storms.len(), 2, "two correlated multi-site outages");
        for storm in &cfg.storms {
            assert!(storm.day < cfg.days, "storm inside the scenario window");
            assert!(storm.sites.len() >= 3, "storms are multi-site");
            assert!(storm.outage_hours > 0);
        }
        // The baseline keeps the layer off entirely.
        assert!(ScenarioConfig::sc2003().resilience.is_none());
        assert!(ScenarioConfig::sc2003().storms.is_empty());
    }

    #[test]
    fn operated_config_serde_round_trips() {
        let cfg = ScenarioConfig::sc2003_operated().with_scale(0.25);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        let rcfg = cfg.resilience.as_ref().unwrap();
        let bcfg = back.resilience.as_ref().unwrap();
        assert_eq!(bcfg.window, rcfg.window);
        assert_eq!(bcfg.storm_threshold, rcfg.storm_threshold);
        assert_eq!(bcfg.retry.max_retries, rcfg.retry.max_retries);
        assert_eq!(bcfg.churn_mtbf, rcfg.churn_mtbf);
        assert_eq!(back.storms.len(), cfg.storms.len());
        assert_eq!(back.storms[0].sites, cfg.storms[0].sites);
    }
}
