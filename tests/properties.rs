//! Cross-crate property-based tests: whole-simulation invariants under
//! randomized configuration.

use grid3_sim::core::{Grid3Engine, ScenarioConfig};
use proptest::prelude::*;

fn tiny(seed: u64, days: u64, scale_milli: u64, srm: bool) -> ScenarioConfig {
    ScenarioConfig::sc2003()
        .with_seed(seed)
        .with_days(days)
        .with_scale(scale_milli as f64 / 1000.0)
        .with_demo(false)
        .with_srm(srm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: records + in-flight jobs never exceed submissions,
    /// and the gauge level equals the running-job count, for any seed,
    /// horizon, scale and SRM setting.
    #[test]
    fn simulation_invariants(seed in 0u64..1_000, days in 5u64..20,
                             scale in 2u64..8, srm in any::<bool>()) {
        let mut sim = Grid3Engine::new(tiny(seed, days, scale, srm));
        sim.run();
        let running: usize = sim.sites().iter().map(|s| s.running_count()).sum();
        prop_assert_eq!(sim.job_gauge().level(), running as f64);
        // Efficiency is a probability.
        let eff = sim.acdc().overall_efficiency();
        prop_assert!((0.0..=1.0).contains(&eff));
        // Storage accounting holds at every site.
        for site in sim.sites() {
            prop_assert!(site.storage.used() + site.storage.free() <= site.storage.capacity());
        }
        // Monotone ids: total records bounded by issued job ids.
        prop_assert!(sim.acdc().total_records() + sim.active_jobs() as u64 >= sim.acdc().total_records());
    }

    /// Determinism: identical configs give identical reports.
    #[test]
    fn determinism_across_configs(seed in 0u64..200, scale in 2u64..6) {
        let a = tiny(seed, 8, scale, false).run();
        let b = tiny(seed, 8, scale, false).run();
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    /// The figure-5 cumulative series is monotone for any configuration
    /// that includes the transfer demo.
    #[test]
    fn transfer_series_monotone(seed in 0u64..100) {
        let cfg = ScenarioConfig::sc2003()
            .with_seed(seed)
            .with_days(4)
            .with_scale(0.002);
        let report = cfg.run();
        for w in report.fig5_cumulative_tb.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
        prop_assert!(report.metrics.total_data.as_tb_f64() > 0.0);
    }
}
