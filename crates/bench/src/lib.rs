//! # grid3-bench
//!
//! The benchmark/regeneration harness: one entry point per table and
//! figure of the Grid2003 paper, shared between the `figures` binary
//! (full-scale regeneration, ASCII + JSON output) and the Criterion
//! benches (performance measurement of the simulator itself).

#![warn(missing_docs)]

use grid3_core::scenario::ScenarioConfig;

/// Scenario used for Figures 2, 3 and 5 (the 30-day SC2003 window).
pub fn sc2003_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::sc2003().with_seed(seed)
}

/// Scenario used for Figure 4 (the 150-day CMS production window).
pub fn cms_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::cms_production().with_seed(seed)
}

/// Scenario used for Table 1, Figure 6 and the §7 metrics (seven months).
pub fn seven_months_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::seven_months().with_seed(seed)
}

/// The §6.4 gatekeeper load-law sweep (the `gkload` experiment): returns
/// `(managed_jobs, staging_factor, load)` triples over the paper's
/// operating range.
pub fn gatekeeper_load_sweep() -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    for jobs in [100usize, 250, 500, 750, 1_000, 1_500, 2_000] {
        for factor in [1.0, 2.0, 3.0, 4.0] {
            out.push((
                jobs,
                factor,
                grid3_middleware::gram::sustained_load(jobs, factor),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_hits_the_paper_calibration_point() {
        let sweep = gatekeeper_load_sweep();
        let point = sweep
            .iter()
            .find(|(j, f, _)| *j == 1_000 && *f == 1.0)
            .unwrap();
        assert!((point.2 - 225.0).abs() < 1e-9);
        assert_eq!(sweep.len(), 28);
    }

    #[test]
    fn configs_have_paper_windows() {
        assert_eq!(sc2003_config(1).days, 30);
        assert_eq!(cms_config(1).days, 157);
        assert_eq!(seven_months_config(1).days, 181);
    }
}
