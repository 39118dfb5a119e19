//! # grid3-bench
//!
//! The paper-figure regeneration crate: the `figures` binary rebuilds
//! every table and figure of the Grid2003 paper at full scale (ASCII and
//! JSON output), and this library holds the §6.4 gatekeeper load-law
//! sweep it prints. Simulator speed is measured by `perfbench/`, not here.

#![warn(missing_docs)]

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
}
