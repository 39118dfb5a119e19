//! The U.S. CMS MOP production pipeline (§4.2, §6.2).
//!
//! Reads production requests from a control-database-style list, converts
//! them to gen→sim→digi DAGs with MCRunJob/MOP, and compares the two
//! simulator generations (GEANT3 CMSIM vs GEANT4 OSCAR) — showing why
//! "not all sites have been able to accommodate" the >30-hour OSCAR jobs.
//!
//! ```sh
//! cargo run --release --example cms_mop_production
//! ```

use grid3_sim::simkit::ids::UserId;
use grid3_sim::simkit::time::SimDuration;
use grid3_sim::workflow::mop::{CmsSimulator, CmsStep, McRunJob, ProductionRequest};

fn main() {
    // A slice of the DC04 preparation: 100k OSCAR + 50k CMSIM events, as
    // control-database rows of 25k events and 250 events per job chain.
    let requests: Vec<ProductionRequest> = [
        (CmsSimulator::Oscar, "oscar", 4),
        (CmsSimulator::Cmsim, "cmsim", 2),
    ]
    .into_iter()
    .flat_map(|(simulator, label, parts)| {
        (0..parts).map(move |part| ProductionRequest {
            dataset: format!("dc04_{label}_{part:03}"),
            events: 25_000,
            events_per_job: 250,
            simulator,
            operator: UserId(7),
        })
    })
    .collect();
    println!(
        "{} production requests covering {} events ({} job chains)",
        requests.len(),
        requests.iter().map(|r| r.events).sum::<u64>(),
        requests.iter().map(|r| r.chains()).sum::<u64>(),
    );

    let mut mc = McRunJob::new();
    let mut per_sim: [(u64, SimDuration, SimDuration); 2] = [
        (0, SimDuration::ZERO, SimDuration::ZERO),
        (0, SimDuration::ZERO, SimDuration::ZERO),
    ];
    let mut over_30h = 0u64;
    let mut total_sim_jobs = 0u64;

    for req in &requests {
        let dag = mc.write_dag(req);
        for (_, task) in dag.iter() {
            if task.step != CmsStep::Simulate {
                continue;
            }
            total_sim_jobs += 1;
            let idx = match req.simulator {
                CmsSimulator::Cmsim => 0,
                CmsSimulator::Oscar => 1,
            };
            per_sim[idx].0 += 1;
            per_sim[idx].1 += task.spec.reference_runtime;
            if task.spec.reference_runtime > per_sim[idx].2 {
                per_sim[idx].2 = task.spec.reference_runtime;
            }
            if task.spec.reference_runtime > SimDuration::from_hours(30) {
                over_30h += 1;
            }
        }
    }

    for (name, (jobs, total, max)) in [
        ("CMSIM (GEANT3)", per_sim[0]),
        ("OSCAR (GEANT4)", per_sim[1]),
    ] {
        if jobs == 0 {
            continue;
        }
        println!(
            "{name:<16} {jobs:>6} simulation jobs, mean {:>7.1} h, max {:>7.1} h",
            (total.as_hours_f64()) / jobs as f64,
            max.as_hours_f64()
        );
    }
    println!(
        "{over_30h}/{total_sim_jobs} simulation jobs exceed 30 h — these only fit the \
         handful of sites granting long walltimes (§6.2)."
    );

    // Which Grid3 sites could host the long jobs? Check against the
    // production topology's published walltime limits.
    let topo = grid3_sim::core::grid3_topology();
    let long_capable: Vec<&str> = topo
        .specs
        .iter()
        .filter(|s| s.offline_after_day.is_none())
        .filter(|s| s.max_walltime_hr >= 60)
        .map(|s| s.name.as_str())
        .collect();
    println!(
        "{} of {} production sites grant ≥60 h walltime: {}",
        long_capable.len(),
        topo.specs
            .iter()
            .filter(|s| s.offline_after_day.is_none())
            .count(),
        long_capable.join(", ")
    );
}
