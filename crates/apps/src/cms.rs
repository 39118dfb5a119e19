//! U.S. CMS on Grid3: MOP production for the 2004 data challenge (§4.2,
//! §6.2).
//!
//! "Fifty million events with minimum bias pile-up at a beam luminosity of
//! 2×10³³ were needed in the final sample" (§4.2); since SC2003, "U.S. CMS
//! has used Grid3 resources on 11 sites to simulate more than 14 million
//! GEANT4 full detector simulation events" (§6.2), running both the
//! GEANT3 CMSIM and GEANT4 OSCAR applications.

use grid3_simkit::ids::UserId;
use grid3_workflow::mop::{CmsSimulator, ProductionRequest};

/// Standard events per production job chain.
pub(crate) const EVENTS_PER_JOB: u64 = 250;

/// Build the US-CMS production request series: `oscar_events` of GEANT4
/// OSCAR simulation plus `cmsim_events` of GEANT3 CMSIM, split into
/// per-dataset requests of at most `events_per_request` events.
pub fn dc04_requests(
    oscar_events: u64,
    cmsim_events: u64,
    events_per_request: u64,
    operator: UserId,
) -> Vec<ProductionRequest> {
    assert!(events_per_request > 0);
    let mut requests = Vec::new();
    let mut emit = |total: u64, simulator: CmsSimulator, label: &str| {
        let mut remaining = total;
        let mut part = 0;
        while remaining > 0 {
            let chunk = remaining.min(events_per_request);
            requests.push(ProductionRequest {
                dataset: format!("dc04_{label}_{part:03}"),
                events: chunk,
                events_per_job: EVENTS_PER_JOB,
                simulator,
                operator,
            });
            remaining -= chunk;
            part += 1;
        }
    };
    emit(oscar_events, CmsSimulator::Oscar, "oscar");
    emit(cmsim_events, CmsSimulator::Cmsim, "cmsim");
    requests
}

/// Total job chains a request series expands to.
pub fn total_chains(requests: &[ProductionRequest]) -> u64 {
    requests.iter().map(|r| r.chains()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_workflow::mop::McRunJob;

    #[test]
    fn requests_partition_the_event_total() {
        let reqs = dc04_requests(1_000_000, 500_000, 250_000, UserId(0));
        assert_eq!(reqs.len(), 4 + 2);
        let oscar: u64 = reqs
            .iter()
            .filter(|r| r.simulator == CmsSimulator::Oscar)
            .map(|r| r.events)
            .sum();
        let cmsim: u64 = reqs
            .iter()
            .filter(|r| r.simulator == CmsSimulator::Cmsim)
            .map(|r| r.events)
            .sum();
        assert_eq!(oscar, 1_000_000);
        assert_eq!(cmsim, 500_000);
        // Dataset names are unique.
        let mut names: Vec<&str> = reqs.iter().map(|r| r.dataset.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reqs.len());
    }

    #[test]
    fn uneven_totals_produce_short_tail_request() {
        let reqs = dc04_requests(600_000, 0, 250_000, UserId(0));
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[2].events, 100_000);
    }

    #[test]
    fn paper_scale_arithmetic() {
        // §6.2: >14 M GEANT4 events simulated on Grid3. At 250 events per
        // job that is 56 000 chains of 3 jobs each.
        let reqs = dc04_requests(14_000_000, 0, 1_000_000, UserId(0));
        assert_eq!(total_chains(&reqs), 56_000);
    }

    #[test]
    fn requests_expand_into_mop_dags() {
        let reqs = dc04_requests(500, 500, 500, UserId(3));
        let mut mc = McRunJob::new();
        let total_nodes: usize = reqs.iter().map(|r| mc.write_dag(r).len()).sum();
        assert_eq!(total_nodes, 2 * 2 * 3); // 2 requests × 2 chains × 3 steps
    }
}
