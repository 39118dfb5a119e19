//! Cross-crate workflow integration: the CMS MOP pipeline under DAGMan
//! (§4.2).

use grid3_sim::simkit::ids::UserId;
use grid3_sim::site::vo::{UserClass, Vo};
use grid3_sim::workflow::dagman::{DagManager, DagState};
use grid3_sim::workflow::mop::{CmsSimulator, McRunJob, ProductionRequest};

#[test]
fn mop_dag_respects_chain_structure_under_dagman() {
    let mut mc = McRunJob::new();
    let dag = mc.write_dag(&ProductionRequest {
        dataset: "dc04_test".into(),
        events: 1_000,
        events_per_job: 250,
        simulator: CmsSimulator::Oscar,
        operator: UserId(0),
    });
    // 4 chains × 3 steps, throttled to 2 concurrent submissions.
    let mut mgr = DagManager::new(dag, 0, 2);
    let mut rounds = 0;
    loop {
        let ready = mgr.ready_nodes();
        if ready.is_empty() {
            break;
        }
        rounds += 1;
        assert!(ready.len() <= 2, "throttle holds");
        for n in ready {
            mgr.mark_submitted(n);
            mgr.mark_done(n);
        }
    }
    assert_eq!(mgr.dag_state(), DagState::Completed);
    assert_eq!(mgr.done_count(), 12);
    assert!(rounds >= 6, "throttling forces multiple rounds");
}

#[test]
fn vo_enum_is_consistent_across_crates() {
    // Sanity: the Vo used by workflow planning equals the site crate's.
    let vo: Vo = UserClass::Uscms.vo();
    assert_eq!(vo.name(), "USCMS");
}
