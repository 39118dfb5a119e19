//! Worker nodes: the batch slots behind a site's gatekeeper.
//!
//! §4.5 fixes the reference processor ("15 seconds per event on a 2 GHz
//! machine"); heterogeneous sites are modelled by a per-node speed factor
//! relative to that reference. §6.4's first site-selection criterion —
//! "some applications needed outbound internet connectivity to databases
//! located outside of privately addressed production nodes" — is captured
//! by the `outbound_connectivity` flag.

use grid3_simkit::ids::NodeId;
use grid3_simkit::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Operational state of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Accepting and running jobs.
    Up,
    /// Down (maintenance, rollover, crash); running jobs are lost.
    Down,
}

/// One worker node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerNode {
    /// Identity within the site.
    pub id: NodeId,
    /// Number of CPUs (batch slots) on the node.
    pub cpus: u32,
    /// Speed relative to the 2 GHz reference CPU (1.0 = reference).
    pub speed_factor: f64,
    /// Whether processes on this node can open outbound connections.
    pub outbound_connectivity: bool,
    /// Current state.
    pub state: NodeState,
}

impl WorkerNode {
    /// A node with `cpus` slots at the given speed.
    pub fn new(id: NodeId, cpus: u32, speed_factor: f64, outbound: bool) -> Self {
        assert!(speed_factor > 0.0, "speed factor must be positive");
        WorkerNode {
            id,
            cpus,
            speed_factor,
            outbound_connectivity: outbound,
            state: NodeState::Up,
        }
    }

    /// Wall-clock time to execute work that needs `reference_runtime` on
    /// the 2 GHz reference CPU.
    pub fn wall_time_for(&self, reference_runtime: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(reference_runtime.as_secs_f64() / self.speed_factor)
    }

    /// Whether the node can currently accept work.
    pub(crate) fn is_up(&self) -> bool {
        self.state == NodeState::Up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_time_scales_with_speed() {
        let slow = WorkerNode::new(NodeId(0), 2, 0.5, true);
        let fast = WorkerNode::new(NodeId(1), 2, 2.0, true);
        let work = SimDuration::from_hours(10);
        assert_eq!(slow.wall_time_for(work), SimDuration::from_hours(20));
        assert_eq!(fast.wall_time_for(work), SimDuration::from_hours(5));
    }

    #[test]
    fn reference_node_is_identity() {
        let n = WorkerNode::new(NodeId(0), 1, 1.0, false);
        let work = SimDuration::from_secs(15); // one BTeV event, §4.5
        assert_eq!(n.wall_time_for(work), work);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn zero_speed_rejected() {
        WorkerNode::new(NodeId(0), 1, 0.0, false);
    }

    #[test]
    fn state_transitions() {
        let mut n = WorkerNode::new(NodeId(0), 4, 1.0, true);
        assert!(n.is_up());
        n.state = NodeState::Down;
        assert!(!n.is_up());
    }
}
