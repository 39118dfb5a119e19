//! The Condor-G/DAGMan execution model.
//!
//! §4.2: CMS production jobs are "converted … to DAGs suitable for
//! submission to Condor-G/DAGMan". DAGMan's contract: release a node only
//! when all its parents have completed, retry failed nodes up to a
//! per-node limit, throttle the number of simultaneously submitted nodes,
//! and declare the DAG failed only when a node exhausts its retries.

use super::dag::{Dag, NodeId};
use serde::{Deserialize, Serialize};

/// Lifecycle of one DAG node under DAGMan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum NodeState {
    /// Parents not yet complete.
    Waiting,
    /// Eligible for submission.
    Ready,
    /// Submitted to the grid (queued or running remotely).
    Active,
    /// Completed successfully.
    Done,
    /// Failed permanently (retries exhausted).
    Failed,
}

/// State of the whole DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagState {
    /// Work remains and nothing failed permanently.
    Running,
    /// All nodes done.
    Completed,
    /// Some node failed permanently.
    Failed,
}

/// What to do after a node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum FailureAction {
    /// Resubmit (the node is Ready again).
    Retry {
        /// Retries remaining after this one.
        remaining: u32,
    },
    /// The node failed permanently; the DAG is failed.
    Permanent,
}

/// DAGMan over a DAG with payloads `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DagManager<T> {
    dag: Dag<T>,
    states: Vec<NodeState>,
    retries_left: Vec<u32>,
    unfinished_parents: Vec<usize>,
    max_active: usize,
    active: usize,
    done: usize,
    failed: usize,
}

impl<T> DagManager<T> {
    /// Manage `dag` with `max_retries` per node and at most `max_active`
    /// simultaneously submitted nodes (`0` = unthrottled).
    pub fn new(dag: Dag<T>, max_retries: u32, max_active: usize) -> Self {
        let n = dag.len();
        let states: Vec<NodeState> = (0..n)
            .map(|i| {
                if dag.parents(NodeId(i as u32)).is_empty() {
                    NodeState::Ready
                } else {
                    NodeState::Waiting
                }
            })
            .collect();
        let unfinished_parents = (0..n)
            .map(|i| dag.parents(NodeId(i as u32)).len())
            .collect();
        DagManager {
            dag,
            states,
            retries_left: vec![max_retries; n],
            unfinished_parents,
            max_active,
            active: 0,
            done: 0,
            failed: 0,
        }
    }

    /// The managed DAG.
    pub(crate) fn dag(&self) -> &Dag<T> {
        &self.dag
    }

    /// A node's state.
    #[cfg(test)]
    pub(crate) fn state(&self, node: NodeId) -> NodeState {
        self.states[node.index()]
    }

    /// Nodes currently submittable, honouring the throttle, in id order.
    pub fn ready_nodes(&self) -> Vec<NodeId> {
        let budget = if self.max_active == 0 {
            usize::MAX
        } else {
            self.max_active.saturating_sub(self.active)
        };
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeState::Ready)
            .take(budget)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Mark a Ready node as submitted.
    pub fn mark_submitted(&mut self, node: NodeId) {
        assert_eq!(
            self.states[node.index()],
            NodeState::Ready,
            "only Ready nodes can be submitted"
        );
        self.states[node.index()] = NodeState::Active;
        self.active += 1;
    }

    /// Mark an Active node done; returns children that became Ready.
    pub fn mark_done(&mut self, node: NodeId) -> Vec<NodeId> {
        assert_eq!(
            self.states[node.index()],
            NodeState::Active,
            "only Active nodes can complete"
        );
        self.states[node.index()] = NodeState::Done;
        self.active -= 1;
        self.done += 1;
        let mut released = Vec::new();
        for &c in self.dag.children(node) {
            self.unfinished_parents[c.index()] -= 1;
            if self.unfinished_parents[c.index()] == 0 {
                debug_assert_eq!(self.states[c.index()], NodeState::Waiting);
                self.states[c.index()] = NodeState::Ready;
                released.push(c);
            }
        }
        released
    }

    /// Mark an Active node failed; either re-queues it or fails it
    /// permanently.
    pub(crate) fn mark_failed(&mut self, node: NodeId) -> FailureAction {
        assert_eq!(
            self.states[node.index()],
            NodeState::Active,
            "only Active nodes can fail"
        );
        self.active -= 1;
        if self.retries_left[node.index()] > 0 {
            self.retries_left[node.index()] -= 1;
            self.states[node.index()] = NodeState::Ready;
            FailureAction::Retry {
                remaining: self.retries_left[node.index()],
            }
        } else {
            self.states[node.index()] = NodeState::Failed;
            self.failed += 1;
            FailureAction::Permanent
        }
    }

    /// Generate and load a *rescue DAG*: every permanently-failed node
    /// is re-armed as Ready with a fresh retry budget of `retries`, and
    /// the DAG leaves the `Failed` state. This mirrors DAGMan's rescue
    /// file workflow — completed nodes keep their results, only the
    /// failed frontier (and the subgraph still waiting on it) reruns.
    /// Returns the number of nodes re-armed (0 means nothing had failed).
    pub(crate) fn rescue(&mut self, retries: u32) -> usize {
        let mut rearmed = 0;
        for i in 0..self.states.len() {
            if self.states[i] == NodeState::Failed {
                self.states[i] = NodeState::Ready;
                self.retries_left[i] = retries;
                rearmed += 1;
            }
        }
        self.failed -= rearmed;
        rearmed
    }

    /// Permanently-failed node count.
    #[cfg(test)]
    pub(crate) fn failed_count(&self) -> usize {
        self.failed
    }

    /// Overall DAG state.
    pub fn dag_state(&self) -> DagState {
        if self.failed > 0 {
            DagState::Failed
        } else if self.done == self.dag.len() {
            DagState::Completed
        } else {
            DagState::Running
        }
    }

    /// Whether the DAG is still running with at least one node ready to
    /// release — the condition a submit loop checks before scheduling
    /// another cycle.
    pub(crate) fn has_ready_work(&self) -> bool {
        self.dag_state() == DagState::Running && !self.ready_nodes().is_empty()
    }

    /// Completed node count.
    pub fn done_count(&self) -> usize {
        self.done
    }

    /// Nodes submitted and not yet terminal.
    #[cfg(test)]
    pub(crate) fn active_count(&self) -> usize {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag<&'static str> {
        let mut d = Dag::new();
        let a = d.add_node("a");
        let b = d.add_node("b");
        let c = d.add_node("c");
        let e = d.add_node("d");
        d.add_edge(a, b).unwrap();
        d.add_edge(a, c).unwrap();
        d.add_edge(b, e).unwrap();
        d.add_edge(c, e).unwrap();
        d
    }

    /// Drive a DAG to completion with no failures; returns submit order.
    fn run_to_completion<T>(mgr: &mut DagManager<T>) -> Vec<NodeId> {
        let mut order = Vec::new();
        loop {
            let ready = mgr.ready_nodes();
            if ready.is_empty() {
                break;
            }
            for n in ready {
                mgr.mark_submitted(n);
                order.push(n);
            }
            // Complete everything active (breadth-first rounds).
            let active: Vec<NodeId> = order
                .iter()
                .copied()
                .filter(|n| mgr.state(*n) == NodeState::Active)
                .collect();
            for n in active {
                mgr.mark_done(n);
            }
        }
        order
    }

    #[test]
    fn diamond_executes_in_dependency_order() {
        let mut mgr = DagManager::new(diamond(), 0, 0);
        assert_eq!(mgr.ready_nodes(), vec![NodeId(0)]);
        let order = run_to_completion(&mut mgr);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
        assert_eq!(mgr.dag_state(), DagState::Completed);
    }

    #[test]
    fn throttle_limits_concurrent_submissions() {
        // A DAG of 10 independent nodes, throttle 3.
        let mut d = Dag::new();
        for i in 0..10 {
            d.add_node(i);
        }
        let mut mgr = DagManager::new(d, 0, 3);
        let first = mgr.ready_nodes();
        assert_eq!(first.len(), 3);
        for n in &first {
            mgr.mark_submitted(*n);
        }
        assert!(mgr.ready_nodes().is_empty(), "throttle exhausted");
        mgr.mark_done(first[0]);
        assert_eq!(mgr.ready_nodes().len(), 1, "one slot freed");
    }

    #[test]
    fn retry_then_permanent_failure() {
        let mut d = Dag::new();
        let a = d.add_node("only");
        let _ = a;
        let mut mgr = DagManager::new(d, 2, 0);
        let n = NodeId(0);
        mgr.mark_submitted(n);
        assert_eq!(mgr.mark_failed(n), FailureAction::Retry { remaining: 1 });
        assert_eq!(mgr.state(n), NodeState::Ready);
        mgr.mark_submitted(n);
        assert_eq!(mgr.mark_failed(n), FailureAction::Retry { remaining: 0 });
        mgr.mark_submitted(n);
        assert_eq!(mgr.mark_failed(n), FailureAction::Permanent);
        assert_eq!(mgr.dag_state(), DagState::Failed);
    }

    #[test]
    fn children_only_release_when_all_parents_done() {
        let mut mgr = DagManager::new(diamond(), 0, 0);
        mgr.mark_submitted(NodeId(0));
        let released = mgr.mark_done(NodeId(0));
        assert_eq!(released, vec![NodeId(1), NodeId(2)]);
        mgr.mark_submitted(NodeId(1));
        let released = mgr.mark_done(NodeId(1));
        assert!(released.is_empty(), "d still waits on c");
        mgr.mark_submitted(NodeId(2));
        let released = mgr.mark_done(NodeId(2));
        assert_eq!(released, vec![NodeId(3)]);
    }

    #[test]
    fn retried_node_reruns_successfully() {
        let mut mgr = DagManager::new(diamond(), 3, 0);
        mgr.mark_submitted(NodeId(0));
        assert_eq!(
            mgr.mark_failed(NodeId(0)),
            FailureAction::Retry { remaining: 2 }
        );
        // Retry succeeds; the DAG continues normally.
        let order = run_to_completion(&mut mgr);
        assert_eq!(mgr.dag_state(), DagState::Completed);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn rescue_rearms_failed_frontier_and_dag_completes() {
        // Fail the root of a diamond permanently, then rescue: only the
        // failed frontier reruns and the whole DAG completes.
        let mut mgr = DagManager::new(diamond(), 0, 0);
        mgr.mark_submitted(NodeId(0));
        assert_eq!(mgr.mark_failed(NodeId(0)), FailureAction::Permanent);
        assert_eq!(mgr.dag_state(), DagState::Failed);
        assert_eq!(mgr.failed_count(), 1);
        assert!(!mgr.has_ready_work(), "failed DAGs release nothing");

        let rearmed = mgr.rescue(2);
        assert_eq!(rearmed, 1);
        assert_eq!(mgr.failed_count(), 0);
        assert_eq!(mgr.dag_state(), DagState::Running);
        assert_eq!(mgr.state(NodeId(0)), NodeState::Ready);

        // The re-armed node carries the fresh retry budget.
        mgr.mark_submitted(NodeId(0));
        assert_eq!(
            mgr.mark_failed(NodeId(0)),
            FailureAction::Retry { remaining: 1 }
        );
        let order = run_to_completion(&mut mgr);
        assert_eq!(mgr.dag_state(), DagState::Completed);
        assert_eq!(order.len(), 4);
        // Rescuing a healthy DAG is a no-op.
        assert_eq!(mgr.rescue(5), 0);
    }

    #[test]
    #[should_panic(expected = "only Ready nodes")]
    fn cannot_submit_waiting_node() {
        let mut mgr = DagManager::new(diamond(), 0, 0);
        mgr.mark_submitted(NodeId(3));
    }

    #[test]
    fn empty_dag_is_complete() {
        let mgr: DagManager<u8> = DagManager::new(Dag::new(), 0, 0);
        assert_eq!(mgr.dag_state(), DagState::Completed);
        assert!(mgr.ready_nodes().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under random failure/success sequences (with retries), a DAG
            /// either completes all nodes or records a permanent failure —
            /// never deadlocks with work remaining.
            #[test]
            fn no_deadlock(edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
                           failures in proptest::collection::vec(any::<bool>(), 0..200)) {
                let mut d = Dag::new();
                for i in 0..12u32 {
                    d.add_node(i);
                }
                for (f, t) in edges {
                    let _ = d.add_edge(NodeId(f), NodeId(t));
                }
                let mut mgr = DagManager::new(d, 1, 4);
                let mut fi = 0;
                let mut steps = 0;
                loop {
                    steps += 1;
                    prop_assert!(steps < 10_000, "runaway");
                    let ready = mgr.ready_nodes();
                    if ready.is_empty() && mgr.active_count() == 0 {
                        break;
                    }
                    for n in ready {
                        mgr.mark_submitted(n);
                    }
                    // Resolve every active node this round.
                    let active: Vec<NodeId> = (0..12u32).map(NodeId)
                        .filter(|n| mgr.state(*n) == NodeState::Active)
                        .collect();
                    for n in active {
                        let fail = fi < failures.len() && failures[fi];
                        fi += 1;
                        if fail {
                            mgr.mark_failed(n);
                        } else {
                            mgr.mark_done(n);
                        }
                    }
                }
                match mgr.dag_state() {
                    DagState::Completed => prop_assert_eq!(mgr.done_count(), 12),
                    DagState::Failed => {},
                    DagState::Running => {
                        // Permissible only if a failed node blocks children.
                        prop_assert!(
                            (0..12u32).map(NodeId).any(|n| mgr.state(n) == NodeState::Failed),
                            "running with no ready, no active, no failure = deadlock"
                        );
                    }
                }
            }
        }
    }
}
