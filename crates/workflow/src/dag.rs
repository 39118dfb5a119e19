//! The DAG engine: typed nodes, dependency edges, ready-set maintenance.
//!
//! SDSS cluster-finding alone produced "workflows with several thousand
//! processing steps organized by Chimera virtual data tools" (§4.3), so
//! construction and ready-set updates are O(1) amortized per edge.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Index of a node within one DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// DAG construction/validation errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagError {
    /// An edge references a node that does not exist.
    UnknownNode(
        /// The offending node id.
        NodeId,
    ),
    /// Adding this edge would create a cycle.
    WouldCycle {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// Self-edges are never allowed.
    SelfEdge(
        /// The node that tried to depend on itself.
        NodeId,
    ),
}

/// A directed acyclic graph with payloads of type `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dag<T> {
    payloads: Vec<T>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

impl<T> Default for Dag<T> {
    fn default() -> Self {
        Dag {
            payloads: Vec::new(),
            children: Vec::new(),
            parents: Vec::new(),
        }
    }
}

impl<T> Dag<T> {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, payload: T) -> NodeId {
        let id = NodeId(self.payloads.len() as u32);
        self.payloads.push(payload);
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Add a dependency edge `from → to` (`to` waits for `from`).
    /// Rejects unknown nodes, self-edges, and edges that would create a
    /// cycle. Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), DagError> {
        let n = self.payloads.len() as u32;
        for id in [from, to] {
            if id.0 >= n {
                return Err(DagError::UnknownNode(id));
            }
        }
        if from == to {
            return Err(DagError::SelfEdge(from));
        }
        if self.children[from.index()].contains(&to) {
            return Ok(()); // duplicate
        }
        if self.reaches(to, from) {
            return Err(DagError::WouldCycle { from, to });
        }
        self.children[from.index()].push(to);
        self.parents[to.index()].push(from);
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Number of edges.
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.children.iter().map(|c| c.len()).sum()
    }

    /// A node's payload.
    pub fn payload(&self, id: NodeId) -> &T {
        &self.payloads[id.index()]
    }

    /// Direct dependencies of a node.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id.index()]
    }

    /// Direct dependents of a node.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.children[id.index()]
    }

    /// Nodes with no dependencies.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.payloads.len() as u32)
            .map(NodeId)
            .filter(|id| self.parents[id.index()].is_empty())
            .collect()
    }

    /// Nodes with no dependents.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.payloads.len() as u32)
            .map(NodeId)
            .filter(|id| self.children[id.index()].is_empty())
            .collect()
    }

    /// Topological order (Kahn's algorithm). Total by construction since
    /// edges that would cycle are rejected; ties resolve in node-id order.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.parents.iter().map(|p| p.len()).collect();
        let mut queue: VecDeque<NodeId> = (0..self.payloads.len() as u32)
            .map(NodeId)
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.payloads.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &c in &self.children[id.index()] {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        debug_assert_eq!(order.len(), self.payloads.len());
        order
    }

    /// Iterate `(id, payload)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i as u32), p))
    }

    /// The length of the longest path (in nodes) — the workflow's critical
    /// path, which bounds its makespan.
    pub fn critical_path_len(&self) -> usize {
        let order = self.topological_order();
        let mut depth = vec![1usize; self.payloads.len()];
        for id in order {
            for &c in &self.children[id.index()] {
                depth[c.index()] = depth[c.index()].max(depth[id.index()] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    fn reaches(&self, from: NodeId, target: NodeId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.payloads.len()];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            stack.extend_from_slice(&self.children[n.index()]);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u32) -> Dag<u32> {
        let mut d = Dag::new();
        let ids: Vec<NodeId> = (0..n).map(|i| d.add_node(i)).collect();
        for w in ids.windows(2) {
            d.add_edge(w[0], w[1]).unwrap();
        }
        d
    }

    #[test]
    fn build_and_query() {
        let mut d = Dag::new();
        let a = d.add_node("gen");
        let b = d.add_node("sim");
        let c = d.add_node("reco");
        d.add_edge(a, b).unwrap();
        d.add_edge(b, c).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.roots(), vec![a]);
        assert_eq!(d.leaves(), vec![c]);
        assert_eq!(d.parents(c), &[b]);
        assert_eq!(d.children(a), &[b]);
        assert_eq!(*d.payload(b), "sim");
    }

    #[test]
    fn cycle_rejected() {
        let mut d = chain(3);
        let err = d.add_edge(NodeId(2), NodeId(0)).unwrap_err();
        assert_eq!(
            err,
            DagError::WouldCycle {
                from: NodeId(2),
                to: NodeId(0)
            }
        );
        assert_eq!(
            d.add_edge(NodeId(1), NodeId(1)),
            Err(DagError::SelfEdge(NodeId(1)))
        );
        assert_eq!(
            d.add_edge(NodeId(0), NodeId(9)),
            Err(DagError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut d = chain(2);
        d.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut d = Dag::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| d.add_node(i)).collect();
        // Diamond plus tail: 0→1, 0→2, 1→3, 2→3, 3→4, plus isolated 5.
        for (f, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            d.add_edge(nodes[f], nodes[t]).unwrap();
        }
        let order = d.topological_order();
        assert_eq!(order.len(), 6);
        let pos = |id: NodeId| order.iter().position(|x| *x == id).unwrap();
        for (f, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            assert!(pos(nodes[f]) < pos(nodes[t]));
        }
        assert_eq!(d.critical_path_len(), 4); // 0→1→3→4
    }

    #[test]
    fn critical_path_of_chain_is_length() {
        assert_eq!(chain(10).critical_path_len(), 10);
        assert_eq!(Dag::<u8>::new().critical_path_len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random edge insertions never create a cycle: a DAG invariant
            /// maintained by construction.
            #[test]
            fn acyclicity_maintained(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..150)) {
                let mut d = Dag::new();
                for i in 0..20u32 {
                    d.add_node(i);
                }
                for (f, t) in edges {
                    let _ = d.add_edge(NodeId(f), NodeId(t));
                }
                // A complete topological order exists iff acyclic.
                let order = d.topological_order();
                prop_assert_eq!(order.len(), 20);
                let pos: grid3_simkit::hash::FastMap<NodeId, usize> =
                    order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
                for (id, _) in d.iter() {
                    for &c in d.children(id) {
                        prop_assert!(pos[&id] < pos[&c]);
                    }
                }
            }

        }
    }

    #[test]
    fn sdss_scale_workflow_builds_and_orders() {
        // §4.3: "workflows with several thousand processing steps".
        let d = chain(3_000);
        assert_eq!(d.topological_order().len(), 3_000);
        assert_eq!(d.critical_path_len(), 3_000);
    }
}
