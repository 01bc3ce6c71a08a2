//! Centralized (reference) ear decomposition of 2-edge-connected graphs.
//!
//! Whitney (1932): a graph is 2-edge-connected iff it can be written as
//! `G = C0 ∪ E0 ∪ E1 ∪ … ∪ Ek`, where `C0` is a simple cycle and each `Ei` is
//! an *ear* — a simple path (or cycle) whose endpoints lie on the structure
//! built so far and whose internal nodes are new.
//!
//! The decomposition computed here mirrors the shape produced by the paper's
//! distributed Algorithm 4 (a DFS-grown initial cycle through the root, then
//! DFS-grown ears over unexplored edges), so it doubles as a readable
//! reference when debugging the content-oblivious construction, and it feeds
//! [`crate::robbins::reference_robbins_cycle`].

use crate::connectivity::is_two_edge_connected;
use crate::error::GraphError;
use crate::graph::{Edge, Graph, NodeId};
use std::collections::BTreeSet;

/// One ear of an ear decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ear {
    /// The full node path of the ear, including both endpoints. The endpoints
    /// lie on the previously-built structure; internal nodes are new. For a
    /// *closed* ear the two endpoints are the same node.
    pub path: Vec<NodeId>,
}

impl Ear {
    /// The starting endpoint (the ear's root).
    pub fn start(&self) -> NodeId {
        *self.path.first().expect("ear path is non-empty")
    }

    /// The finishing endpoint.
    pub fn end(&self) -> NodeId {
        *self.path.last().expect("ear path is non-empty")
    }

    /// Whether the ear is closed (a cycle attached at a single node).
    pub fn is_closed(&self) -> bool {
        self.start() == self.end()
    }

    /// Number of edges contributed by the ear.
    pub fn edge_len(&self) -> usize {
        self.path.len() - 1
    }

    /// The internal (new) nodes of the ear.
    pub fn internal_nodes(&self) -> &[NodeId] {
        if self.path.len() <= 2 {
            &[]
        } else {
            &self.path[1..self.path.len() - 1]
        }
    }
}

/// A Whitney ear decomposition rooted at a designated node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EarDecomposition {
    /// The designated root; `initial_cycle[0] == root`.
    pub root: NodeId,
    /// The simple cycle `C0` as a node sequence starting at the root (the
    /// closing edge back to the root is implicit).
    pub initial_cycle: Vec<NodeId>,
    /// The ears `E0, E1, …` in construction order.
    pub ears: Vec<Ear>,
}

impl EarDecomposition {
    /// Total number of edges covered by `C0` and all ears.
    pub fn edge_count(&self) -> usize {
        self.initial_cycle.len() + self.ears.iter().map(Ear::edge_len).sum::<usize>()
    }

    /// Checks the decomposition against the graph it came from: the cycle and
    /// ears use existing edges, cover every edge exactly once, ear endpoints
    /// lie on previously-built structure and internal nodes are new.
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        let mut covered_edges: BTreeSet<Edge> = BTreeSet::new();
        let mut covered_nodes: BTreeSet<NodeId> = BTreeSet::new();
        if self.initial_cycle.len() < 3 {
            return Err(GraphError::InvalidCycle(
                "initial cycle has fewer than 3 nodes".into(),
            ));
        }
        if self.initial_cycle[0] != self.root {
            return Err(GraphError::InvalidCycle(
                "initial cycle does not start at the root".into(),
            ));
        }
        let c = &self.initial_cycle;
        for i in 0..c.len() {
            let u = c[i];
            let v = c[(i + 1) % c.len()];
            if !g.has_edge(u, v) {
                return Err(GraphError::InvalidCycle(format!(
                    "cycle edge ({u}, {v}) not in graph"
                )));
            }
            if !covered_edges.insert(Edge::new(u, v)) {
                return Err(GraphError::InvalidCycle(format!(
                    "cycle repeats edge ({u}, {v})"
                )));
            }
            covered_nodes.insert(u);
        }
        for (idx, ear) in self.ears.iter().enumerate() {
            if ear.path.len() < 2 {
                return Err(GraphError::InvalidCycle(format!(
                    "ear {idx} has fewer than 2 nodes"
                )));
            }
            if !covered_nodes.contains(&ear.start()) || !covered_nodes.contains(&ear.end()) {
                return Err(GraphError::InvalidCycle(format!(
                    "ear {idx} endpoints not on previously-built structure"
                )));
            }
            for w in ear.internal_nodes() {
                if covered_nodes.contains(w) {
                    return Err(GraphError::InvalidCycle(format!(
                        "ear {idx} internal node {w} already covered"
                    )));
                }
            }
            for pair in ear.path.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                if !g.has_edge(u, v) {
                    return Err(GraphError::InvalidCycle(format!(
                        "ear {idx} edge ({u}, {v}) not in graph"
                    )));
                }
                if !covered_edges.insert(Edge::new(u, v)) {
                    return Err(GraphError::InvalidCycle(format!(
                        "ear {idx} repeats edge ({u}, {v})"
                    )));
                }
            }
            for w in &ear.path {
                covered_nodes.insert(*w);
            }
        }
        if covered_edges.len() != g.edge_count() {
            return Err(GraphError::InvalidCycle(format!(
                "decomposition covers {} of {} edges",
                covered_edges.len(),
                g.edge_count()
            )));
        }
        if covered_nodes.len() != g.node_count() {
            return Err(GraphError::InvalidCycle(format!(
                "decomposition covers {} of {} nodes",
                covered_nodes.len(),
                g.node_count()
            )));
        }
        Ok(())
    }
}

/// Computes an ear decomposition of a 2-edge-connected graph rooted at `root`.
///
/// The initial cycle is grown by a DFS from the root that backtracks on
/// revisits (mirroring Algorithm 4(a)); each ear is grown by a DFS over
/// still-uncovered edges from a covered node that has one, stopping at the
/// first covered node reached (mirroring Algorithm 4(b)).
///
/// # Errors
///
/// Returns [`GraphError::NotTwoEdgeConnected`] if the graph is not
/// 2-edge-connected, or [`GraphError::NodeOutOfRange`] for a bad root.
pub fn ear_decomposition(g: &Graph, root: NodeId) -> Result<EarDecomposition, GraphError> {
    g.check_node(root)?;
    if !is_two_edge_connected(g) {
        return Err(GraphError::NotTwoEdgeConnected);
    }

    let mut covered_edges: BTreeSet<Edge> = BTreeSet::new();
    let mut on_structure: Vec<bool> = vec![false; g.node_count()];

    // --- Initial simple cycle through the root (DFS with backtracking). ---
    let initial_cycle = find_simple_cycle_through(g, root, &covered_edges)
        .ok_or(GraphError::NotTwoEdgeConnected)?;
    for i in 0..initial_cycle.len() {
        let u = initial_cycle[i];
        let v = initial_cycle[(i + 1) % initial_cycle.len()];
        covered_edges.insert(Edge::new(u, v));
        on_structure[u.index()] = true;
    }

    // --- Ears. ---
    let mut ears = Vec::new();
    loop {
        // The distributed protocol lets the current root pick any node with an
        // unexplored edge; we pick the smallest such node id for determinism.
        let start = g.nodes().find(|&u| {
            on_structure[u.index()]
                && g.neighbors(u)
                    .iter()
                    .any(|&v| !covered_edges.contains(&Edge::new(u, v)))
        });
        let Some(start) = start else { break };
        let ear_path = grow_ear(g, start, &covered_edges, &on_structure);
        for pair in ear_path.windows(2) {
            covered_edges.insert(Edge::new(pair[0], pair[1]));
        }
        for w in &ear_path {
            on_structure[w.index()] = true;
        }
        ears.push(Ear { path: ear_path });
    }

    let dec = EarDecomposition {
        root,
        initial_cycle,
        ears,
    };
    debug_assert!(dec.validate(g).is_ok());
    Ok(dec)
}

/// DFS from `root` over edges not in `covered` that returns a simple cycle
/// starting at `root`, or `None` if no such cycle exists.
fn find_simple_cycle_through(
    g: &Graph,
    root: NodeId,
    covered: &BTreeSet<Edge>,
) -> Option<Vec<NodeId>> {
    // Path-based DFS with explicit backtracking, exploring neighbours in
    // ascending order; stops when an edge back to the root closes a cycle of
    // length >= 3.
    let mut path = vec![root];
    let mut on_path = vec![false; g.node_count()];
    on_path[root.index()] = true;
    let mut used: BTreeSet<Edge> = BTreeSet::new();

    loop {
        let u = *path.last().unwrap();
        let next = g.neighbors(u).iter().copied().find(|&v| {
            let e = Edge::new(u, v);
            !covered.contains(&e)
                && !used.contains(&e)
                && (!on_path[v.index()] || (v == root && path.len() >= 3))
        });
        match next {
            Some(v) => {
                used.insert(Edge::new(u, v));
                if v == root {
                    return Some(path);
                }
                on_path[v.index()] = true;
                path.push(v);
            }
            None => {
                // Backtrack.
                if path.len() == 1 {
                    return None;
                }
                let dead = path.pop().unwrap();
                on_path[dead.index()] = false;
            }
        }
    }
}

/// Grows a single ear: a DFS from `start` over uncovered edges through nodes
/// not yet on the structure, stopping at the first structure node reached.
fn grow_ear(
    g: &Graph,
    start: NodeId,
    covered: &BTreeSet<Edge>,
    on_structure: &[bool],
) -> Vec<NodeId> {
    let mut path = vec![start];
    let mut on_path = vec![false; g.node_count()];
    on_path[start.index()] = true;
    let mut used: BTreeSet<Edge> = BTreeSet::new();

    loop {
        let u = *path.last().unwrap();
        // A structure node always terminates the ear (including the start
        // node itself, which yields a closed ear), so it is acceptable even
        // when it is already on the DFS path.
        let next = g.neighbors(u).iter().copied().find(|&v| {
            let e = Edge::new(u, v);
            !covered.contains(&e)
                && !used.contains(&e)
                && (on_structure[v.index()] || !on_path[v.index()])
        });
        match next {
            Some(v) => {
                used.insert(Edge::new(u, v));
                path.push(v);
                if on_structure[v.index()] {
                    return path;
                }
                on_path[v.index()] = true;
            }
            None => {
                // 2-edge-connectivity guarantees the ear closes before the DFS
                // exhausts the start node; internal dead-ends backtrack.
                assert!(
                    path.len() > 1,
                    "ear DFS stuck at its start; graph not 2-edge-connected?"
                );
                let dead = path.pop().unwrap();
                on_path[dead.index()] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_graph_has_no_ears() {
        let g = generators::cycle(7).unwrap();
        let d = ear_decomposition(&g, NodeId(0)).unwrap();
        assert_eq!(d.initial_cycle.len(), 7);
        assert!(d.ears.is_empty());
        d.validate(&g).unwrap();
    }

    #[test]
    fn figure3_has_one_ear() {
        let g = generators::figure3();
        let d = ear_decomposition(&g, NodeId(0)).unwrap();
        assert_eq!(d.ears.len(), 1);
        d.validate(&g).unwrap();
        assert_eq!(d.edge_count(), g.edge_count());
    }

    #[test]
    fn validates_on_many_families() {
        let graphs = vec![
            generators::complete(6).unwrap(),
            generators::theta(2, 3, 4).unwrap(),
            generators::wheel(7).unwrap(),
            generators::petersen(),
            generators::grid_torus(3, 4).unwrap(),
            generators::figure1(),
            generators::hypercube(3).unwrap(),
            generators::complete_bipartite(3, 3).unwrap(),
        ];
        for g in graphs {
            for root in [NodeId(0), NodeId(1)] {
                let d = ear_decomposition(&g, root).unwrap();
                d.validate(&g).unwrap();
                assert_eq!(d.edge_count(), g.edge_count());
            }
        }
    }

    #[test]
    fn random_graphs_validate() {
        for seed in 0..15 {
            let g = generators::random_two_edge_connected(14, 8, seed).unwrap();
            let d = ear_decomposition(&g, NodeId(0)).unwrap();
            d.validate(&g).unwrap();
            let g2 = generators::random_ear_graph(4, 6, 3, seed).unwrap();
            let d2 = ear_decomposition(&g2, NodeId(0)).unwrap();
            d2.validate(&g2).unwrap();
        }
    }

    #[test]
    fn rejects_non_2ec() {
        let g = generators::barbell(3).unwrap();
        assert_eq!(
            ear_decomposition(&g, NodeId(0)),
            Err(GraphError::NotTwoEdgeConnected)
        );
    }

    #[test]
    fn ear_accessors() {
        let open = Ear {
            path: vec![NodeId(0), NodeId(5), NodeId(2)],
        };
        assert_eq!(open.start(), NodeId(0));
        assert_eq!(open.end(), NodeId(2));
        assert!(!open.is_closed());
        assert_eq!(open.edge_len(), 2);
        assert_eq!(open.internal_nodes(), &[NodeId(5)]);
        let closed = Ear {
            path: vec![NodeId(1), NodeId(3), NodeId(4), NodeId(1)],
        };
        assert!(closed.is_closed());
        let chord = Ear {
            path: vec![NodeId(0), NodeId(2)],
        };
        assert!(chord.internal_nodes().is_empty());
    }
}
