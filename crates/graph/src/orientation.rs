//! Robbins orientations of 2-edge-connected graphs.
//!
//! Robbins' theorem (1939): a connected graph admits a strongly-connected
//! orientation if and only if it is 2-edge-connected. The classical
//! construction orients DFS tree edges away from the root and back edges
//! towards the ancestor. This module provides that centralized construction
//! as a *reference*; the distributed, content-oblivious construction lives in
//! `fdn-core::construction`.

use std::collections::BTreeMap;

use crate::connectivity::is_two_edge_connected;
use crate::error::GraphError;
use crate::graph::{Edge, Graph, NodeId};

/// An orientation of every edge of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    /// For each undirected edge, the chosen direction `(from, to)`.
    dir: BTreeMap<Edge, (NodeId, NodeId)>,
}

impl Orientation {
    /// The direction assigned to the undirected edge `{u, v}`, if that edge is
    /// part of the orientation.
    pub fn direction(&self, u: NodeId, v: NodeId) -> Option<(NodeId, NodeId)> {
        if u == v {
            return None;
        }
        self.dir.get(&Edge::new(u, v)).copied()
    }

    /// Whether the arc `u -> v` is part of the orientation.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.direction(u, v) == Some((u, v))
    }

    /// Number of oriented edges.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// Whether the orientation is empty.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// All arcs `(from, to)`, sorted.
    pub fn arcs(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<_> = self.dir.values().copied().collect();
        v.sort();
        v
    }

    /// Out-neighbours of `u` under this orientation, sorted.
    pub fn out_neighbors(&self, g: &Graph, u: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&v| self.has_arc(u, v))
            .collect();
        out.sort();
        out
    }

    /// Checks that the directed graph induced on `g` is strongly connected.
    pub fn is_strongly_connected(&self, g: &Graph) -> bool {
        let n = g.node_count();
        if n == 0 {
            return true;
        }
        let reach = |forward: bool| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = stack.pop() {
                for &v in g.neighbors(u) {
                    let arc_ok = if forward {
                        self.has_arc(u, v)
                    } else {
                        self.has_arc(v, u)
                    };
                    if arc_ok && !seen[v.index()] {
                        seen[v.index()] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            count
        };
        reach(true) == n && reach(false) == n
    }
}

/// Computes a Robbins (strongly-connected) orientation of `g` using a DFS from
/// `root`: tree edges point away from the root, back edges point towards the
/// ancestor.
///
/// # Errors
///
/// Returns [`GraphError::NotTwoEdgeConnected`] if `g` is not 2-edge-connected
/// (no strongly-connected orientation exists in that case), or
/// [`GraphError::NodeOutOfRange`] for a bad root.
pub fn robbins_orientation(g: &Graph, root: NodeId) -> Result<Orientation, GraphError> {
    g.check_node(root)?;
    if !is_two_edge_connected(g) {
        return Err(GraphError::NotTwoEdgeConnected);
    }
    let n = g.node_count();
    let mut disc = vec![usize::MAX; n];
    let mut timer = 0usize;
    let mut dir: BTreeMap<Edge, (NodeId, NodeId)> = BTreeMap::new();

    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    disc[root.index()] = timer;
    timer += 1;
    stack.push((root, 0));
    while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
        let neighbors = g.neighbors(u);
        if *idx < neighbors.len() {
            let v = neighbors[*idx];
            *idx += 1;
            let e = Edge::new(u, v);
            if dir.contains_key(&e) {
                continue;
            }
            if disc[v.index()] == usize::MAX {
                // Tree edge: away from the root.
                dir.insert(e, (u, v));
                disc[v.index()] = timer;
                timer += 1;
                stack.push((v, 0));
            } else {
                // Back (or cross-in-undirected-DFS-impossible) edge: towards
                // the earlier-discovered endpoint, i.e. the ancestor.
                dir.insert(e, (u, v));
            }
        } else {
            stack.pop();
        }
    }
    let o = Orientation { dir };
    debug_assert!(o.is_strongly_connected(g));
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn orientation_of_cycle_is_strongly_connected() {
        let g = generators::cycle(6).unwrap();
        let o = robbins_orientation(&g, NodeId(0)).unwrap();
        assert_eq!(o.len(), 6);
        assert!(o.is_strongly_connected(&g));
    }

    #[test]
    fn orientation_of_various_families() {
        let graphs = vec![
            generators::complete(6).unwrap(),
            generators::theta(2, 3, 4).unwrap(),
            generators::wheel(7).unwrap(),
            generators::petersen(),
            generators::grid_torus(3, 3).unwrap(),
            generators::figure1(),
            generators::figure3(),
            generators::hypercube(3).unwrap(),
        ];
        for g in graphs {
            for root in [NodeId(0), NodeId(1)] {
                let o = robbins_orientation(&g, root).unwrap();
                assert_eq!(o.len(), g.edge_count());
                assert!(o.is_strongly_connected(&g), "not strongly connected: {g}");
            }
        }
    }

    #[test]
    fn rejects_non_2ec() {
        let g = generators::barbell(3).unwrap();
        assert_eq!(
            robbins_orientation(&g, NodeId(0)),
            Err(GraphError::NotTwoEdgeConnected)
        );
        let p = generators::path(4).unwrap();
        assert_eq!(
            robbins_orientation(&p, NodeId(0)),
            Err(GraphError::NotTwoEdgeConnected)
        );
    }

    #[test]
    fn rejects_bad_root() {
        let g = generators::cycle(4).unwrap();
        assert!(matches!(
            robbins_orientation(&g, NodeId(17)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn each_edge_oriented_exactly_once() {
        let g = generators::complete(5).unwrap();
        let o = robbins_orientation(&g, NodeId(2)).unwrap();
        for e in g.edges() {
            let d = o.direction(e.lo(), e.hi()).unwrap();
            assert!(d == (e.lo(), e.hi()) || d == (e.hi(), e.lo()));
            // has_arc is true for exactly one direction.
            assert_ne!(o.has_arc(e.lo(), e.hi()), o.has_arc(e.hi(), e.lo()));
        }
        assert!(o.direction(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn out_neighbors_consistent_with_arcs() {
        let g = generators::figure1();
        let o = robbins_orientation(&g, NodeId(0)).unwrap();
        let mut arc_count = 0;
        for u in g.nodes() {
            for v in o.out_neighbors(&g, u) {
                assert!(o.has_arc(u, v));
                arc_count += 1;
            }
        }
        assert_eq!(arc_count, g.edge_count());
    }
}
