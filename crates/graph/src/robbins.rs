//! Centralized (reference) construction of a Robbins cycle from an ear
//! decomposition.
//!
//! This mirrors the composition rule of Section 5 of the paper,
//! `C_{i+1} = root_i —C_i→ root_i —E_i→ z_i ⇒C_i⇒ root_i`, but runs as an
//! ordinary centralized algorithm. It serves two purposes:
//!
//! * it provides *known-good* Robbins cycles to feed the Algorithm-3 simulator
//!   and its benchmarks without running the distributed construction; and
//! * it is the oracle the test-suite compares the distributed, content-
//!   oblivious construction (Algorithm 4) against — not for equality of the
//!   exact sequence (both constructions make arbitrary DFS choices), but for
//!   the structural properties Theorem 15 guarantees.

use crate::cycle::RobbinsCycle;
use crate::ear::ear_decomposition;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// Builds a Robbins cycle of the 2-edge-connected graph `g` rooted at `root`
/// by composing the ears of [`ear_decomposition`] exactly as the paper's
/// construction does.
///
/// # Errors
///
/// Returns [`GraphError::NotTwoEdgeConnected`] if `g` is not
/// 2-edge-connected, or [`GraphError::NodeOutOfRange`] for a bad root.
pub fn reference_robbins_cycle(g: &Graph, root: NodeId) -> Result<RobbinsCycle, GraphError> {
    let dec = ear_decomposition(g, root)?;
    let mut current = RobbinsCycle::new(dec.initial_cycle.clone())?;
    for ear in &dec.ears {
        current = extend_cycle_with_ear(&current, &ear.path)?;
    }
    debug_assert!(current.validate(g).is_ok());
    debug_assert!(current.covers_all_edges(g));
    Ok(current)
}

/// Extends a cycle with one ear, following the paper's composition rule. The
/// ear path must start and end at nodes already on the cycle; internal nodes
/// are new. This helper is also used by the distributed construction in
/// `fdn-core` (every node performs the same deterministic computation on the
/// global cycle string it holds).
///
/// # Errors
///
/// Returns [`GraphError::InvalidCycle`] if the ear endpoints are not on the
/// cycle or the extension is degenerate.
pub fn extend_cycle_with_ear(
    cycle: &RobbinsCycle,
    ear_path: &[NodeId],
) -> Result<RobbinsCycle, GraphError> {
    if ear_path.len() < 2 {
        return Err(GraphError::InvalidCycle(
            "ear must contain at least one edge".into(),
        ));
    }
    let r = ear_path[0];
    let z = *ear_path.last().expect("non-empty ear path");
    if !cycle.contains_node(r) || !cycle.contains_node(z) {
        return Err(GraphError::InvalidCycle(format!(
            "ear endpoints {r}, {z} must lie on the current cycle"
        )));
    }
    let rotated = cycle.rotated_to(r)?;
    // The walk is  r —C_i→ r —E_i→ z ⇒C_i⇒ r : after traversing all of C_i
    // (the rotated sequence plus its implicit closing arc back to r), the node
    // r appears a second time and the ear departs from it.
    let mut seq = rotated.seq().to_vec();
    seq.push(r);
    let internal = &ear_path[1..ear_path.len() - 1];
    seq.extend_from_slice(internal);
    if z != r {
        seq.push(z);
        let p = rotated
            .shortest_directed_path(z, r)
            .ok_or_else(|| GraphError::InvalidCycle(format!("no directed path from {z} to {r}")))?;
        // p = [z, …, r]; only the interior needs appending: the cycle closes
        // back at position 0 (= r) implicitly.
        if p.len() > 2 {
            seq.extend_from_slice(&p[1..p.len() - 1]);
        }
    }
    RobbinsCycle::new(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::collections::BTreeSet;

    #[test]
    fn simple_cycle_graph_gives_simple_cycle() {
        let g = generators::cycle(8).unwrap();
        let c = reference_robbins_cycle(&g, NodeId(0)).unwrap();
        assert_eq!(c.len(), 8);
        c.validate(&g).unwrap();
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn figure3_cycle_matches_paper_shape() {
        // Figure 3: C0 = (v1 v2 v3 v4), ear v1 -> v5 -> v3, and
        // C1 = v1 v2 v3 v4 [v1 v5] v3 v4 (length 8).
        let g = generators::figure3();
        let c = reference_robbins_cycle(&g, NodeId(0)).unwrap();
        c.validate(&g).unwrap();
        assert!(c.covers_all_edges(&g));
        assert_eq!(c.len(), 8);
        assert_eq!(c.occurrence_count(NodeId(0)), 2);
        assert_eq!(c.occurrence_count(NodeId(4)), 1);
    }

    #[test]
    fn covers_all_edges_on_families() {
        let graphs = vec![
            generators::complete(6).unwrap(),
            generators::theta(2, 3, 4).unwrap(),
            generators::wheel(7).unwrap(),
            generators::petersen(),
            generators::grid_torus(3, 4).unwrap(),
            generators::figure1(),
            generators::hypercube(3).unwrap(),
            generators::complete_bipartite(3, 4).unwrap(),
            generators::circular_ladder(5).unwrap(),
        ];
        for g in graphs {
            let c = reference_robbins_cycle(&g, NodeId(0)).unwrap();
            c.validate(&g).unwrap();
            assert!(
                c.covers_all_edges(&g),
                "cycle does not cover all edges of {g}"
            );
            // Every edge traversal is a cycle position, and each undirected
            // edge is traversed at least once, so |C| >= |E|.
            assert!(c.len() >= g.edge_count());
            // The arc set is a Robbins orientation: each edge in exactly one
            // direction.
            let arcs: BTreeSet<(NodeId, NodeId)> = c.arcs().into_iter().collect();
            assert!(arcs.iter().all(|&(u, v)| !arcs.contains(&(v, u))));
            assert_eq!(arcs.len(), g.edge_count());
        }
    }

    #[test]
    fn random_graphs_covered_and_within_cubic_bound() {
        for seed in 0..20 {
            let g = generators::random_two_edge_connected(12, 10, seed).unwrap();
            let n = g.node_count();
            let c = reference_robbins_cycle(&g, NodeId(0)).unwrap();
            c.validate(&g).unwrap();
            assert!(c.covers_all_edges(&g));
            // Lemma 19: |C| = O(n^3); the reference construction comfortably
            // fits inside the explicit bound n^3.
            assert!(
                c.len() <= n * n * n,
                "|C| = {} exceeds n^3 for seed {seed}",
                c.len()
            );
        }
    }

    #[test]
    fn rejects_non_2ec() {
        let g = generators::barbell(3).unwrap();
        assert_eq!(
            reference_robbins_cycle(&g, NodeId(0)),
            Err(GraphError::NotTwoEdgeConnected)
        );
    }

    #[test]
    fn extend_cycle_with_ear_validations() {
        let c = RobbinsCycle::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        // Too-short ear.
        assert!(extend_cycle_with_ear(&c, &[NodeId(0)]).is_err());
        // Endpoint not on cycle.
        assert!(extend_cycle_with_ear(&c, &[NodeId(0), NodeId(9), NodeId(7)]).is_err());
        // Valid open ear 1 -> 5 -> 3: |C'| = |C| + ear edges + path-back edges.
        let ext = extend_cycle_with_ear(&c, &[NodeId(1), NodeId(5), NodeId(3)]).unwrap();
        assert_eq!(ext.root(), NodeId(1));
        assert_eq!(ext.len(), 4 + 2 + 2);
        assert_eq!(
            ext.seq(),
            &[
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(0),
                NodeId(1),
                NodeId(5),
                NodeId(3),
                NodeId(0)
            ] as &[NodeId]
        );
        // Valid closed ear 2 -> 6 -> 7 -> 2: |C'| = |C| + ear edges.
        let ext2 =
            extend_cycle_with_ear(&c, &[NodeId(2), NodeId(6), NodeId(7), NodeId(2)]).unwrap();
        assert_eq!(ext2.root(), NodeId(2));
        assert_eq!(ext2.len(), 4 + 3);
    }
}
