//! Graph generators used by the examples, tests and the benchmark harness.
//!
//! All generators return deterministic graphs for fixed parameters (random
//! generators take an explicit seed), so every experiment table the
//! `fdn-bench` `report` binary prints (see the README's "Experiment tables")
//! is reproducible.

#![expect(
    clippy::disallowed_methods,
    reason = "D3: a seeded RNG factory; every random graph derives from its explicit seed argument"
)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// A simple cycle `v0 - v1 - … - v{n-1} - v0`.
///
/// # Errors
///
/// Returns an error if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "cycle needs n >= 3, got {n}"
        )));
    }
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32))?;
    }
    Ok(g)
}

/// A simple path `v0 - v1 - … - v{n-1}` (not 2-edge-connected; every edge is a
/// bridge). Used by negative tests.
///
/// # Errors
///
/// Returns an error if `n < 2`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "path needs n >= 2, got {n}"
        )));
    }
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(i as u32), NodeId((i + 1) as u32))?;
    }
    Ok(g)
}

/// The complete graph `K_n`.
///
/// # Errors
///
/// Returns an error if `n < 2`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "complete needs n >= 2, got {n}"
        )));
    }
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(NodeId(i as u32), NodeId(j as u32))?;
        }
    }
    Ok(g)
}

/// The complete bipartite graph `K_{a,b}` (2-edge-connected whenever
/// `a, b >= 2`).
///
/// # Errors
///
/// Returns an error if `a < 1` or `b < 1`.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph, GraphError> {
    if a < 1 || b < 1 {
        return Err(GraphError::InvalidParameter(format!(
            "complete_bipartite needs a, b >= 1, got ({a}, {b})"
        )));
    }
    let mut g = Graph::new(a + b);
    for i in 0..a {
        for j in 0..b {
            g.add_edge(NodeId(i as u32), NodeId((a + j) as u32))?;
        }
    }
    Ok(g)
}

/// A theta graph: two terminal nodes joined by three internally-disjoint
/// paths with `a`, `b` and `c` internal nodes respectively.
///
/// Theta graphs are the smallest family of 2-edge-connected graphs whose
/// Robbins cycles are necessarily non-simple, which makes them a key workload
/// for exercising Algorithm 3's occurrence tracking.
///
/// # Errors
///
/// Returns an error if two of the paths are both empty (that would create a
/// duplicate edge).
pub fn theta(a: usize, b: usize, c: usize) -> Result<Graph, GraphError> {
    let empties = [a, b, c].iter().filter(|&&x| x == 0).count();
    if empties >= 2 {
        return Err(GraphError::InvalidParameter(
            "theta graph: at most one of the three paths may have zero internal nodes".into(),
        ));
    }
    let n = 2 + a + b + c;
    let mut g = Graph::new(n);
    let s = NodeId(0);
    let t = NodeId(1);
    let mut next_id = 2u32;
    for &len in &[a, b, c] {
        let mut prev = s;
        for _ in 0..len {
            let v = NodeId(next_id);
            next_id += 1;
            g.add_edge(prev, v)?;
            prev = v;
        }
        g.add_edge(prev, t)?;
    }
    Ok(g)
}

/// A wheel graph: a hub node connected to every node of an `(n-1)`-cycle.
///
/// # Errors
///
/// Returns an error if `n < 4`.
pub fn wheel(n: usize) -> Result<Graph, GraphError> {
    if n < 4 {
        return Err(GraphError::InvalidParameter(format!(
            "wheel needs n >= 4, got {n}"
        )));
    }
    let mut g = cycle(n - 1)?;
    let mut with_hub = Graph::new(n);
    for e in g.edges() {
        with_hub.add_edge(e.lo(), e.hi())?;
    }
    g = with_hub;
    let hub = NodeId((n - 1) as u32);
    for i in 0..n - 1 {
        g.add_edge(hub, NodeId(i as u32))?;
    }
    Ok(g)
}

/// The Petersen graph (10 nodes, 15 edges, 3-regular, 2-edge-connected).
pub fn petersen() -> Graph {
    let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
    let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
    Graph::from_edges(10, outer.into_iter().chain(spokes).chain(inner))
        .expect("petersen graph is well-formed")
}

/// A `w x h` torus grid (every node has degree 4; 2-edge-connected).
///
/// # Errors
///
/// Returns an error if `w < 3` or `h < 3`.
pub fn grid_torus(w: usize, h: usize) -> Result<Graph, GraphError> {
    if w < 3 || h < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "grid_torus needs w, h >= 3, got ({w}, {h})"
        )));
    }
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    let mut g = Graph::new(w * h);
    for y in 0..h {
        for x in 0..w {
            g.add_edge(id(x, y), id((x + 1) % w, y))?;
            g.add_edge(id(x, y), id(x, (y + 1) % h))?;
        }
    }
    Ok(g)
}

/// The `d`-dimensional hypercube (`2^d` nodes; 2-edge-connected for `d >= 2`).
///
/// # Errors
///
/// Returns an error if `d < 2` or `d > 16`.
pub fn hypercube(d: usize) -> Result<Graph, GraphError> {
    if !(2..=16).contains(&d) {
        return Err(GraphError::InvalidParameter(format!(
            "hypercube needs 2 <= d <= 16, got {d}"
        )));
    }
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if u < v {
                g.add_edge(NodeId(u as u32), NodeId(v as u32))?;
            }
        }
    }
    Ok(g)
}

/// A circular ladder (prism) graph `CL_n`: two concentric `n`-cycles joined by
/// rungs. 3-regular and 2-edge-connected.
///
/// # Errors
///
/// Returns an error if `n < 3`.
pub fn circular_ladder(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "circular_ladder needs n >= 3, got {n}"
        )));
    }
    let mut g = Graph::new(2 * n);
    for i in 0..n {
        let j = (i + 1) % n;
        g.add_edge(NodeId(i as u32), NodeId(j as u32))?;
        g.add_edge(NodeId((n + i) as u32), NodeId((n + j) as u32))?;
        g.add_edge(NodeId(i as u32), NodeId((n + i) as u32))?;
    }
    Ok(g)
}

/// Two cliques `K_k` joined by a single bridge edge. **Not** 2-edge-connected;
/// used to exercise the impossibility / rejection paths.
///
/// # Errors
///
/// Returns an error if `k < 3`.
pub fn barbell(k: usize) -> Result<Graph, GraphError> {
    if k < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "barbell needs k >= 3, got {k}"
        )));
    }
    let mut g = Graph::new(2 * k);
    for i in 0..k {
        for j in i + 1..k {
            g.add_edge(NodeId(i as u32), NodeId(j as u32))?;
            g.add_edge(NodeId((k + i) as u32), NodeId((k + j) as u32))?;
        }
    }
    g.add_edge(NodeId(0), NodeId(k as u32))?;
    Ok(g)
}

/// The two-node, single-edge graph (the two-party network of §6). It is
/// connected but not 2-edge-connected: the lone edge is a bridge.
pub fn two_party() -> Graph {
    Graph::from_edges(2, [(0, 1)]).expect("two-party graph is well-formed")
}

/// A 5-node 2-edge-connected graph in the spirit of the paper's Figure 1:
/// its Robbins cycle is necessarily non-simple (some nodes occur more than
/// once), which exercises the occurrence/segment machinery of Algorithm 3.
///
/// Nodes `a..e` map to `v0..v4`; edges: `a-b, b-c, c-d, d-a, d-e, e-b`.
pub fn figure1() -> Graph {
    Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 1)])
        .expect("figure-1 graph is well-formed")
}

/// The 5-node example used in the paper's Figure 3: the square
/// `v1-v2-v3-v4` plus the ear `v1-v5-v3`. Node `v_i` maps to `NodeId(i-1)`.
pub fn figure3() -> Graph {
    Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)])
        .expect("figure-3 graph is well-formed")
}

/// A random 2-edge-connected graph: a random Hamiltonian cycle plus
/// `extra_edges` random chords. Because it contains a spanning cycle it is
/// always 2-edge-connected.
///
/// # Errors
///
/// Returns an error if `n < 3` or if `extra_edges` exceeds the number of
/// available chords.
pub fn random_two_edge_connected(
    n: usize,
    extra_edges: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "random_two_edge_connected needs n >= 3, got {n}"
        )));
    }
    let max_extra = n * (n - 1) / 2 - n;
    if extra_edges > max_extra {
        return Err(GraphError::InvalidParameter(format!(
            "extra_edges = {extra_edges} exceeds the {max_extra} available chords"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(perm[i]), NodeId(perm[(i + 1) % n]))?;
    }
    let mut added = 0usize;
    while added < extra_edges {
        let u = NodeId(rng.gen_range(0..n as u32));
        let v = NodeId(rng.gen_range(0..n as u32));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v)?;
            added += 1;
        }
    }
    Ok(g)
}

/// A random "ear-glued" 2-edge-connected graph: a small base cycle with
/// `ears` random ears of up to `max_ear_len` internal nodes attached. These
/// graphs are sparse and tend to produce long, highly non-simple Robbins
/// cycles, which stresses Algorithm 3/4 differently than the chord-based
/// generator.
///
/// # Errors
///
/// Returns an error if `base < 3`.
pub fn random_ear_graph(
    base: usize,
    ears: usize,
    max_ear_len: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if base < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "random_ear_graph needs base >= 3, got {base}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = (0..base)
        .map(|i| {
            let (a, b) = (i as u32, ((i + 1) % base) as u32);
            (a.min(b), a.max(b))
        })
        .collect();
    let mut n = base as u32;
    for _ in 0..ears {
        let len = rng.gen_range(0..=max_ear_len) as u32;
        // Endpoints must already exist in the graph built so far.
        let mut a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if a == b && len < 2 {
            // A closed ear needs at least two internal nodes to stay simple.
            continue;
        }
        if len == 0 {
            // A length-0 ear is a direct chord; avoid self-loops/duplicates by
            // retrying a bounded number of times, otherwise skip the ear.
            let mut tries = 0;
            while (a == b || edges.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b))))
                && tries < 32
            {
                a = rng.gen_range(0..n);
                b = rng.gen_range(0..n);
                tries += 1;
            }
            if a == b || edges.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b))) {
                continue;
            }
            edges.push((a.min(b), a.max(b)));
            continue;
        }
        let mut prev = a;
        for _ in 0..len {
            let v = n;
            n += 1;
            edges.push((prev.min(v), prev.max(v)));
            prev = v;
        }
        edges.push((prev.min(b), prev.max(b)));
    }
    Graph::from_edges(n as usize, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_two_edge_connected;

    #[test]
    fn cycle_shapes() {
        let g = cycle(5).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_shapes() {
        let g = path(4).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(path(1).is_err());
    }

    #[test]
    fn complete_shapes() {
        let g = complete(5).unwrap();
        assert_eq!(g.edge_count(), 10);
        assert!(complete(1).is_err());
        assert!(is_two_edge_connected(&complete(3).unwrap()));
    }

    #[test]
    fn complete_bipartite_shapes() {
        let g = complete_bipartite(2, 3).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert!(is_two_edge_connected(&g));
        assert!(complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn theta_shapes() {
        let g = theta(1, 2, 3).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 9);
        assert!(is_two_edge_connected(&g));
        // Two empty paths would create a multi-edge.
        assert!(theta(0, 0, 3).is_err());
        // One empty path is fine: it is a direct edge between the terminals.
        assert!(is_two_edge_connected(&theta(0, 2, 2).unwrap()));
    }

    #[test]
    fn wheel_shapes() {
        let g = wheel(6).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 10);
        assert!(is_two_edge_connected(&g));
        assert!(wheel(3).is_err());
    }

    #[test]
    fn petersen_shape() {
        let g = petersen();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|u| g.degree(u) == 3));
        assert!(is_two_edge_connected(&g));
    }

    #[test]
    fn grid_torus_shape() {
        let g = grid_torus(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 24);
        assert!(is_two_edge_connected(&g));
        assert!(grid_torus(2, 3).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        assert!(is_two_edge_connected(&g));
        assert!(hypercube(1).is_err());
    }

    #[test]
    fn circular_ladder_shape() {
        let g = circular_ladder(4).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        assert!(is_two_edge_connected(&g));
    }

    #[test]
    fn barbell_not_2ec() {
        let g = barbell(3).unwrap();
        assert_eq!(g.node_count(), 6);
        assert!(!is_two_edge_connected(&g));
    }

    #[test]
    fn two_party_is_bridge() {
        let g = two_party();
        assert_eq!(g.edge_count(), 1);
        assert!(!is_two_edge_connected(&g));
    }

    #[test]
    fn figure_graphs() {
        assert!(is_two_edge_connected(&figure1()));
        assert!(is_two_edge_connected(&figure3()));
        assert_eq!(figure3().edge_count(), 6);
    }

    #[test]
    fn random_2ec_is_2ec_for_many_seeds() {
        for seed in 0..20 {
            let g = random_two_edge_connected(12, 6, seed).unwrap();
            assert_eq!(g.node_count(), 12);
            assert_eq!(g.edge_count(), 18);
            assert!(is_two_edge_connected(&g), "seed {seed}");
        }
        assert!(random_two_edge_connected(2, 0, 0).is_err());
        assert!(random_two_edge_connected(4, 100, 0).is_err());
    }

    #[test]
    fn random_ear_graph_is_2ec() {
        for seed in 0..20 {
            let g = random_ear_graph(4, 5, 3, seed).unwrap();
            assert!(is_two_edge_connected(&g), "seed {seed}");
        }
        assert!(random_ear_graph(2, 1, 1, 0).is_err());
    }

    #[test]
    fn random_generators_are_deterministic_per_seed() {
        let a = random_two_edge_connected(10, 5, 42).unwrap();
        let b = random_two_edge_connected(10, 5, 42).unwrap();
        assert_eq!(a, b);
        let c = random_ear_graph(4, 4, 2, 7).unwrap();
        let d = random_ear_graph(4, 4, 2, 7).unwrap();
        assert_eq!(c, d);
    }
}
