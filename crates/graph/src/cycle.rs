//! Robbins cycles and their global / local representations.
//!
//! A **Robbins cycle** of a graph `G` is a closed directed walk that visits
//! every node of `G` at least once and never traverses an edge in both
//! directions (Section 2 of the paper). The paper uses two representations:
//!
//! * the **global** representation — the string of node IDs along the cycle,
//!   held by every node ([`RobbinsCycle`]); and
//! * the **local** representation — every node knows, for each of its
//!   *occurrences* on the cycle, its clockwise (`next`) and counterclockwise
//!   (`prev`) neighbour ([`LocalCycleView`]).
//!
//! The convention throughout this workspace is that `seq[0]` — the first node
//! of the global string — is the occurrence currently associated with the
//! token holder (Remark 4), and occurrence numbering per node follows cycle
//! positions starting from `seq[0]`, which places the token inside every
//! node's segment 0 (Figure 2).

use std::collections::{btree_map, BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// Direction of travel along a cycle.
///
/// The paper calls the direction in which the cycle sequence advances
/// *clockwise*; the opposite direction is *counterclockwise*. Pulse meaning in
/// the content-oblivious simulators is derived from this direction alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleDirection {
    /// Along the cycle orientation (`prev -> node -> next`).
    Clockwise,
    /// Against the cycle orientation.
    Counterclockwise,
}

impl CycleDirection {
    /// The opposite direction.
    pub fn opposite(self) -> Self {
        match self {
            CycleDirection::Clockwise => CycleDirection::Counterclockwise,
            CycleDirection::Counterclockwise => CycleDirection::Clockwise,
        }
    }
}

impl fmt::Display for CycleDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleDirection::Clockwise => write!(f, "clockwise"),
            CycleDirection::Counterclockwise => write!(f, "counterclockwise"),
        }
    }
}

/// One occurrence of a node on a (possibly non-simple) cycle: its
/// counterclockwise (`prev`) and clockwise (`next`) neighbours at that
/// occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// The node immediately before this occurrence (counterclockwise
    /// neighbour).
    pub prev: NodeId,
    /// The node immediately after this occurrence (clockwise neighbour).
    pub next: NodeId,
}

/// The local view a single node holds of a cycle: one [`Occurrence`] per time
/// the node appears on the cycle, ordered so that the token (cycle position 0)
/// lies in segment 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalCycleView {
    node: NodeId,
    occurrences: Vec<Occurrence>,
}

impl LocalCycleView {
    /// Builds a local view directly from an occurrence list.
    ///
    /// # Panics
    ///
    /// Panics if `occurrences` is empty.
    pub fn new(node: NodeId, occurrences: Vec<Occurrence>) -> Self {
        assert!(
            !occurrences.is_empty(),
            "a node on a cycle has at least one occurrence"
        );
        LocalCycleView { node, occurrences }
    }

    /// Builds the single-occurrence view of a node on a *simple* cycle given
    /// only its two neighbours (the only information Algorithm 1 requires).
    pub fn from_simple(node: NodeId, prev: NodeId, next: NodeId) -> Self {
        LocalCycleView {
            node,
            occurrences: vec![Occurrence { prev, next }],
        }
    }

    /// The node this view belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of occurrences of the node on the cycle (`k_u` in the paper).
    pub fn occurrence_count(&self) -> usize {
        self.occurrences.len()
    }

    /// The occurrences in segment order (occurrence 0 first).
    pub fn occurrences(&self) -> &[Occurrence] {
        &self.occurrences
    }

    /// The counterclockwise neighbour of occurrence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= occurrence_count()`.
    pub fn prev(&self, i: usize) -> NodeId {
        self.occurrences[i].prev
    }

    /// The clockwise neighbour of occurrence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= occurrence_count()`.
    pub fn next(&self, i: usize) -> NodeId {
        self.occurrences[i].next
    }

    /// The paper's `RotateEdges()` procedure: shifts occurrence numbering by
    /// one so that the occurrence that just received the token becomes
    /// occurrence 0 (each `prev/next_{u,i}` takes the previous value of
    /// `prev/next_{u,i-1}`, indices mod `k_u`).
    pub fn rotate_edges(&mut self) {
        self.occurrences.rotate_right(1);
    }

    /// The direction of a pulse received from neighbour `from`, or `None` if
    /// `from` is not adjacent to this node on the cycle.
    ///
    /// Because a Robbins cycle never uses an edge in both directions, every
    /// cycle neighbour appears either only as a `prev` (pulses from it travel
    /// clockwise) or only as a `next` (pulses from it travel
    /// counterclockwise).
    pub fn incoming_direction(&self, from: NodeId) -> Option<CycleDirection> {
        let is_prev = self.occurrences.iter().any(|o| o.prev == from);
        let is_next = self.occurrences.iter().any(|o| o.next == from);
        match (is_prev, is_next) {
            (true, false) => Some(CycleDirection::Clockwise),
            (false, true) => Some(CycleDirection::Counterclockwise),
            (false, false) => None,
            (true, true) => {
                unreachable!(
                    "edge ({from}, {}) used in both directions on a Robbins cycle",
                    self.node
                )
            }
        }
    }

    /// Whether `other` is adjacent to this node via a cycle edge.
    pub fn is_cycle_neighbor(&self, other: NodeId) -> bool {
        self.occurrences
            .iter()
            .any(|o| o.prev == other || o.next == other)
    }

    /// For each counterclockwise neighbour, how many occurrences have it as
    /// their `prev` (used by the REQUEST-counting logic of Algorithm 3).
    pub fn prev_multiplicities(&self) -> BTreeMap<NodeId, usize> {
        let mut m = BTreeMap::new();
        for o in &self.occurrences {
            *m.entry(o.prev).or_insert(0) += 1;
        }
        m
    }
}

/// A Robbins cycle in its global representation: the cyclic sequence of node
/// IDs. The sequence is stored without repeating the first node at the end;
/// `seq[len-1] -> seq[0]` is the implicit closing edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RobbinsCycle {
    seq: Vec<NodeId>,
}

impl RobbinsCycle {
    /// Creates a cycle from a node sequence.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequence is shorter than 3, has two equal
    /// consecutive nodes (including the wrap-around), or uses some edge in
    /// both directions.
    pub fn new(seq: Vec<NodeId>) -> Result<Self, GraphError> {
        if seq.len() < 3 {
            return Err(GraphError::InvalidCycle(format!(
                "cycle must have length >= 3, got {}",
                seq.len()
            )));
        }
        let mut arcs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for i in 0..seq.len() {
            let u = seq[i];
            let v = seq[(i + 1) % seq.len()];
            if u == v {
                return Err(GraphError::InvalidCycle(format!(
                    "consecutive repeated node {u} at position {i}"
                )));
            }
            arcs.insert((u, v));
        }
        // Walk the sequence (not the set) so the reported arc of an invalid
        // cycle is the first offender in sequence order, not the smallest
        // arc.
        for i in 0..seq.len() {
            let u = seq[i];
            let v = seq[(i + 1) % seq.len()];
            if arcs.contains(&(v, u)) {
                return Err(GraphError::InvalidCycle(format!(
                    "edge ({u}, {v}) is traversed in both directions"
                )));
            }
        }
        Ok(RobbinsCycle { seq })
    }

    /// The node sequence (position 0 is the token-holder occurrence).
    pub fn seq(&self) -> &[NodeId] {
        &self.seq
    }

    /// The length `|C|` of the cycle (number of node occurrences = number of
    /// edge traversals).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// A cycle is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The node at position 0, i.e. the token-holder occurrence (Remark 4).
    pub fn root(&self) -> NodeId {
        self.seq[0]
    }

    /// Whether the node appears on the cycle.
    pub fn contains_node(&self, u: NodeId) -> bool {
        self.seq.contains(&u)
    }

    /// Number of occurrences of `u` on the cycle.
    pub fn occurrence_count(&self, u: NodeId) -> usize {
        self.seq.iter().filter(|&&x| x == u).count()
    }

    /// The set of distinct nodes on the cycle, sorted.
    pub fn distinct_nodes(&self) -> Vec<NodeId> {
        self.seq
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// All directed edges (arcs) along the cycle, in cycle order, including
    /// the closing arc.
    pub fn arcs(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.seq.len())
            .map(|i| (self.seq[i], self.seq[(i + 1) % self.seq.len()]))
            .collect()
    }

    /// The set of undirected edges used by the cycle.
    pub fn undirected_edges(&self) -> BTreeSet<(NodeId, NodeId)> {
        self.arcs()
            .into_iter()
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect()
    }

    /// Whether the cycle uses every edge of `g` (the termination condition of
    /// the paper's construction: no node has an adjacent edge outside the
    /// cycle).
    pub fn covers_all_edges(&self, g: &Graph) -> bool {
        let used = self.undirected_edges();
        g.edges().iter().all(|e| used.contains(&(e.lo(), e.hi())))
    }

    /// Validates the cycle against a graph: every arc is a graph edge and
    /// every node of the graph appears on the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCycle`] describing the first violation.
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        for (u, v) in self.arcs() {
            if !g.has_edge(u, v) {
                return Err(GraphError::InvalidCycle(format!(
                    "arc ({u}, {v}) is not a graph edge"
                )));
            }
        }
        for u in g.nodes() {
            if !self.contains_node(u) {
                return Err(GraphError::InvalidCycle(format!(
                    "node {u} missing from the cycle"
                )));
            }
        }
        Ok(())
    }

    /// Returns the cycle rotated so that it starts at the **first** occurrence
    /// of `new_root` (the paper's nodes rotate their `cycle` string whenever a
    /// new root is selected).
    ///
    /// # Errors
    ///
    /// Returns an error if `new_root` is not on the cycle.
    pub fn rotated_to(&self, new_root: NodeId) -> Result<RobbinsCycle, GraphError> {
        let pos = self
            .seq
            .iter()
            .position(|&x| x == new_root)
            .ok_or_else(|| GraphError::InvalidCycle(format!("node {new_root} not on the cycle")))?;
        let mut seq = Vec::with_capacity(self.seq.len());
        seq.extend_from_slice(&self.seq[pos..]);
        seq.extend_from_slice(&self.seq[..pos]);
        Ok(RobbinsCycle { seq })
    }

    /// The local view of node `u`: one occurrence per appearance, ordered by
    /// cycle position (which places the token at position 0 inside segment 0
    /// of every node). Returns `None` if `u` is not on the cycle.
    pub fn local_view(&self, u: NodeId) -> Option<LocalCycleView> {
        let n = self.seq.len();
        let occurrences: Vec<Occurrence> = (0..n)
            .filter(|&i| self.seq[i] == u)
            .map(|i| Occurrence {
                prev: self.seq[(i + n - 1) % n],
                next: self.seq[(i + 1) % n],
            })
            .collect();
        if occurrences.is_empty() {
            None
        } else {
            Some(LocalCycleView {
                node: u,
                occurrences,
            })
        }
    }

    /// The local views of **all** nodes on the cycle, keyed by node, built in
    /// a single pass over the sequence. Equivalent to calling
    /// [`RobbinsCycle::local_view`] for every distinct node, but `O(|C|)`
    /// instead of `O(n·|C|)` — the difference matters when a cached cycle is
    /// re-handed to fresh simulator nodes for every seed of a sweep.
    pub fn local_views(&self) -> BTreeMap<NodeId, LocalCycleView> {
        let n = self.seq.len();
        let mut views: BTreeMap<NodeId, LocalCycleView> = BTreeMap::new();
        for i in 0..n {
            let node = self.seq[i];
            let occ = Occurrence {
                prev: self.seq[(i + n - 1) % n],
                next: self.seq[(i + 1) % n],
            };
            views
                .entry(node)
                .and_modify(|v| v.occurrences.push(occ))
                .or_insert_with(|| LocalCycleView {
                    node,
                    occurrences: vec![occ],
                });
        }
        views
    }

    /// The shortest directed path from `from` to `to` that uses only arcs of
    /// this cycle (the paper's `z ⇒_C root` notation). Ties are broken
    /// deterministically (BFS visiting lower node ids first), matching the
    /// "lexicographically first" rule all nodes must agree on. Both endpoints
    /// are included in the returned path; if `from == to` the path is the
    /// single node.
    ///
    /// Returns `None` if either endpoint is not on the cycle (cannot happen
    /// for cycles produced by this crate, but kept total for robustness).
    pub fn shortest_directed_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if !self.contains_node(from) || !self.contains_node(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        // Build the (deduplicated) arc adjacency with sorted successors.
        let mut succ: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (u, v) in self.arcs() {
            let entry = succ.entry(u).or_default();
            if !entry.contains(&v) {
                entry.push(v);
            }
        }
        for list in succ.values_mut() {
            list.sort();
        }
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        parent.insert(from, from);
        while let Some(u) = queue.pop_front() {
            if u == to {
                break;
            }
            if let Some(nexts) = succ.get(&u) {
                for &v in nexts {
                    if let btree_map::Entry::Vacant(slot) = parent.entry(v) {
                        slot.insert(u);
                        queue.push_back(v);
                    }
                }
            }
        }
        if !parent.contains_key(&to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = parent[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

impl fmt::Display for RobbinsCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.seq.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, " -> {}]", self.seq[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn direction_opposite_and_display() {
        assert_eq!(
            CycleDirection::Clockwise.opposite(),
            CycleDirection::Counterclockwise
        );
        assert_eq!(
            CycleDirection::Counterclockwise.opposite(),
            CycleDirection::Clockwise
        );
        assert_eq!(CycleDirection::Clockwise.to_string(), "clockwise");
    }

    #[test]
    fn new_rejects_short_and_repeated() {
        assert!(RobbinsCycle::new(ids(&[0, 1])).is_err());
        assert!(RobbinsCycle::new(ids(&[0, 0, 1])).is_err());
        assert!(RobbinsCycle::new(ids(&[0, 1, 0])).is_err()); // edge 0-1 both ways
        assert!(RobbinsCycle::new(ids(&[0, 1, 2])).is_ok());
    }

    #[test]
    fn new_rejects_both_direction_edge_usage() {
        // 0 -> 1 -> 2 -> 1 -> 3 -> 0 uses edge (1,2) in both directions.
        assert!(RobbinsCycle::new(ids(&[0, 1, 2, 1, 3])).is_err());
    }

    #[test]
    fn simple_cycle_properties() {
        let c = RobbinsCycle::new(ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.root(), NodeId(0));
        assert_eq!(c.occurrence_count(NodeId(1)), 1);
        assert_eq!(c.distinct_nodes(), ids(&[0, 1, 2, 3]));
        assert_eq!(c.arcs().len(), 4);
        assert_eq!(c.undirected_edges().len(), 4);
        let g = generators::cycle(4).unwrap();
        c.validate(&g).unwrap();
        assert!(c.covers_all_edges(&g));
        assert_eq!(c.to_string(), "[v0 -> v1 -> v2 -> v3 -> v0]");
    }

    #[test]
    fn bulk_local_views_match_per_node_views() {
        // A non-simple cycle with repeated nodes (Figure 3's, built by the
        // reference construction): the one-pass builder must agree with the
        // per-node scan for every distinct node.
        let g = crate::generators::figure3();
        let c = crate::robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        assert!(c.distinct_nodes().len() < c.len(), "cycle is non-simple");
        let bulk = c.local_views();
        assert_eq!(bulk.len(), c.distinct_nodes().len());
        for node in c.distinct_nodes() {
            assert_eq!(bulk.get(&node), c.local_view(node).as_ref(), "{node}");
        }
        // Nodes absent from the cycle are absent from the map.
        assert!(!bulk.contains_key(&NodeId(9)));
    }

    #[test]
    fn non_simple_cycle_local_views() {
        // Figure-1 style cycle on the figure1() graph:
        // d a b c d e b c  (as node ids: 3 0 1 2 3 4 1 2)
        let c = RobbinsCycle::new(ids(&[3, 0, 1, 2, 3, 4, 1, 2])).unwrap();
        let g = generators::figure1();
        c.validate(&g).unwrap();
        assert!(c.covers_all_edges(&g));
        assert_eq!(c.occurrence_count(NodeId(3)), 2);
        assert_eq!(c.occurrence_count(NodeId(1)), 2);
        assert_eq!(c.occurrence_count(NodeId(4)), 1);

        let view_b = c.local_view(NodeId(1)).unwrap();
        assert_eq!(view_b.occurrence_count(), 2);
        // First occurrence of b (position 2): prev = a (0), next = c (2).
        assert_eq!(view_b.prev(0), NodeId(0));
        assert_eq!(view_b.next(0), NodeId(2));
        // Second occurrence (position 6): prev = e (4), next = c (2).
        assert_eq!(view_b.prev(1), NodeId(4));
        assert_eq!(view_b.next(1), NodeId(2));
        assert_eq!(
            view_b.incoming_direction(NodeId(0)),
            Some(CycleDirection::Clockwise)
        );
        assert_eq!(
            view_b.incoming_direction(NodeId(2)),
            Some(CycleDirection::Counterclockwise)
        );
        assert_eq!(view_b.incoming_direction(NodeId(3)), None);
        assert!(view_b.is_cycle_neighbor(NodeId(4)));
        assert!(!view_b.is_cycle_neighbor(NodeId(3)));
        let mult = view_b.prev_multiplicities();
        assert_eq!(mult.get(&NodeId(0)), Some(&1));
        assert_eq!(mult.get(&NodeId(4)), Some(&1));

        assert!(c.local_view(NodeId(99)).is_none());
    }

    #[test]
    fn rotate_edges_cycles_occurrences() {
        let c = RobbinsCycle::new(ids(&[3, 0, 1, 2, 3, 4, 1, 2])).unwrap();
        let mut view = c.local_view(NodeId(2)).unwrap();
        let before = view.occurrences().to_vec();
        view.rotate_edges();
        assert_eq!(view.occurrences()[0], before[1]);
        assert_eq!(view.occurrences()[1], before[0]);
        view.rotate_edges();
        assert_eq!(view.occurrences(), before.as_slice());
    }

    #[test]
    fn rotated_to_moves_root() {
        let c = RobbinsCycle::new(ids(&[3, 0, 1, 2, 3, 4, 1, 2])).unwrap();
        let r = c.rotated_to(NodeId(4)).unwrap();
        assert_eq!(r.root(), NodeId(4));
        assert_eq!(r.len(), c.len());
        assert_eq!(r.seq(), &ids(&[4, 1, 2, 3, 0, 1, 2, 3]) as &[NodeId]);
        assert!(c.rotated_to(NodeId(9)).is_err());
    }

    #[test]
    fn shortest_directed_path_follows_arcs() {
        let c = RobbinsCycle::new(ids(&[0, 1, 2, 3, 4])).unwrap();
        assert_eq!(
            c.shortest_directed_path(NodeId(1), NodeId(3)).unwrap(),
            ids(&[1, 2, 3])
        );
        // Must go the long way around against positions but along arcs.
        assert_eq!(
            c.shortest_directed_path(NodeId(3), NodeId(1)).unwrap(),
            ids(&[3, 4, 0, 1])
        );
        assert_eq!(
            c.shortest_directed_path(NodeId(2), NodeId(2)).unwrap(),
            ids(&[2])
        );
        assert!(c.shortest_directed_path(NodeId(2), NodeId(9)).is_none());
    }

    #[test]
    fn shortest_directed_path_can_shortcut_on_non_simple_cycle() {
        // Analogue of the paper's footnote: on a non-simple cycle the
        // shortest directed path may combine arcs from different passes and
        // need not be a contiguous sub-path of the cycle.
        // Cycle 0 -> 1 -> 2 -> 3 -> 1 -> 4 -> (0); from 0 to 4 the shortest
        // directed path is 0 -> 1 -> 4, skipping the 2 -> 3 detour.
        let c = RobbinsCycle::new(ids(&[0, 1, 2, 3, 1, 4])).unwrap();
        assert_eq!(
            c.shortest_directed_path(NodeId(0), NodeId(4)).unwrap(),
            ids(&[0, 1, 4])
        );
    }

    #[test]
    fn validate_catches_missing_node_and_bad_edge() {
        let g = generators::cycle(5).unwrap();
        let c = RobbinsCycle::new(ids(&[0, 1, 2, 3])).unwrap();
        // Arc 3 -> 0 exists, but node 4 is missing from the cycle.
        assert!(matches!(c.validate(&g), Err(GraphError::InvalidCycle(_))));
        let c2 = RobbinsCycle::new(ids(&[0, 2, 4])).unwrap();
        assert!(matches!(c2.validate(&g), Err(GraphError::InvalidCycle(_))));
    }
}
