//! A closed, serializable description of every graph generator in this crate.
//!
//! The generators in [`crate::generators`] are free functions with
//! heterogeneous signatures, which makes them awkward to sweep over: an
//! experiment campaign wants a *value* it can store in a scenario matrix,
//! print in a report and reparse from a CLI flag. [`GraphFamily`] is that
//! value — one enum variant per generator, a single parameterized
//! [`GraphFamily::build`] constructor, a stable `Display` form used as the
//! report key, and a [`GraphFamily::parse`] inverse for command lines.

use std::fmt;

use crate::error::GraphError;
use crate::generators;
use crate::graph::Graph;

/// A parameterized graph generator, as data.
///
/// `build()` of equal values always returns equal graphs (random families
/// carry their seed), so a `GraphFamily` fully identifies a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GraphFamily {
    /// Simple cycle on `n` nodes ([`generators::cycle`]).
    Cycle { n: usize },
    /// Simple path on `n` nodes — not 2-edge-connected ([`generators::path`]).
    Path { n: usize },
    /// Complete graph `K_n` ([`generators::complete`]).
    Complete { n: usize },
    /// Complete bipartite `K_{a,b}` ([`generators::complete_bipartite`]).
    CompleteBipartite { a: usize, b: usize },
    /// Theta graph with path lengths `a`, `b`, `c` ([`generators::theta`]).
    Theta { a: usize, b: usize, c: usize },
    /// Wheel on `n` nodes ([`generators::wheel`]).
    Wheel { n: usize },
    /// The Petersen graph ([`generators::petersen`]).
    Petersen,
    /// `w x h` torus grid ([`generators::grid_torus`]).
    GridTorus { w: usize, h: usize },
    /// `d`-dimensional hypercube ([`generators::hypercube`]).
    Hypercube { d: usize },
    /// Circular ladder (prism) `CL_n` ([`generators::circular_ladder`]).
    CircularLadder { n: usize },
    /// Two `K_k` cliques joined by a bridge — not 2-edge-connected
    /// ([`generators::barbell`]).
    Barbell { k: usize },
    /// The single-edge two-party graph ([`generators::two_party`]).
    TwoParty,
    /// The paper's Figure 1 example ([`generators::figure1`]).
    Figure1,
    /// The paper's Figure 3 example ([`generators::figure3`]).
    Figure3,
    /// Random Hamiltonian cycle plus chords
    /// ([`generators::random_two_edge_connected`]).
    RandomTwoEdgeConnected {
        n: usize,
        extra_edges: usize,
        seed: u64,
    },
    /// Random base cycle with glued ears ([`generators::random_ear_graph`]).
    RandomEar {
        base: usize,
        ears: usize,
        max_ear_len: usize,
        seed: u64,
    },
}

impl GraphFamily {
    /// Every family, instantiated with small representative parameters — the
    /// default sweep axis for campaigns and a convenient test corpus.
    pub fn representatives() -> Vec<GraphFamily> {
        vec![
            GraphFamily::Cycle { n: 6 },
            GraphFamily::Path { n: 4 },
            GraphFamily::Complete { n: 5 },
            GraphFamily::CompleteBipartite { a: 2, b: 3 },
            GraphFamily::Theta { a: 1, b: 2, c: 3 },
            GraphFamily::Wheel { n: 6 },
            GraphFamily::Petersen,
            GraphFamily::GridTorus { w: 3, h: 3 },
            GraphFamily::Hypercube { d: 3 },
            GraphFamily::CircularLadder { n: 4 },
            GraphFamily::Barbell { k: 3 },
            GraphFamily::TwoParty,
            GraphFamily::Figure1,
            GraphFamily::Figure3,
            GraphFamily::RandomTwoEdgeConnected {
                n: 8,
                extra_edges: 4,
                seed: 1,
            },
            GraphFamily::RandomEar {
                base: 4,
                ears: 3,
                max_ear_len: 2,
                seed: 1,
            },
        ]
    }

    /// Builds the concrete graph.
    ///
    /// # Errors
    ///
    /// Propagates the parameter validation of the underlying generator.
    pub fn build(&self) -> Result<Graph, GraphError> {
        match *self {
            GraphFamily::Cycle { n } => generators::cycle(n),
            GraphFamily::Path { n } => generators::path(n),
            GraphFamily::Complete { n } => generators::complete(n),
            GraphFamily::CompleteBipartite { a, b } => generators::complete_bipartite(a, b),
            GraphFamily::Theta { a, b, c } => generators::theta(a, b, c),
            GraphFamily::Wheel { n } => generators::wheel(n),
            GraphFamily::Petersen => Ok(generators::petersen()),
            GraphFamily::GridTorus { w, h } => generators::grid_torus(w, h),
            GraphFamily::Hypercube { d } => generators::hypercube(d),
            GraphFamily::CircularLadder { n } => generators::circular_ladder(n),
            GraphFamily::Barbell { k } => generators::barbell(k),
            GraphFamily::TwoParty => Ok(generators::two_party()),
            GraphFamily::Figure1 => Ok(generators::figure1()),
            GraphFamily::Figure3 => Ok(generators::figure3()),
            GraphFamily::RandomTwoEdgeConnected {
                n,
                extra_edges,
                seed,
            } => generators::random_two_edge_connected(n, extra_edges, seed),
            GraphFamily::RandomEar {
                base,
                ears,
                max_ear_len,
                seed,
            } => generators::random_ear_graph(base, ears, max_ear_len, seed),
        }
    }

    /// Whether every member of this family is 2-edge-connected by
    /// construction (the precondition of the paper's Theorem 2).
    pub fn guarantees_two_edge_connected(&self) -> bool {
        !matches!(
            self,
            GraphFamily::Path { .. } | GraphFamily::Barbell { .. } | GraphFamily::TwoParty
        )
    }

    /// Whether the family is a plain ring with nodes in ring order (node
    /// `i`'s clockwise neighbour is `(i + 1) mod n`) — the precondition of
    /// ring-shaped workloads.
    pub fn is_ring(&self) -> bool {
        matches!(self, GraphFamily::Cycle { .. })
    }

    /// Parses the stable textual form, e.g. `cycle(8)` or
    /// `random2ec(12,6,s42)`; [`Display`](fmt::Display) is the exact inverse.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] on unknown names or malformed
    /// parameter lists.
    pub fn parse(s: &str) -> Result<Self, GraphError> {
        let s = s.trim();
        let bad = |why: &str| GraphError::InvalidParameter(format!("graph family `{s}`: {why}"));
        let (name, args) = match s.find('(') {
            None => (s, Vec::new()),
            Some(open) => {
                let close = s
                    .strip_suffix(')')
                    .map(|_| s.len() - 1)
                    .ok_or_else(|| bad("missing `)`"))?;
                let args: Vec<&str> = s[open + 1..close].split(',').map(str::trim).collect();
                (&s[..open], args)
            }
        };
        let num = |i: usize| -> Result<usize, GraphError> {
            args.get(i)
                .ok_or_else(|| bad("too few parameters"))?
                .parse::<usize>()
                .map_err(|_| bad("parameters must be unsigned integers"))
        };
        let seed = |i: usize| -> Result<u64, GraphError> {
            let raw = args.get(i).ok_or_else(|| bad("too few parameters"))?;
            raw.strip_prefix('s')
                .unwrap_or(raw)
                .parse::<u64>()
                .map_err(|_| bad("seed must be an unsigned integer (optionally `s`-prefixed)"))
        };
        let arity = |k: usize| -> Result<(), GraphError> {
            if args.len() == k {
                Ok(())
            } else {
                Err(bad(&format!(
                    "expected {k} parameter(s), got {}",
                    args.len()
                )))
            }
        };
        match name {
            "cycle" => arity(1)
                .and_then(|()| num(0))
                .map(|n| GraphFamily::Cycle { n }),
            "path" => arity(1)
                .and_then(|()| num(0))
                .map(|n| GraphFamily::Path { n }),
            "complete" => arity(1)
                .and_then(|()| num(0))
                .map(|n| GraphFamily::Complete { n }),
            "bipartite" => arity(2).and_then(|()| {
                Ok(GraphFamily::CompleteBipartite {
                    a: num(0)?,
                    b: num(1)?,
                })
            }),
            "theta" => arity(3).and_then(|()| {
                Ok(GraphFamily::Theta {
                    a: num(0)?,
                    b: num(1)?,
                    c: num(2)?,
                })
            }),
            "wheel" => arity(1)
                .and_then(|()| num(0))
                .map(|n| GraphFamily::Wheel { n }),
            "petersen" => arity(0).map(|()| GraphFamily::Petersen),
            "torus" => arity(2).and_then(|()| {
                Ok(GraphFamily::GridTorus {
                    w: num(0)?,
                    h: num(1)?,
                })
            }),
            "hypercube" => arity(1)
                .and_then(|()| num(0))
                .map(|d| GraphFamily::Hypercube { d }),
            "ladder" => arity(1)
                .and_then(|()| num(0))
                .map(|n| GraphFamily::CircularLadder { n }),
            "barbell" => arity(1)
                .and_then(|()| num(0))
                .map(|k| GraphFamily::Barbell { k }),
            "two_party" => arity(0).map(|()| GraphFamily::TwoParty),
            "figure1" => arity(0).map(|()| GraphFamily::Figure1),
            "figure3" => arity(0).map(|()| GraphFamily::Figure3),
            "random2ec" => arity(3).and_then(|()| {
                Ok(GraphFamily::RandomTwoEdgeConnected {
                    n: num(0)?,
                    extra_edges: num(1)?,
                    seed: seed(2)?,
                })
            }),
            "randomear" => arity(4).and_then(|()| {
                Ok(GraphFamily::RandomEar {
                    base: num(0)?,
                    ears: num(1)?,
                    max_ear_len: num(2)?,
                    seed: seed(3)?,
                })
            }),
            _ => Err(bad("unknown family name")),
        }
    }
}

impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphFamily::Cycle { n } => write!(f, "cycle({n})"),
            GraphFamily::Path { n } => write!(f, "path({n})"),
            GraphFamily::Complete { n } => write!(f, "complete({n})"),
            GraphFamily::CompleteBipartite { a, b } => write!(f, "bipartite({a},{b})"),
            GraphFamily::Theta { a, b, c } => write!(f, "theta({a},{b},{c})"),
            GraphFamily::Wheel { n } => write!(f, "wheel({n})"),
            GraphFamily::Petersen => write!(f, "petersen"),
            GraphFamily::GridTorus { w, h } => write!(f, "torus({w},{h})"),
            GraphFamily::Hypercube { d } => write!(f, "hypercube({d})"),
            GraphFamily::CircularLadder { n } => write!(f, "ladder({n})"),
            GraphFamily::Barbell { k } => write!(f, "barbell({k})"),
            GraphFamily::TwoParty => write!(f, "two_party"),
            GraphFamily::Figure1 => write!(f, "figure1"),
            GraphFamily::Figure3 => write!(f, "figure3"),
            GraphFamily::RandomTwoEdgeConnected {
                n,
                extra_edges,
                seed,
            } => {
                write!(f, "random2ec({n},{extra_edges},s{seed})")
            }
            GraphFamily::RandomEar {
                base,
                ears,
                max_ear_len,
                seed,
            } => {
                write!(f, "randomear({base},{ears},{max_ear_len},s{seed})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_two_edge_connected;

    #[test]
    fn every_representative_builds() {
        for fam in GraphFamily::representatives() {
            let g = fam
                .build()
                .unwrap_or_else(|e| panic!("{fam} failed to build: {e}"));
            assert!(g.node_count() >= 2, "{fam}");
        }
    }

    #[test]
    fn two_edge_connectivity_guarantee_matches_reality() {
        for fam in GraphFamily::representatives() {
            let g = fam.build().unwrap();
            assert_eq!(
                fam.guarantees_two_edge_connected(),
                is_two_edge_connected(&g),
                "guarantee flag wrong for {fam}"
            );
        }
    }

    #[test]
    fn label_parse_roundtrip() {
        for fam in GraphFamily::representatives() {
            let label = fam.to_string();
            assert_eq!(
                GraphFamily::parse(&label).unwrap(),
                fam,
                "roundtrip of {label}"
            );
        }
        // Seeds parse with and without the `s` prefix.
        assert_eq!(
            GraphFamily::parse("random2ec(12,6,42)").unwrap(),
            GraphFamily::RandomTwoEdgeConnected {
                n: 12,
                extra_edges: 6,
                seed: 42
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        for bad in [
            "nope",
            "cycle",
            "cycle(",
            "cycle(x)",
            "cycle(3,4)",
            "theta(1,2)",
            "petersen(1)",
        ] {
            assert!(GraphFamily::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn build_is_deterministic_for_random_families() {
        let fam = GraphFamily::RandomTwoEdgeConnected {
            n: 10,
            extra_edges: 5,
            seed: 9,
        };
        assert_eq!(fam.build().unwrap(), fam.build().unwrap());
    }

    #[test]
    fn is_ring_only_for_cycles() {
        assert!(GraphFamily::Cycle { n: 5 }.is_ring());
        assert!(!GraphFamily::Wheel { n: 5 }.is_ring());
        assert!(!GraphFamily::Petersen.is_ring());
    }
}
