//! Graph substrate for the reproduction of *Distributed Computations in
//! Fully-Defective Networks* (PODC 2022).
//!
//! The paper's algorithms run on undirected, simple, 2-edge-connected graphs
//! and rely on two classical structural results:
//!
//! * **Robbins' theorem** — every 2-edge-connected graph admits an
//!   orientation that is strongly connected, hence a closed directed walk (a
//!   *Robbins cycle*) that visits every node and never uses an edge in both
//!   directions. The cycle's arcs are such an orientation: the set of
//!   [`RobbinsCycle::arcs`] holds each edge in exactly one direction.
//! * **Whitney's ear decomposition** — every 2-edge-connected graph is a
//!   simple cycle plus a sequence of ears.
//!
//! This crate provides the graph type, a collection of generators used by the
//! test-suite and the benchmark harness, connectivity / bridge analysis,
//! ear decompositions and centralized (reference) Robbins-cycle
//! construction, and the [`RobbinsCycle`] data structure with
//! both the *global* (ID string) and *local* (per-occurrence `prev`/`next`)
//! representations used by the simulators in `fdn-core`.
//!
//! # Example
//!
//! ```
//! use fdn_graph::{generators, connectivity, robbins};
//!
//! let g = generators::figure1();
//! assert!(connectivity::is_two_edge_connected(&g));
//! let cycle = robbins::reference_robbins_cycle(&g, fdn_graph::NodeId(0)).unwrap();
//! cycle.validate(&g).unwrap();
//! assert!(cycle.covers_all_edges(&g));
//! ```

pub mod connectivity;
pub mod cycle;
pub mod ear;
pub mod error;
pub mod family;
pub mod generators;
pub mod graph;
pub mod robbins;

pub use cycle::{LocalCycleView, Occurrence, RobbinsCycle};
pub use ear::{Ear, EarDecomposition};
pub use error::GraphError;
pub use family::GraphFamily;
pub use graph::{Graph, NodeId};
