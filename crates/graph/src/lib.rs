//! Compact graph substrate for the small-world reproduction.
//!
//! The paper's experiments need these graph facilities, all provided here
//! with no external dependencies:
//!
//! * a memory-compact, cache-friendly adjacency structure ([`Graph`], CSR
//!   with sorted neighbor lists),
//! * breadth-first search for shortest paths and stretch measurements
//!   ([`traversal`]),
//! * connected components, to condition routing experiments on "s and t in
//!   the same component" as in Theorems 3.1–3.4 ([`Components`]),
//! * degree / clustering statistics to validate sampled GIRGs against the
//!   model's known structural properties ([`stats`]),
//! * a parallel analytics engine — direction-optimizing BFS, bit-parallel
//!   multi-source pair distances, deterministic parallel components — for
//!   the experiment battery's hot paths ([`analytics`]),
//! * the scoring interface greedy routing and forwarding share
//!   ([`Objective`] and its per-target [`ScoreKernel`], in [`score`]),
//!   next to the adjacency views and first-best fold it is used with
//!   ([`view`]).
//!
//! # Examples
//!
//! ```
//! use smallworld_graph::{Graph, NodeId};
//!
//! let mut builder = Graph::builder(4);
//! builder.add_edge(NodeId::new(0), NodeId::new(1))?;
//! builder.add_edge(NodeId::new(1), NodeId::new(2))?;
//! let g = builder.build();
//! assert_eq!(g.degree(NodeId::new(1)), 2);
//! assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
//! assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
//! # Ok::<(), smallworld_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytics;
pub mod csr;
pub mod permute;
pub mod score;
pub mod stats;
pub mod traversal;
pub mod union_find;
pub mod view;

pub use csr::{percolate, percolate_vertices, Graph, GraphBuilder, GraphError, NodeId};
pub use permute::Permutation;
pub use score::{FnObjective, NaiveKernel, NaiveObjective, Objective, ScoreKernel};
pub use traversal::{bfs_distance, bfs_distances, double_sweep_diameter, Components};
pub use union_find::UnionFind;
pub use view::{AdjacencyView, RunFold, GROUP_RUNS, RUN_IDS};
