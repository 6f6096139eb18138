//! # swscc-graph — directed-graph substrate
//!
//! Compressed-sparse-row (CSR) directed graphs plus everything needed to
//! *produce* the graph instances evaluated by the SC'13 paper
//! *"On Fast Parallel Detection of Strongly Connected Components (SCC) in
//! Small-World Graphs"* (Hong, Rodia, Olukotun):
//!
//! * [`csr::CsrGraph`] — immutable CSR with forward **and** reverse adjacency
//!   (§4.1 of the paper), the representation all SCC algorithms traverse.
//! * [`view::GraphView`] — the neighbor-access trait every traversal kernel
//!   is generic over, with [`view::MemoryFootprint`] accounting.
//! * [`compressed::CompressedCsr`] — the byte-delta (VarInt) compressed
//!   backend with allocation-free streaming decode and shard-by-shard
//!   streaming construction (GBBS playbook, arXiv 1805.05208).
//! * [`delta::DeltaGraph`] — mutable insert/delete overlay over either
//!   backend (sorted per-vertex deltas, tombstones), itself a `GraphView`,
//!   with a fault-guarded `compact()` rebuild — the streaming-graph seam.
//! * [`builder::GraphBuilder`] — edge-list accumulation with optional
//!   deduplication and self-loop filtering, O(N+M) counting-sort finalize.
//! * [`gen`] — synthetic generators reproducing the structural classes of the
//!   paper's nine datasets: R-MAT / Erdős–Rényi / Watts–Strogatz small-world
//!   graphs, a bow-tie web-graph generator with power-law satellite SCCs, a
//!   citation DAG (Patents analog), and a 2D road lattice (CA-road analog).
//! * [`datasets`] — the per-dataset analog registry used by the benchmark
//!   harness (`livej`, `flickr`, …, `ca_road`).
//! * [`bfs`] — sequential and level-synchronous parallel BFS (§4.2).
//! * [`traverse`] — the unified `EdgeMap` traversal kernel: zero-allocation
//!   frontiers, hybrid sequential fallback, and the Beamer
//!   direction-optimizing switch shared by BFS, the FW/BW peels, and
//!   frontier-driven WCC.
//! * [`stats`] — degree/SCC-size histograms and sampled diameter estimation
//!   (Table 1, Figures 2 and 9).
//! * [`io`] — SNAP-style edge-list text loader/writer so the original
//!   datasets can be dropped in when available.

pub mod bfs;
pub mod builder;
pub mod compressed;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod gen;
pub mod io;
pub mod stats;
pub mod traverse;
pub mod view;

pub use builder::GraphBuilder;
pub use compressed::CompressedCsr;
pub use csr::{CsrError, CsrGraph, NodeId};
pub use delta::{CompactBackend, DeltaGraph, DeltaStats};
pub use traverse::{Adjacency, EdgeMap, EdgeMapOps, EdgeMapScratch, TraversalConfig};
pub use view::{GraphView, MemoryFootprint};
