//! # swscc — fast parallel SCC detection for small-world graphs
//!
//! Façade crate re-exporting the full public API of the workspace, a Rust
//! reproduction of *"On Fast Parallel Detection of Strongly Connected
//! Components (SCC) in Small-World Graphs"* (Hong, Rodia, Olukotun, SC'13).
//!
//! * [`graph`] — CSR graphs, generators, dataset analogs, statistics
//!   (`swscc-graph`).
//! * [`parallel`] — work queue, atomic bitset, thread-pool helpers
//!   (`swscc-parallel`).
//! * [`core`] — the SCC algorithms themselves (`swscc-core`).
//! * [`serve`] — the always-on SCC service: epoch snapshots, admission
//!   control, the wire protocol, and the load generator (`swscc-serve`).
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use swscc::{detect_scc, Algorithm, CsrGraph, SccConfig};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
//! let (result, report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
//! assert_eq!(result.num_components(), 2);
//! assert!(report.total_time.as_nanos() > 0);
//! ```

pub use swscc_core as core;
pub use swscc_graph as graph;
pub use swscc_parallel as parallel;
pub use swscc_serve as serve;
pub use swscc_sync as sync;

pub use swscc_core::{
    detect_scc, run_checked, run_pipeline, Algorithm, Canceller, CompactionPolicy, PanicPolicy,
    Pipeline, PipelineError, PivotStrategy, RecoveryEvent, RunGuard, RunReport, SccConfig,
    SccError, SccResult, SccSnapshot, Stage, WccImpl,
};
pub use swscc_graph::{CsrGraph, GraphBuilder, NodeId};
