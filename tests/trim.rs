//! Differential battery for Par-Trim: the counter-pass kernel
//! (`trim::par_trim`) must reach exactly the fixpoint of the paper's
//! round-by-round Algorithm 4 (`trim::par_trim_sweeping`) — same resolved
//! count, same alive set, same colors — at 1, 2 and 4 threads, on both
//! storage backends.
//!
//! Inputs are random graphs with duplicate edges and duplicate self-loops
//! (`CsrGraph::from_edges` keeps both), starting from a fresh state or
//! from a state with 2–3 colors and pre-resolved nodes, with and without
//! a compacted live set.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use swscc::core::state::{AlgoState, Color, INITIAL_COLOR};
use swscc::core::trim::{par_trim, par_trim_sweeping};
use swscc::graph::compressed::CompressedCsr;
use swscc::graph::datasets::Dataset;
use swscc::graph::GraphView;
use swscc::parallel::pool::with_pool;
use swscc::{CompactionPolicy, CsrGraph, NodeId};

const THREADS: [usize; 3] = [1, 2, 4];

/// The starting state of one case.
#[derive(Clone, Copy, Debug)]
enum Start {
    /// Nothing resolved, one color: the counters come from degrees.
    Fresh,
    /// `colors` colors (2 or 3) and about a tenth of the nodes resolved
    /// up front: the counters come from an adjacency scan.
    Partitioned { colors: u32, seed: u64 },
}

/// A random graph with duplicate edges and, on some nodes, one to three
/// copies of a self-loop.
fn random_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.random_range(1..120usize);
    let m = rng.random_range(0..3 * n);
    let mut edges: Vec<(NodeId, NodeId)> = (0..m)
        .map(|_| {
            (
                rng.random_range(0..n) as NodeId,
                rng.random_range(0..n) as NodeId,
            )
        })
        .collect();
    for i in 0..edges.len() / 4 {
        edges.push(edges[i * 3 % edges.len()]);
    }
    for v in 0..n as NodeId {
        if rng.random_range(0..4u32) == 0 {
            for _ in 0..rng.random_range(1..4u32) {
                edges.push((v, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Builds the state `start` describes; the same `start` gives the same
/// state on any backend.
fn prepare<G: GraphView>(g: &G, start: Start, compact: bool) -> AlgoState<'_, G> {
    let s = AlgoState::new(g);
    if let Start::Partitioned { colors, seed } = start {
        let mut rng = SmallRng::seed_from_u64(seed);
        let palette: Vec<Color> = std::iter::once(INITIAL_COLOR)
            .chain((1..colors).map(|_| s.alloc_color()))
            .collect();
        for v in g.nodes() {
            s.set_color(v, palette[rng.random_range(0..palette.len())]);
        }
        for v in g.nodes() {
            if rng.random_range(0..10u32) == 0 {
                s.resolve_singleton(v);
            }
        }
    }
    if compact {
        s.compact_live(CompactionPolicy::Always);
    }
    s
}

/// The observable outcome of a trim: resolved count, alive set, colors.
fn outcome<G: GraphView>(s: &AlgoState<'_, G>, resolved: usize) -> (usize, Vec<bool>, Vec<Color>) {
    let nodes = s.g.nodes();
    (
        resolved,
        nodes.clone().map(|v| s.alive(v)).collect(),
        nodes.map(|v| s.color(v)).collect(),
    )
}

/// Runs `par_trim` twice on one state at `threads`; the second call must
/// find nothing left to trim.
fn trim_twice<G: GraphView>(
    g: &G,
    start: Start,
    compact: bool,
    threads: usize,
) -> (usize, Vec<bool>, Vec<Color>) {
    with_pool(threads, || {
        let s = prepare(g, start, compact);
        let resolved = par_trim(&s);
        assert_eq!(par_trim(&s), 0, "second trim resolved more ({start:?})");
        outcome(&s, resolved)
    })
}

#[test]
fn counter_trim_matches_sweeping_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x7e1a);
    let mut partial_fixpoints = 0;
    for case in 0..150u64 {
        let g = random_graph(&mut rng);
        let compressed = CompressedCsr::from_csr(&g);
        let starts = [
            Start::Fresh,
            Start::Partitioned {
                colors: 2,
                seed: case,
            },
            Start::Partitioned {
                colors: 3,
                seed: case ^ 0x5eed,
            },
        ];
        for start in starts {
            for compact in [false, true] {
                let oracle = with_pool(1, || {
                    let s = prepare(&g, start, compact);
                    let resolved = par_trim_sweeping(&s);
                    outcome(&s, resolved)
                });
                if oracle.1.iter().any(|&a| a) {
                    partial_fixpoints += 1;
                }
                for threads in THREADS {
                    let ctx =
                        format!("case {case}, {start:?}, compact {compact}, {threads} threads");
                    assert_eq!(
                        trim_twice(&g, start, compact, threads),
                        oracle,
                        "raw: {ctx}"
                    );
                    assert_eq!(
                        trim_twice(&compressed, start, compact, threads),
                        oracle,
                        "compressed: {ctx}"
                    );
                }
            }
        }
    }
    // Vacuity guard: a battery where everything always trims would not
    // tell the kernels apart.
    assert!(
        partial_fixpoints > 100,
        "only {partial_fixpoints} cases kept a residue"
    );
}

#[test]
fn patents_analog_trims_completely_at_every_width() {
    let g = Dataset::Patents.generate(2.0, 1);
    for threads in THREADS {
        let resolved = with_pool(threads, || par_trim(&AlgoState::new(&g)));
        assert_eq!(resolved, g.num_nodes(), "{threads} threads");
    }
}
