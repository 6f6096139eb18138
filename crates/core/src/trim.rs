//! Par-Trim (Algorithm 4): parallel detection of size-1 SCCs.
//!
//! A node with zero in-degree or zero out-degree *within its current
//! partition* cannot be on a cycle, so it is a trivial SCC (McLendon et
//! al.'s Trim step). Trimming a node can expose its neighbors, so the
//! kernel runs to a fixpoint. §2.2 explains why this one step resolves
//! the plurality of nodes in real graphs: size-1 SCCs dominate the SCC-size
//! distribution (LiveJournal: ~950k of 4.8M nodes).
//!
//! Two implementations of the identical fixpoint:
//!
//! * [`par_trim`] (the default) — one counter pass, AC-4 style (Guo &
//!   Sekerinski, arXiv 2107.12720). A parallel sweep over the live set
//!   gives every alive node two counters, its alive same-color in- and
//!   out-neighbor entries (self-loops excluded), and collects the nodes
//!   with a zero counter. Each worker then peels from its own stack (the
//!   vertical granularity control of Wang et al., arXiv 2303.04934):
//!   resolving a node takes one entry off the matching counter of each
//!   alive same-color neighbor, and the worker whose decrement takes a
//!   counter to exactly zero pushes that neighbor. There are no rounds,
//!   so a chain of length L costs O(L) decrements, and each adjacency
//!   entry of the live residue is read at most twice (once to count, once
//!   to release).
//! * [`par_trim_sweeping`] — the paper's Algorithm 4 verbatim: re-sweep
//!   all N nodes per round until nothing changes. Kept as the literal
//!   reference (`tests/trim.rs` asserts equivalence; the `components`
//!   criterion bench measures the gap).
//!
//! **Fresh states** (nothing resolved, one color — the first `trim` stage
//! of every stock pipeline) take the counters from `degree()` instead of
//! scanning adjacency. Self-loop entries still have to come off. A
//! self-loop sits in both ascending lists, so a node whose in- or
//! out-list starts above its own id has none; otherwise its counters
//! carry a flag bit, and the first decrement that sees the flag
//! clears it and subtracts the node's self-loop entries (a static count,
//! so whoever clears it subtracts the same number). A list that *starts*
//! with the node itself gets the exact test in the sweep, because it may
//! hold nothing but self-loops. Duplicate edges, self-loops included,
//! count once per entry on both sides.
//!
//! Trims commit immediately (the paper's `Color(n) ← -1` inside the
//! sweep); trimming is monotone, so both kernels reach the same fixpoint
//! whatever the schedule.

use crate::state::{AlgoState, DONE_COLOR};
use rayon::prelude::*;
use swscc_graph::bfs::Direction;
use swscc_graph::{GraphView, NodeId};
use swscc_sync::atomic::{AtomicU32, Ordering};

/// Marks a fresh-state counter that still includes the node's self-loop
/// entries (if it has any). Fresh counters are used only while the graph
/// has fewer edges than this, so no degree reaches the bit.
const SELF_LOOP_FLAG: u32 = 1 << 31;

/// Resolutions between two cancellation polls (and `trim-round` fault
/// points) of one worker's peel.
const POLL_EVERY: usize = 4096;

/// `true` if `n` has an alive same-color `dir`-neighbor other than
/// itself: one early-exit scan.
#[inline]
fn has_effective_neighbor<G: GraphView>(
    state: &AlgoState<'_, G>,
    dir: Direction,
    n: NodeId,
) -> bool {
    let cn = state.color(n);
    state
        .g
        .find_neighbor(dir, n, |k| k != n && state.color(k) == cn)
        .is_some()
}

/// `true` if `n` (alive) is trimmable: zero effective in- or out-degree.
#[inline]
fn trimmable<G: GraphView>(state: &AlgoState<'_, G>, n: NodeId) -> bool {
    !has_effective_neighbor(state, Direction::Backward, n)
        || !has_effective_neighbor(state, Direction::Forward, n)
}

/// Entries of `n`'s self-loop in its (ascending) out-list.
fn self_loops<G: GraphView>(g: &G, n: NodeId) -> u32 {
    let mut loops = 0;
    g.for_each_neighbor_while(Direction::Forward, n, |k| {
        loops += u32::from(k == n);
        k <= n
    });
    loops
}

/// The first entry of `n`'s `dir`-list, if any.
#[inline]
fn first_neighbor<G: GraphView>(g: &G, dir: Direction, n: NodeId) -> Option<NodeId> {
    g.find_neighbor(dir, n, |_| true)
}

/// Two counters per node: slot `2v` counts `v`'s remaining in-entries,
/// slot `2v + 1` its out-entries.
///
/// The slots are never reset. The counting sweep sets both slots of every
/// alive live-set candidate, and the peel touches only alive nodes, so no
/// stale value from an earlier trim is ever read.
struct Counters(Vec<AtomicU32>);

impl Counters {
    /// Takes the run's counter buffer, sized for the graph.
    fn borrow<G: GraphView>(state: &AlgoState<'_, G>) -> Self {
        let mut slots = std::mem::take(&mut *state.trim_slots().lock());
        let len = 2 * state.num_nodes();
        if slots.len() != len {
            slots.clear();
            slots.resize_with(len, || AtomicU32::new(0));
        }
        Counters(slots)
    }

    /// Hands the buffer back for the run's next trim, or frees it when
    /// the trim left nothing alive (no later trim can need it).
    fn give_back<G: GraphView>(self, state: &AlgoState<'_, G>) {
        if state.count_alive() > 0 {
            *state.trim_slots().lock() = self.0;
        }
    }

    #[inline]
    fn slot(v: NodeId, dir: Direction) -> usize {
        2 * v as usize + usize::from(matches!(dir, Direction::Forward))
    }

    #[inline]
    fn set(&self, v: NodeId, din: u32, dout: u32) {
        // ordering: A2 — set by the counting sweep, read by the peel only
        // after that sweep's join.
        self.0[Self::slot(v, Direction::Backward)].store(din, Ordering::Relaxed);
        self.0[Self::slot(v, Direction::Forward)].store(dout, Ordering::Relaxed);
    }

    /// Takes one entry off `w`'s `dir` counter; `true` iff this call took
    /// it to exactly zero (then the caller owns pushing `w`).
    #[inline]
    fn release<G: GraphView>(&self, g: &G, w: NodeId, dir: Direction) -> bool {
        let c = &self.0[Self::slot(w, dir)];
        // ordering: A1 — the counter is the whole protocol: values only
        // fall, so exactly one RMW in its modification order lands on
        // zero, and that RMW's caller is the one that pushes. Nothing is
        // published through it; the pushed node is re-claimed through
        // `resolve_singleton`, and counts are seeded per A2.
        let prev = c.fetch_sub(1, Ordering::Relaxed);
        if prev & SELF_LOOP_FLAG == 0 {
            return prev == 1;
        }
        // ordering: A1 — exactly one `fetch_and` sees the flag set; that
        // caller alone subtracts the (static) self-loop entries.
        let old = c.fetch_and(!SELF_LOOP_FLAG, Ordering::Relaxed);
        if old & SELF_LOOP_FLAG == 0 {
            return false;
        }
        match self_loops(g, w) {
            0 => old == SELF_LOOP_FLAG,
            // ordering: A1 — as the decrement above.
            loops => c.fetch_sub(loops, Ordering::Relaxed) == loops,
        }
    }
}

/// Sets `v`'s counters on a fresh state from its degrees (see the module
/// doc); `true` if `v` is trimmable.
fn count_fresh<G: GraphView>(g: &G, counts: &Counters, v: NodeId) -> bool {
    let din = g.in_degree(v) as u32;
    let dout = g.out_degree(v) as u32;
    if din == 0 || dout == 0 {
        counts.set(v, din, dout);
        return true;
    }
    let fin = first_neighbor(g, Direction::Backward, v);
    let fout = first_neighbor(g, Direction::Forward, v);
    if fin > Some(v) || fout > Some(v) {
        // No self-loop: on a fresh state every entry is alive and
        // same-colored, so the degrees are exact.
        counts.set(v, din, dout);
        return false;
    }
    counts.set(v, din | SELF_LOOP_FLAG, dout | SELF_LOOP_FLAG);
    let only_loops = |dir, first| first == Some(v) && g.find_neighbor(dir, v, |k| k != v).is_none();
    only_loops(Direction::Backward, fin) || only_loops(Direction::Forward, fout)
}

/// Sets `v`'s counters by scanning its adjacency; `true` if `v` is
/// trimmable.
fn count_exact<G: GraphView>(state: &AlgoState<'_, G>, counts: &Counters, v: NodeId) -> bool {
    let cv = state.color(v);
    let count = |dir| {
        let mut d = 0u32;
        state.g.for_each_neighbor(dir, v, |k| {
            d += u32::from(k != v && state.color(k) == cv);
        });
        d
    };
    let (din, dout) = (count(Direction::Backward), count(Direction::Forward));
    counts.set(v, din, dout);
    din == 0 || dout == 0
}

/// Peels from one worker's stack until it runs dry; returns the number of
/// nodes this worker resolved.
fn peel<G: GraphView>(state: &AlgoState<'_, G>, counts: &Counters, seeds: &[NodeId]) -> usize {
    let g = state.g;
    let mut stack = seeds.to_vec();
    let mut resolved = 0usize;
    let mut next_poll = 0usize;
    while let Some(v) = stack.pop() {
        if resolved >= next_poll {
            // Cooperative bail-out: every resolution is complete on its
            // own and trimming is monotone, so stopping here leaves a
            // consistent state (the driver converts the abort to a typed
            // error).
            swscc_sync::fault::point("trim-round");
            if state.should_stop() {
                break;
            }
            next_poll = resolved + POLL_EVERY;
        }
        // Read the color before the claim: the claim sets it to DONE.
        let cv = state.color(v);
        if cv == DONE_COLOR || !state.resolve_singleton(v) {
            continue;
        }
        resolved += 1;
        // v's out-neighbors lose an in-entry, its in-neighbors an
        // out-entry.
        for dir in [Direction::Forward, Direction::Backward] {
            let lost = dir.reverse();
            g.for_each_neighbor(dir, v, |w| {
                if w != v && state.color(w) == cv && counts.release(g, w, lost) {
                    stack.push(w);
                }
            });
        }
    }
    resolved
}

/// Runs Par-Trim to fixpoint over the live set. Returns the number of
/// nodes resolved (each becomes its own size-1 SCC).
pub fn par_trim<G: GraphView>(state: &AlgoState<'_, G>) -> usize {
    if state.count_alive() == 0 {
        return 0;
    }
    let counts = Counters::borrow(state);
    let seeds: Vec<NodeId> = if state.is_fresh() && state.g.num_edges() < SELF_LOOP_FLAG as usize {
        state
            .live()
            .par_collect(|v| count_fresh(state.g, &counts, v))
    } else {
        state
            .live()
            .par_collect(|v| state.alive(v) && count_exact(state, &counts, v))
    };
    let workers = rayon::current_num_threads().min(seeds.len());
    let resolved = if workers == 0 {
        0
    } else {
        let per = seeds.len().div_ceil(workers);
        (0..workers)
            .into_par_iter()
            .map(|w| {
                let lo = (w * per).min(seeds.len());
                let hi = ((w + 1) * per).min(seeds.len());
                peel(state, &counts, &seeds[lo..hi])
            })
            .sum()
    };
    counts.give_back(state);
    resolved
}

/// The paper's Algorithm 4 verbatim: full parallel sweeps over all nodes,
/// repeated until a sweep changes nothing. Same fixpoint as [`par_trim`]
/// (tested), higher cost on deep chains — O(rounds × N) sweeps.
pub fn par_trim_sweeping<G: GraphView>(state: &AlgoState<'_, G>) -> usize {
    let n = state.num_nodes();
    let mut resolved = 0usize;
    loop {
        let trimmed: usize = (0..n as NodeId)
            .into_par_iter()
            .filter(|&v| state.alive(v) && trimmable(state, v) && state.resolve_singleton(v))
            .count();
        if trimmed == 0 {
            return resolved;
        }
        resolved += trimmed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swscc_graph::CsrGraph;

    #[test]
    fn isolated_nodes_trim() {
        let g = CsrGraph::from_edges(3, &[]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 3);
        assert_eq!(s.count_alive(), 0);
    }

    #[test]
    fn cycle_survives() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 0);
        assert_eq!(s.count_alive(), 3);
    }

    #[test]
    fn chain_trims_iteratively() {
        // Fig. 1(b): a -> b -> c plus c,d,e with no cycles; everything trims.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 5);
    }

    #[test]
    fn tail_peels_back_to_cycle() {
        // cycle 0-1-2, tendril chain 2 -> 3 -> 4 -> 5
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 3);
        assert!(s.alive(0) && s.alive(1) && s.alive(2));
        assert!(!s.alive(3) && !s.alive(4) && !s.alive(5));
    }

    #[test]
    fn self_loop_node_trims() {
        // self-loops are excluded from effective degrees, so a node whose
        // only "cycle" is a self-loop is still a size-1 SCC and trims.
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 2);
    }

    #[test]
    fn self_loops_only_node_trims() {
        // 0's lists hold nothing but its two self-loop entries.
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 0), (1, 1), (1, 0), (0, 1)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 0, "0 <-> 1 is a cycle");
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 0), (1, 1)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 2);
    }

    #[test]
    fn flagged_counter_sheds_duplicate_self_loops() {
        // 2's lists start below 2 and hold two self-loop entries, so its
        // fresh counters are flagged; the release from 0 must subtract
        // both entries and push 2.
        let g = CsrGraph::from_edges(3, &[(0, 2), (2, 2), (2, 2), (2, 1)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 3);
        assert_eq!(s.count_alive(), 0);
    }

    #[test]
    fn second_call_resolves_nothing() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (4, 4)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 3);
        assert!(!s.is_fresh());
        assert_eq!(par_trim(&s), 0);
    }

    #[test]
    fn respects_color_partitions() {
        // 0 -> 1 -> 2 -> 0 is a cycle, but recolor node 2 into a different
        // partition: 0 and 1 lose the cycle and must trim; 2 trims too.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        s.set_color(2, c);
        assert_eq!(par_trim(&s), 3);
    }

    #[test]
    fn long_chain_linear_rounds() {
        let n = 50_000u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), n as usize);
    }

    #[test]
    fn two_cycle_survives_trim() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 0);
    }

    #[test]
    fn sweeping_variant_same_fixpoint() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(97);
        for _ in 0..20 {
            let n = rng.random_range(1..200usize);
            let m = rng.random_range(0..4 * n);
            let edges: Vec<_> = (0..m)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let s1 = AlgoState::new(&g);
            let a = par_trim(&s1);
            let s2 = AlgoState::new(&g);
            let b = par_trim_sweeping(&s2);
            assert_eq!(a, b, "different trim counts");
            for v in 0..n as u32 {
                assert_eq!(s1.alive(v), s2.alive(v), "node {v} differs");
            }
        }
    }

    #[test]
    fn sweeping_variant_deep_chain() {
        let n = 5_000u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim_sweeping(&s), n as usize);
    }

    #[test]
    fn result_components_are_singletons() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let s = AlgoState::new(&g);
        assert_eq!(par_trim(&s), 4);
        let r = s.into_result();
        assert_eq!(r.num_components(), 4);
        assert_eq!(r.num_trivial(), 4);
    }
}
