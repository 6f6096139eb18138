//! The frozen reference: a plain-array graph copy and an iterative
//! Tarjan that belong to the benchmark, not to the program.
//!
//! It has three jobs. Its running time is the denominator of the
//! `partition_*speedup` metrics, so machine-wide drift that slows the
//! program slows the denominator too. Its labels are the oracle every
//! partition and every served answer is checked against. And its own
//! time (`ref.tarjan_ms`) is a drift canary: no change to the program
//! can move it, so when it moves, the machine moved.

/// Forward adjacency in two flat arrays.
pub struct PlainGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl PlainGraph {
    /// Builds the adjacency of `n` nodes by counting sort over two passes
    /// of `edges()`, so no edge list is materialized: a temporary that
    /// size set the process's memory peak, and moved it by 20% between
    /// runs. Duplicate edges are kept; they do not change SCCs.
    pub fn from_edges<I: Iterator<Item = (u32, u32)>>(
        n: usize,
        edges: impl Fn() -> I,
    ) -> PlainGraph {
        let mut offsets = vec![0u32; n + 1];
        for (u, _) in edges() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; offsets[n] as usize];
        for (u, v) in edges() {
            targets[fill[u as usize] as usize] = v;
            fill[u as usize] += 1;
        }
        PlainGraph { offsets, targets }
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Iterative Tarjan: one DFS with an explicit call stack. Returns a
/// component label per node; labels are arbitrary but dense.
pub fn tarjan(g: &PlainGraph) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    let n = g.num_nodes();
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![NONE; n];
    let mut stack: Vec<u32> = Vec::new();
    // (node, position of the next out-edge to look at)
    let mut call: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        call.push((root, 0));
        while let Some(&(v, pos)) = call.last() {
            let nbrs = g.neighbors(v);
            if (pos as usize) < nbrs.len() {
                call.last_mut().expect("non-empty call stack").1 += 1;
                let w = nbrs[pos as usize];
                if index[w as usize] == NONE {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    call.push((w, 0));
                } else if comp[w as usize] == NONE {
                    // Visited and not yet assigned: still on the stack.
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds v");
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Relabels components in order of first appearance, so two partitions
/// are equal exactly when their canonical labels are equal.
pub fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Whether `v` is reachable from `u`, by BFS over the plain graph.
pub fn reaches(g: &PlainGraph, u: u32, v: u32) -> bool {
    if u == v {
        return true;
    }
    let mut seen = vec![false; g.num_nodes()];
    let mut queue = std::collections::VecDeque::from([u]);
    seen[u as usize] = true;
    while let Some(x) = queue.pop_front() {
        for &w in g.neighbors(x) {
            if w == v {
                return true;
            }
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cycles_and_a_tail() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)];
        let g = PlainGraph::from_edges(7, || edges.into_iter());
        let c = canonical(&tarjan(&g));
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
        assert_ne!(c[3], c[5]);
        assert_ne!(c[5], c[6]);
        assert!(reaches(&g, 0, 5));
        assert!(!reaches(&g, 5, 0));
    }
}
