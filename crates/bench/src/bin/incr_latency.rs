//! Incremental-vs-recompute latency artifact (EXPERIMENTS.md §4.5).
//!
//! The claim under test: once the partition is maintained, a single
//! mutation costs its *residue*, not the graph — an in-order insert is
//! O(1), a back-edge merge pays the components its search pops, a delete
//! inside an SCC pays a reachability check that usually certifies the
//! SCC survives, and repays the dirty SCC only when it may split. Each
//! repair path must be ≥ 10x faster (p50) than the full recompute the
//! daemon would otherwise run.
//!
//! Method: build the engine on an R-MAT graph (`SWSCC_RMAT_SCALE`,
//! default 18 — the acceptance graph), then
//!
//! 1. time `rebuild()` as the recompute baseline (median of
//!    `SWSCC_REPS`),
//! 2. stream random cross-pair inserts (`rand:` buckets, each undone
//!    right away) — realistic small-world traffic whose merge windows
//!    are uncontrolled and can swallow the giant SCC; the report counts
//!    how many of them degraded to a full rebuild (`rand_rebuilt`),
//! 3. run controlled round trips over pairs of *isolated* nodes
//!    (`pair:` buckets): insert u→v, insert v→u (a back-edge merge
//!    with residue exactly 2), delete v→u (a dirty repair of that
//!    2-SCC), delete u→v. Isolation means no base path can widen the
//!    window, so these are honest "single mutation" costs — R-MAT's
//!    degree skew always leaves plenty of isolated nodes,
//! 4. delete random edges inside the giant SCC, each undone right away
//!    (`giant:delete`, one bucket whatever the outcome) — at s18 the
//!    giant SCC is larger than `incremental_residue_limit`, so only a
//!    delete the reachability check certifies avoids a full rebuild,
//! 5. merge fresh isolated pairs into the giant SCC (`giant:` buckets):
//!    insert `g -> a`, `a -> b`, `b -> g'` for giant-SCC nodes `g`,
//!    `g'`, so the last insert closes a cycle through the giant SCC.
//!    These are not undone — deleting an edge of the new cycle would
//!    split the giant SCC and rebuild. The merge searches the
//!    condensation, so it costs the giant SCC's condensation degree,
//!    not its size,
//! 6. replay the pair script under compaction thresholds
//!    {0 = never, 64, 1024} for the ablation,
//! 7. replay the pair script once more through the served path: a
//!    [`Client`] over a unix socket to an in-process [`Server`] on the
//!    same graph, so each write also pays the epoch publish and one
//!    socket round trip (`served:` buckets, classified by the reply).
//!
//! Every mutation is bucketed by its returned [`MutationOutcome`] (or,
//! served, by its reply) — nothing is dropped silently; the full
//! histogram is part of the report. The 10x acceptance gate reads
//! `pair:merge`, `pair:delete_repair`, `giant:delete`, `giant:merge`
//! and `served:insert`, the served single insert; the report also gives
//! that insert's ratio to the engine's in-order insert plus one `ping`
//! round trip, and how many giant-SCC deletes were certified.
//!
//! Writes the JSON artifact to `SWSCC_REPORT` (default
//! `target/incremental-latency.json`) — the CI `incremental` lane
//! uploads it. Exit 1 if any gated path misses the 10x bar.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swscc_bench::{median_time, ms, print_header, reps};
use swscc_core::incremental::{IncrementalEngine, MutationOutcome};
use swscc_core::{detect_scc, Algorithm, Pipeline, RunGuard, SccConfig};
use swscc_graph::gen::rmat::{rmat, RmatConfig};
use swscc_graph::{CsrGraph, DeltaGraph};
use swscc_serve::{Client, Endpoint, Listener, Response, ServeConfig, ServedGraph, Server};

const PAIR_SAMPLES: usize = 300;
const INSERT_SAMPLES: usize = 400;
const GIANT_SAMPLES: usize = 300;
const GIANT_MERGES: usize = 100;
const ABLATION_THRESHOLDS: [usize; 3] = [0, 64, 1024];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Latency bucket: one per mutation-outcome class.
#[derive(Default)]
struct Bucket {
    nanos: Vec<u64>,
}

impl Bucket {
    fn push(&mut self, ns: u64) {
        self.nanos.push(ns);
    }

    fn percentile_us(&mut self, p: f64) -> f64 {
        if self.nanos.is_empty() {
            return f64::NAN;
        }
        self.nanos.sort_unstable();
        let idx = ((self.nanos.len() - 1) as f64 * p).round() as usize;
        self.nanos[idx] as f64 / 1e3
    }

    fn json(&mut self, name: &str) -> String {
        format!(
            "\"{name}\":{{\"count\":{},\"p50_us\":{:.2},\"p99_us\":{:.2}}}",
            self.nanos.len(),
            self.percentile_us(0.50),
            self.percentile_us(0.99),
        )
    }
}

fn outcome_class(o: &MutationOutcome) -> &'static str {
    match o {
        MutationOutcome::Noop => "noop",
        MutationOutcome::InOrder => "in_order",
        MutationOutcome::Reordered => "reordered",
        MutationOutcome::Merged { .. } => "merge",
        MutationOutcome::Repaired { .. } => "delete_repair",
        MutationOutcome::Rebuilt => "rebuilt",
    }
}

/// Replays the pair round trips through a served [`Client`] and
/// buckets each write by its reply. Returns the `ping` round-trip p50
/// in microseconds.
fn served_pairs(
    g: &CsrGraph,
    cfg: SccConfig,
    pairs: &[(u32, u32)],
    buckets: &mut HashMap<String, Bucket>,
) -> Result<f64, String> {
    let path = std::env::temp_dir().join(format!("swscc-incr-latency-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path);
    let listener = Listener::bind(&endpoint).map_err(|e| format!("bind: {e}"))?;
    let config = ServeConfig {
        scc: cfg,
        ..ServeConfig::default()
    };
    let server =
        Server::new(ServedGraph::Raw(g.clone()), config).map_err(|e| format!("server: {e}"))?;
    let loop_server = Arc::clone(&server);
    let handle = swscc_sync::thread::spawn(move || loop_server.run(listener));
    let result = (|| {
        let mut c = Client::connect(&endpoint, Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
        let mut ping = Bucket::default();
        for _ in 0..PAIR_SAMPLES {
            let t0 = Instant::now();
            c.ping().map_err(|e| format!("ping: {e}"))?;
            ping.push(t0.elapsed().as_nanos() as u64);
        }
        for &(u, v) in pairs {
            for (insert, a, b) in [(true, u, v), (true, v, u), (false, v, u), (false, u, v)] {
                let t0 = Instant::now();
                let reply = if insert {
                    c.insert_edge(a, b, 0)
                } else {
                    c.delete_edge(a, b, 0)
                };
                let ns = t0.elapsed().as_nanos() as u64;
                let class = match (insert, reply) {
                    (true, Ok(Response::Mutated(r))) if r.merges > 0 => "served:merge",
                    (true, Ok(Response::Mutated(_))) => "served:insert",
                    (false, Ok(Response::Mutated(r))) if r.splits > 0 => "served:delete_repair",
                    (false, Ok(Response::Mutated(_))) => "served:delete",
                    (_, other) => return Err(format!("served write {a}->{b}: {other:?}")),
                };
                buckets.entry(class.to_string()).or_default().push(ns);
            }
        }
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(ping.percentile_us(0.50))
    })();
    if result.is_err() {
        server.request_shutdown();
    }
    match handle.join() {
        Ok(Ok(())) => result,
        Ok(Err(e)) => Err(format!("accept loop: {e}")),
        Err(_) => Err("accept loop panicked".to_string()),
    }
}

fn main() -> ExitCode {
    print_header("incremental maintenance vs full recompute (§4.5)");
    let scale: u32 = std::env::var("SWSCC_RMAT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(18);
    let reps = reps();
    let g = rmat(&RmatConfig::graph500(scale, 8, 0x5cc));
    let (nodes, edges) = (g.num_nodes(), g.num_edges());
    println!("rmat-s{scale}: {nodes} nodes, {edges} edges");

    // Oracle labels gate the random phase and pick the giant-SCC
    // deletes; isolated nodes seed the controlled phase (no base path
    // can widen a merge window between two isolated nodes, so residue
    // is exactly 2 by construction — the honest claim is cost ∝
    // residue). At s18 the giant SCC is larger than
    // `incremental_residue_limit`: a delete inside it costs the
    // reachability check when the check certifies the SCC survives,
    // and degrades to the very recompute it is compared against when
    // the check proves a split or runs out of budget.
    let cfg = SccConfig::default();
    let labels = detect_scc(&g, Algorithm::Tarjan, &cfg).0.canonical_labels();
    let mut touched = vec![false; nodes];
    for (u, v) in g.edges() {
        touched[u as usize] = true;
        touched[v as usize] = true;
    }
    let isolated: Vec<u32> = (0..nodes as u32)
        .filter(|&n| !touched[n as usize])
        .take(2 * (PAIR_SAMPLES + GIANT_MERGES))
        .collect();
    let (pair_nodes, fresh_nodes) = isolated.split_at(isolated.len().min(2 * PAIR_SAMPLES));
    let pairs: Vec<(u32, u32)> = pair_nodes.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    let fresh: Vec<(u32, u32)> = fresh_nodes.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    println!(
        "controlled pairs from isolated nodes: {} (wanted {PAIR_SAMPLES}), {} more to merge \
         into the giant SCC (wanted {GIANT_MERGES})",
        pairs.len(),
        fresh.len()
    );

    let guard = RunGuard::new();
    let pipeline = Pipeline::stock(Algorithm::Method2).expect("method2 has a stock pipeline");
    let mut engine = IncrementalEngine::new(DeltaGraph::new(g.clone()), pipeline, cfg, &guard)
        .expect("initial build");

    // Baseline: the full recompute a batch-only daemon pays per change.
    let recompute = median_time(reps, || {
        engine.rebuild(&guard).expect("rebuild");
    });
    println!("full recompute: {} ms (median of {reps})", ms(recompute));

    // Mutation stream, bucketed by `phase:outcome`.
    let mut buckets: HashMap<String, Bucket> = HashMap::new();
    let time_one = |engine: &mut IncrementalEngine<CsrGraph>,
                    buckets: &mut HashMap<String, Bucket>,
                    phase: &str,
                    insert: bool,
                    u: u32,
                    v: u32| {
        let t0 = Instant::now();
        let outcome = if insert {
            engine.insert_edge(u, v, &guard)
        } else {
            engine.delete_edge(u, v, &guard)
        }
        .expect("mutation");
        let ns = t0.elapsed().as_nanos() as u64;
        buckets
            .entry(format!("{phase}:{}", outcome_class(&outcome)))
            .or_default()
            .push(ns);
    };

    // Random cross pairs, undone right away: realistic traffic. The
    // occasional merge here closes an uncontrolled condensation window
    // (often through the giant SCC) — reported, but not the gate.
    let rebuilds_before = engine.counters().full_rebuilds;
    let mut rng = 0x0121_75cc_u64;
    for _ in 0..INSERT_SAMPLES {
        let u = (splitmix64(&mut rng) % nodes as u64) as u32;
        let v = (splitmix64(&mut rng) % nodes as u64) as u32;
        if labels[u as usize] == labels[v as usize] {
            continue;
        }
        time_one(&mut engine, &mut buckets, "rand", true, u, v);
        engine.delete_edge(u, v, &guard).expect("undo insert");
    }
    // Undoing a merge through the giant SCC splits it again, which
    // rebuilds; those untimed rebuilds are reported apart.
    let rand_rebuilt = buckets.get("rand:rebuilt").map_or(0, |b| b.nanos.len());
    let undo_rebuilt = engine.counters().full_rebuilds - rebuilds_before - rand_rebuilt as u64;
    println!("random inserts: {rand_rebuilt} rebuilt, {undo_rebuilt} undos rebuilt");

    // Controlled round trips: insert u→v, insert v→u (residue-2 merge),
    // delete v→u (residue-2 repair), delete u→v.
    for &(u, v) in &pairs {
        time_one(&mut engine, &mut buckets, "pair", true, u, v);
        time_one(&mut engine, &mut buckets, "pair", true, v, u);
        time_one(&mut engine, &mut buckets, "pair", false, v, u);
        time_one(&mut engine, &mut buckets, "pair", false, u, v);
    }

    // Random edges inside the giant SCC, each deleted and put back.
    // Every delete lands in one bucket, certified or not; the undo is
    // untimed (a split's undo is a merge that may rebuild).
    let mut sizes: HashMap<u32, usize> = HashMap::new();
    for &l in &labels {
        *sizes.entry(l).or_default() += 1;
    }
    let (giant, giant_size) = sizes
        .into_iter()
        .max_by_key(|&(l, n)| (n, l))
        .expect("non-empty graph");
    let giant_edges: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(u, v)| u != v && labels[u as usize] == giant && labels[v as usize] == giant)
        .collect();
    let before = engine.counters();
    for _ in 0..GIANT_SAMPLES.min(giant_edges.len()) {
        let (u, v) = giant_edges[(splitmix64(&mut rng) % giant_edges.len() as u64) as usize];
        let t0 = Instant::now();
        engine.delete_edge(u, v, &guard).expect("giant delete");
        let ns = t0.elapsed().as_nanos() as u64;
        buckets
            .entry("giant:delete".to_string())
            .or_default()
            .push(ns);
        engine.insert_edge(u, v, &guard).expect("undo giant delete");
    }
    let giant_certified = engine.counters().certified - before.certified;
    println!(
        "giant SCC: {giant_size} nodes (residue limit {}); {giant_certified} of {} deletes certified",
        cfg.incremental_residue_limit,
        buckets.get("giant:delete").map_or(0, |b| b.nanos.len()),
    );

    // Fresh isolated pairs merged into the giant SCC through a new
    // cycle g -> a -> b -> g', kept: the giant grows by two nodes each.
    let giant_nodes: Vec<u32> = (0..nodes as u32)
        .filter(|&n| labels[n as usize] == giant)
        .collect();
    let before = engine.counters();
    for &(a, b) in &fresh {
        let g_in = giant_nodes[(splitmix64(&mut rng) % giant_nodes.len() as u64) as usize];
        let g_out = giant_nodes[(splitmix64(&mut rng) % giant_nodes.len() as u64) as usize];
        time_one(&mut engine, &mut buckets, "giant", true, g_in, a);
        time_one(&mut engine, &mut buckets, "giant", true, a, b);
        time_one(&mut engine, &mut buckets, "giant", true, b, g_out);
    }
    let after = engine.counters();
    println!(
        "giant SCC merges: {} of {} pairs merged, {} full rebuilds",
        after.merges - before.merges,
        fresh.len(),
        after.full_rebuilds - before.full_rebuilds
    );

    // The same round trips, served: engine write + epoch publish + one
    // socket round trip each.
    let ping_us = match served_pairs(&g, cfg, &pairs, &mut buckets) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("served phase failed: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "\n{:<20} {:>7} {:>12} {:>12}",
        "bucket", "count", "p50 us", "p99 us"
    );
    let mut classes: Vec<String> = buckets.keys().cloned().collect();
    classes.sort_unstable();
    for class in &classes {
        let b = buckets.get_mut(class).unwrap();
        println!(
            "{:<20} {:>7} {:>12.2} {:>12.2}",
            class,
            b.nanos.len(),
            b.percentile_us(0.50),
            b.percentile_us(0.99)
        );
    }

    // Compaction-threshold ablation. A full round trip cancels out of
    // the overlay, so each pair leaves its u→v edge pending (net +1
    // per pair) — the overlay genuinely deepens and the threshold has
    // something to fire on. Leftovers are deleted and folded between
    // runs so every threshold starts from a clean base.
    println!("\ncompaction ablation ({} mutations/run):", 3 * pairs.len());
    let mut ablation_rows = Vec::new();
    for threshold in ABLATION_THRESHOLDS {
        let t0 = Instant::now();
        let mut compactions = 0u64;
        for &(u, v) in &pairs {
            engine.insert_edge(u, v, &guard).expect("ablation insert");
            engine.insert_edge(v, u, &guard).expect("ablation insert");
            engine.delete_edge(v, u, &guard).expect("ablation delete");
            if threshold > 0 && engine.graph().pending() >= threshold {
                engine.compact();
                compactions += 1;
            }
        }
        let total = t0.elapsed();
        println!(
            "  threshold {:>5}: {:>9} ms total, {compactions} compactions, {} pending at end",
            threshold,
            ms(total),
            engine.graph().pending()
        );
        ablation_rows.push(format!(
            "{{\"threshold\":{threshold},\"total_ms\":{:.2},\"compactions\":{compactions}}}",
            total.as_secs_f64() * 1e3
        ));
        for &(u, v) in &pairs {
            engine.delete_edge(u, v, &guard).expect("ablation cleanup");
        }
        engine.compact();
    }

    // Acceptance: the repair paths, the giant-SCC delete and merge, and
    // the served single insert ≥ 10x faster (p50) than recompute.
    let recompute_us = recompute.as_secs_f64() * 1e6;
    let mut verdicts = Vec::new();
    for class in [
        "pair:merge",
        "pair:delete_repair",
        "giant:delete",
        "giant:merge",
        "served:insert",
    ] {
        let Some(b) = buckets.get_mut(class) else {
            verdicts.push(format!("{class}: NO SAMPLES — sampling bug"));
            continue;
        };
        let p50 = b.percentile_us(0.50);
        let speedup = recompute_us / p50;
        println!("{class}: p50 {p50:.2} us vs recompute {recompute_us:.0} us — {speedup:.0}x");
        if speedup < 10.0 {
            verdicts.push(format!("{class}: only {speedup:.1}x (< 10x bar)"));
        }
    }

    // How far the served insert is from the engine's plus one round trip.
    let p50 = |buckets: &mut HashMap<String, Bucket>, class: &str| {
        buckets
            .get_mut(class)
            .map_or(f64::NAN, |b| b.percentile_us(0.50))
    };
    let served_insert_us = p50(&mut buckets, "served:insert");
    let engine_insert_us = p50(&mut buckets, "pair:in_order");
    let served_over_engine = served_insert_us / (engine_insert_us + ping_us);
    println!(
        "served single insert: p50 {served_insert_us:.2} us = {served_over_engine:.2}x \
         (engine in-order insert {engine_insert_us:.2} us + ping {ping_us:.2} us)"
    );

    let report = format!(
        "{{\"graph\":\"rmat-s{scale}\",\"nodes\":{nodes},\"edges\":{edges},\
         \"recompute_ms\":{:.2},\"ping_p50_us\":{ping_us:.2},\
         \"served_insert_vs_engine_plus_ping\":{served_over_engine:.2},\
         \"giant_scc_nodes\":{giant_size},\"giant_delete_certified\":{giant_certified},\
         \"rand_rebuilt\":{rand_rebuilt},\
         {},\"ablation\":[{}]}}\n",
        recompute.as_secs_f64() * 1e3,
        classes
            .into_iter()
            .map(|c| buckets.get_mut(&c).unwrap().json(&c))
            .collect::<Vec<_>>()
            .join(","),
        ablation_rows.join(","),
    );
    let path = std::env::var("SWSCC_REPORT")
        .unwrap_or_else(|_| "target/incremental-latency.json".to_string());
    match std::fs::write(&path, &report) {
        Ok(()) => println!("\nartifact written to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }

    if verdicts.is_empty() {
        println!(
            "acceptance: the repair paths, the giant-SCC delete and merge, and the served \
             insert clear the 10x bar ✓"
        );
        ExitCode::SUCCESS
    } else {
        for v in &verdicts {
            eprintln!("acceptance FAILED — {v}");
        }
        ExitCode::from(1)
    }
}
