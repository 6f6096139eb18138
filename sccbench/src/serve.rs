//! Served phases: the set-up `Server` answers over a unix socket in this
//! process, first to read-only traffic, then to open-loop writes beside
//! a closed-loop reader.
//!
//! Read phase: one closed-loop connection per hardware thread sends a
//! seeded script of `scc-id` and `same-scc` (point) requests with a
//! fixed share of `condensation-reach`. Every point answer is checked
//! against the reference partition, and a seeded sample of reach
//! answers against a BFS over the benchmark's copy of the graph.
//!
//! Mixed phase: one connection sends writes open loop at the workload's
//! rate, inserts of an absent pair alternating with deletes of an edge
//! that exists, each timed from when it was due; a second connection
//! sends point requests closed loop with a short pause between a reply
//! and the next request. After the window the acknowledged
//! script is replayed on the benchmark's copy and the served `scc-id`
//! of every node is checked against the reference on the mutated graph.

use crate::echo::Echo;
use crate::reference::{canonical, reaches, tarjan, PlainGraph};
use crate::util::{median, percentile, us, Histogram, Rng};
use crate::{threads, trace, Env, Oracle, Outcome, Workload};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use swscc_serve::{Client, Endpoint, Listener, Response, StatsReply};

/// Per-request budget: far above any latency the seed code shows, so a
/// `DeadlineExceeded` is a regression, not a tuning artefact.
const DEADLINE_MS: u32 = 30_000;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Reach answers re-checked by BFS after the read phase.
const REACH_CHECKS: usize = 48;
/// Reach queries each read client keeps for the checks and the traced
/// run's in-process replay.
const REACH_KEEP: usize = 20_000;
/// A read client reconnects, and restarts its echo, this often. Where
/// the scheduler puts a client, its handler and its echo thread on the
/// two cores changes a round trip by up to a third, and a placement
/// tends to stick for the life of the threads; fresh threads every
/// epoch turn that between-run swing into a within-run mix.
const READ_EPOCH: Duration = Duration::from_millis(100);
/// Every `ECHO_EVERY` reads, a client times `ECHO_BURST` echo round
/// trips (see `echo.rs`).
const ECHO_EVERY: u64 = 256;
const ECHO_BURST: usize = 32;
/// Pings timed for the transport floor (traced run only).
const PINGS: usize = 2_000;
/// Pause between a mixed-phase read's reply and the next request. The
/// reader stays closed loop, but without the pause it and its handler
/// thread would hold both cores and the write latencies would measure
/// the scheduler more than the write path.
const MIXED_THINK: Duration = Duration::from_micros(200);

#[derive(Clone, Copy)]
enum Verb {
    SccId,
    SameScc,
    Reach,
}

enum Answer {
    Id(u32),
    Bool(bool),
    /// A typed refusal: counts as failed and as missing any latency
    /// limit.
    Refused,
}

/// One write of the mixed script: `(insert?, u, v)`.
pub type Write = (bool, u32, u32);

#[derive(Default)]
pub struct Served {
    pub point: Histogram,
    pub reach: Histogram,
    /// Echo round trips timed between the reads.
    pub echo: Histogram,
    pub reads_ok: u64,
    pub read_secs: f64,
    pub mixed_point: Histogram,
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    /// Reach queries of the read phase, for the in-process replay.
    pub reach_script: Vec<(u32, u32)>,
    /// Writes the server acknowledged, in order.
    pub acked: Vec<Write>,
    pub ping_us: Vec<f64>,
    /// Point latency with spans on over spans off, in percent.
    pub trace_overhead_pct: f64,
    pub stats: Option<StatsReply>,
}

impl Served {
    pub fn read_rps(&self) -> f64 {
        self.reads_ok as f64 / self.read_secs
    }

    /// Read latencies in units of the echo round trip, timed
    /// interleaved with the requests; write latencies in µs. The write
    /// tail pools inserts and deletes: about 15% of `smallworld`'s
    /// inserts merge components, so an insert-only tail sat on the
    /// boundary between plain inserts and merges and spread 26% of its
    /// median over 10 seeds. A point
    /// query's tail is a wake-up tail, so it is divided by the echo's
    /// tail; a reach query's tail on `dag` is a long DAG walk, so it is
    /// divided by the echo's median. Over 5 seeds each choice spread
    /// 5-13% where the other spread 15-26%.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let (echo_p50, echo_p99) = (self.echo.percentile_us(0.5), self.echo.percentile_us(0.99));
        out.metric(
            "point_p50_vs_echo",
            self.point.percentile_us(0.5) / echo_p50,
            "x",
        );
        out.metric(
            "point_p99_vs_echo",
            self.point.percentile_us(0.99) / echo_p99,
            "x",
        );
        out.metric(
            "reach_p50_vs_echo",
            self.reach.percentile_us(0.5) / echo_p50,
            "x",
        );
        out.metric(
            "reach_p99_vs_echo",
            self.reach.percentile_us(0.99) / echo_p50,
            "x",
        );
        out.metric("reads_per_echo", self.read_rps() * echo_p50 / 1e6, "x");
        out.metric("insert_p50_us", median(&self.insert_us), "us");
        out.metric("delete_p50_us", median(&self.delete_us), "us");
        let writes: Vec<f64> = self
            .insert_us
            .iter()
            .chain(&self.delete_us)
            .copied()
            .collect();
        out.metric("write_p90_us", percentile(&writes, 0.90), "us");
    }
}

fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    Client::connect(endpoint, IO_TIMEOUT).map_err(|e| format!("connect {endpoint}: {e}"))
}

fn socket_path() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.join(format!("sccbench-{}.sock", std::process::id())))
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    seed: u64,
    env: &Env,
    oracle: &Oracle,
    read_budget: Duration,
    mixed_budget: Duration,
    out: &mut Outcome,
) -> Result<Served, String> {
    let endpoint = Endpoint::Unix(socket_path()?);
    let listener = Listener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    let server = std::sync::Arc::clone(&env.server);
    let accept = std::thread::spawn(move || server.run(listener));
    let result = drive(w, seed, &endpoint, oracle, read_budget, mixed_budget, out);
    env.server.request_shutdown();
    let joined = accept.join();
    let served = result?;
    match joined {
        Ok(Ok(())) => Ok(served),
        Ok(Err(e)) => Err(format!("accept loop failed: {e}")),
        Err(_) => Err("accept loop panicked".into()),
    }
}

fn drive(
    w: &Workload,
    seed: u64,
    endpoint: &Endpoint,
    oracle: &Oracle,
    read_budget: Duration,
    mixed_budget: Duration,
    out: &mut Outcome,
) -> Result<Served, String> {
    let mut served = Served::default();
    read_phase(w, seed, endpoint, oracle, read_budget, &mut served, out)?;
    let mut admin = connect(endpoint)?;
    if trace::enabled() {
        for i in 0..PINGS {
            let t = Instant::now();
            trace::span("serve.ping", i as u64, || admin.ping())
                .map_err(|e| format!("ping: {e}"))?;
            served.ping_us.push(us(t.elapsed()));
        }
        served.trace_overhead_pct = trace_overhead(&mut admin, oracle.serve_n as u64, seed)?;
    }
    mixed_phase(w, seed, endpoint, oracle, mixed_budget, &mut served, out)?;
    check_end_state(&mut admin, oracle, &served.acked, out)?;
    served.stats = Some(admin.stats().map_err(|e| format!("stats: {e}"))?);
    Ok(served)
}

/// Sends one read; returns its answer, or `Err` on a transport failure.
fn read_once(client: &mut Client, verb: Verb, u: u32, v: u32, req: u64) -> Result<Answer, String> {
    let response = match verb {
        Verb::SccId => trace::span("serve.scc_id", req, || client.scc_id(u, DEADLINE_MS)),
        Verb::SameScc => trace::span("serve.same_scc", req, || client.same_scc(u, v, DEADLINE_MS)),
        Verb::Reach => trace::span("serve.condensation_reach", req, || {
            client.condensation_reach(u, v, DEADLINE_MS)
        }),
    }
    .map_err(|e| format!("read request: {e}"))?;
    Ok(match (verb, response) {
        (Verb::SccId, Response::Id(id)) => Answer::Id(id),
        (Verb::SameScc | Verb::Reach, Response::Bool(b)) => Answer::Bool(b),
        (_, Response::Overloaded { .. } | Response::DeadlineExceeded | Response::OutOfRange) => {
            Answer::Refused
        }
        (_, other) => return Err(format!("unexpected reply to a read: {other:?}")),
    })
}

fn draw_read(rng: &mut Rng, n: u64, reach_per_mille: u64) -> (Verb, u32, u32) {
    let roll = rng.below(1000);
    let u = rng.below(n) as u32;
    let v = rng.below(n) as u32;
    let verb = if roll < reach_per_mille {
        Verb::Reach
    } else if roll.is_multiple_of(2) {
        Verb::SccId
    } else {
        Verb::SameScc
    };
    (verb, u, v)
}

/// What one read client saw, checked as it went, in memory that does
/// not grow with the number of requests.
struct ReadLog {
    point: Histogram,
    reach: Histogram,
    echo: Histogram,
    ok: u64,
    refused: u64,
    /// Served component id -> reference label.
    to_ref: HashMap<u32, u32>,
    /// The first reach queries and their answers.
    reach_answers: Vec<(u32, u32, bool)>,
    wrong: Option<String>,
}

fn read_client(
    w: &Workload,
    seed: u64,
    c: usize,
    endpoint: &Endpoint,
    labels: &[u32],
    start: Instant,
    budget: Duration,
) -> Result<ReadLog, String> {
    let mut client = connect(endpoint)?;
    let mut echo = Echo::start().map_err(|e| format!("echo: {e}"))?;
    let mut epoch = Instant::now();
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
    let mut log = ReadLog {
        point: Histogram::default(),
        reach: Histogram::default(),
        echo: Histogram::default(),
        ok: 0,
        refused: 0,
        to_ref: HashMap::new(),
        reach_answers: Vec::with_capacity(REACH_KEEP),
        wrong: None,
    };
    let mut req = (c as u64) << 32;
    while start.elapsed() < budget {
        if epoch.elapsed() >= READ_EPOCH {
            drop(client);
            drop(echo);
            client = connect(endpoint)?;
            echo = Echo::start().map_err(|e| format!("echo: {e}"))?;
            epoch = Instant::now();
        }
        if req.is_multiple_of(ECHO_EVERY) {
            for _ in 0..ECHO_BURST {
                log.echo
                    .record(echo.round_trip().map_err(|e| format!("echo: {e}"))?);
            }
        }
        let (verb, u, v) = draw_read(&mut rng, labels.len() as u64, w.reach_per_mille);
        let t = Instant::now();
        let answer = read_once(&mut client, verb, u, v, req)?;
        let lat = t.elapsed();
        req += 1;
        let (lu, lv) = (labels[u as usize], labels[v as usize]);
        let wrong = match (verb, answer) {
            (_, Answer::Refused) => {
                log.refused += 1;
                continue;
            }
            (Verb::SccId, Answer::Id(id)) => {
                log.point.record(lat);
                (*log.to_ref.entry(id).or_insert(lu) != lu).then(|| format!("scc-id({u}) = {id}"))
            }
            (Verb::SameScc, Answer::Bool(b)) => {
                log.point.record(lat);
                (b != (lu == lv)).then(|| format!("same-scc({u}, {v}) = {b}"))
            }
            (Verb::Reach, Answer::Bool(b)) => {
                log.reach.record(lat);
                if log.reach_answers.len() < REACH_KEEP {
                    log.reach_answers.push((u, v, b));
                }
                None
            }
            _ => Some(format!("read of {u} answered with the wrong reply type")),
        };
        log.ok += 1;
        if log.wrong.is_none() {
            log.wrong = wrong;
        }
    }
    Ok(log)
}

fn read_phase(
    w: &Workload,
    seed: u64,
    endpoint: &Endpoint,
    oracle: &Oracle,
    budget: Duration,
    served: &mut Served,
    out: &mut Outcome,
) -> Result<(), String> {
    let labels = &oracle.serve_labels;
    let start = Instant::now();
    let logs: Vec<Result<ReadLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads())
            .map(|c| s.spawn(move || read_client(w, seed, c, endpoint, labels, start, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("read client panicked".into()))
            })
            .collect()
    });
    served.read_secs = start.elapsed().as_secs_f64();

    // Each client checked its ids against one served -> reference map;
    // the maps must also agree with each other and be one-to-one, so the
    // served partition equals the reference one where it was asked.
    let mut to_ref: HashMap<u32, u32> = HashMap::new();
    let mut to_served: HashMap<u32, u32> = HashMap::new();
    let mut reach_answers = Vec::new();
    for log in logs {
        let log = log?;
        out.attempted += log.ok + log.refused;
        out.failed += log.refused;
        served.reads_ok += log.ok;
        served.point.merge(&log.point);
        served.reach.merge(&log.reach);
        served.echo.merge(&log.echo);
        if let Some(what) = log.wrong {
            out.wrong(what);
        }
        for (id, r) in log.to_ref {
            if *to_ref.entry(id).or_insert(r) != r || *to_served.entry(r).or_insert(id) != id {
                out.wrong(format!(
                    "served component {id} disagrees with the reference partition"
                ));
            }
        }
        reach_answers.extend(log.reach_answers);
    }
    // The script is seeded, so this evenly spaced sample is too.
    let step = (reach_answers.len() / REACH_CHECKS).max(1);
    for &(u, v, b) in reach_answers.iter().step_by(step) {
        if reaches(&oracle.serve, u, v) != b {
            out.wrong(format!("condensation-reach({u}, {v}) = {b}"));
        }
    }
    served.reach_script = reach_answers.into_iter().map(|(u, v, _)| (u, v)).collect();
    eprintln!(
        "sccbench: read phase {} reads in {:.2} s: point p50 {:.1} us, reach p50 {:.1} us, echo p50 {:.2} us; p99 point {:.2} echo {:.2} us",
        served.reads_ok,
        served.read_secs,
        served.point.percentile_us(0.5),
        served.reach.percentile_us(0.5),
        served.echo.percentile_us(0.5),
        served.point.percentile_us(0.99),
        served.echo.percentile_us(0.99)
    );
    Ok(())
}

/// Point latency with spans on over spans off, from alternating blocks
/// on one connection.
fn trace_overhead(client: &mut Client, n: u64, seed: u64) -> Result<f64, String> {
    const BLOCKS: usize = 20;
    const PER_BLOCK: usize = 250;
    let mut rng = Rng::new(seed ^ 0x0B5E);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for b in 0..BLOCKS * 2 {
        let traced = b % 2 == 0;
        trace::set_enabled(traced);
        for _ in 0..PER_BLOCK {
            let u = rng.below(n) as u32;
            let t = Instant::now();
            read_once(client, Verb::SccId, u, u, b as u64)?;
            let lat = us(t.elapsed());
            if traced {
                on.push(lat)
            } else {
                off.push(lat)
            }
        }
    }
    trace::set_enabled(true);
    Ok((median(&on) / median(&off) - 1.0) * 100.0)
}

/// Inserts of absent pairs alternate with deletes of present edges, so
/// the graph keeps its size; every write changes the graph, so none is
/// a no-op that only republishes.
fn write_script(w: &Workload, oracle: &Oracle, count: usize, rng: &mut Rng) -> Vec<Write> {
    let n = oracle.serve_n as u64;
    let mut present: HashSet<(u32, u32)> = oracle.serve_edges.iter().copied().collect();
    let mut live: Vec<(u32, u32)> = present.iter().copied().collect();
    live.sort_unstable();
    let mut script = Vec::with_capacity(count);
    for i in 0..count {
        if i % 2 == 1 {
            let (u, v) = live.swap_remove(rng.below(live.len() as u64) as usize);
            present.remove(&(u, v));
            script.push((false, u, v));
        } else {
            let (u, v) = loop {
                let (mut u, mut v) = (rng.below(n) as u32, rng.below(n) as u32);
                if w.inserts_keep_order && u < v {
                    std::mem::swap(&mut u, &mut v);
                }
                if u != v && !present.contains(&(u, v)) {
                    break (u, v);
                }
            };
            present.insert((u, v));
            live.push((u, v));
            script.push((true, u, v));
        }
    }
    script
}

fn mixed_phase(
    w: &Workload,
    seed: u64,
    endpoint: &Endpoint,
    oracle: &Oracle,
    budget: Duration,
    served: &mut Served,
    out: &mut Outcome,
) -> Result<(), String> {
    let count = ((budget.as_secs_f64() * w.write_hz) as usize).max(3);
    let script = write_script(w, oracle, count, &mut Rng::new(seed ^ 0x3717E));
    let interval = Duration::from_secs_f64(1.0 / w.write_hz);
    let done = AtomicBool::new(false);
    let n = oracle.serve_n as u64;
    let (writes, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| -> Result<(Histogram, u64), String> {
            let mut client = connect(endpoint)?;
            let mut rng = Rng::new(seed.wrapping_mul(77).wrapping_add(5));
            let (mut hist, mut refused) = (Histogram::default(), 0);
            let mut req = 1u64 << 40;
            // ordering: a stop flag; results travel through the join.
            while !done.load(Ordering::Relaxed) {
                let (verb, u, v) = draw_read(&mut rng, n, 0);
                let t = Instant::now();
                match read_once(&mut client, verb, u, v, req)? {
                    Answer::Refused => refused += 1,
                    _ => hist.record(t.elapsed()),
                }
                req += 1;
                std::thread::sleep(MIXED_THINK);
            }
            Ok((hist, refused))
        });
        let writes = (|| -> Result<Vec<(Response, f64, f64)>, String> {
            let mut client = connect(endpoint)?;
            let start = Instant::now();
            let mut log = Vec::with_capacity(script.len());
            for (i, &(insert, u, v)) in script.iter().enumerate() {
                let due = start + interval * i as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = us(Instant::now().saturating_duration_since(due));
                let response = if insert {
                    trace::span("serve.insert_edge", i as u64, || {
                        client.insert_edge(u, v, DEADLINE_MS)
                    })
                } else {
                    trace::span("serve.delete_edge", i as u64, || {
                        client.delete_edge(u, v, DEADLINE_MS)
                    })
                }
                .map_err(|e| format!("write request: {e}"))?;
                log.push((response, us(due.elapsed()), late));
            }
            Ok(log)
        })();
        // ordering: see the reader loop.
        done.store(true, Ordering::Relaxed);
        let reads = reader
            .join()
            .unwrap_or_else(|_| Err("mixed reader panicked".into()));
        (writes, reads)
    });

    for (&(insert, u, v), (response, lat, late)) in script.iter().zip(writes?) {
        out.attempted += 1;
        served.lateness_us.push(late);
        match response {
            Response::Mutated(reply) => {
                if reply.applied != 1 {
                    out.wrong(format!(
                        "write ({insert}, {u}, {v}) changed {} edges, not 1",
                        reply.applied
                    ));
                }
                served.acked.push((insert, u, v));
                if insert {
                    served.insert_us.push(lat);
                } else {
                    served.delete_us.push(lat);
                }
            }
            Response::Overloaded { .. }
            | Response::DeadlineExceeded
            | Response::MutateFailed { .. }
            | Response::OutOfRange => out.failed += 1,
            other => out.wrong(format!("unexpected reply to a write: {other:?}")),
        }
    }
    let (hist, refused) = reads?;
    out.attempted += hist.count() + refused;
    out.failed += refused;
    served.mixed_point = hist;
    eprintln!(
        "sccbench: mixed phase {} writes ({} acked): insert p50 {:.0} us, delete p50 {:.0} us, lateness p99 {:.0} us; {} reads p50 {:.1} us",
        script.len(),
        served.acked.len(),
        median(&served.insert_us),
        median(&served.delete_us),
        percentile(&served.lateness_us, 0.99),
        served.mixed_point.count(),
        served.mixed_point.percentile_us(0.5),
    );
    Ok(())
}

/// Replays the acknowledged writes on the benchmark's copy and compares
/// the served `scc-id` of every node with the reference partition.
fn check_end_state(
    client: &mut Client,
    oracle: &Oracle,
    acked: &[Write],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut edges: HashSet<(u32, u32)> = oracle.serve_edges.iter().copied().collect();
    for &(insert, u, v) in acked {
        if insert {
            edges.insert((u, v));
        } else {
            edges.remove(&(u, v));
        }
    }
    let mutated = PlainGraph::from_edges(oracle.serve_n, || edges.iter().copied());
    let expected = canonical(&tarjan(&mutated));
    let mut served_ids = Vec::with_capacity(oracle.serve_n);
    for u in 0..oracle.serve_n as u32 {
        match client
            .scc_id(u, DEADLINE_MS)
            .map_err(|e| format!("scc-id: {e}"))?
        {
            Response::Id(id) => served_ids.push(id),
            other => {
                out.wrong(format!("end-state scc-id({u}) answered {other:?}"));
                return Ok(());
            }
        }
    }
    if canonical(&served_ids) != expected {
        out.wrong("served partition after the mixed phase differs from the reference".into());
    }
    Ok(())
}
