//! The daemon: accept loop, per-connection handlers, epoch-published
//! snapshots, admission control, and the recompute path.
//!
//! # Availability doctrine
//!
//! The server's one invariant is that **a serving epoch is always
//! installed**. The initial snapshot is built synchronously before the
//! listener opens (a broken graph fails startup loudly); from then on,
//! every recompute builds its replacement *off to the side* and swaps
//! it in atomically via [`EpochCell`], so:
//!
//! * readers never block on a recompute and never observe a torn
//!   snapshot (the epoch and payload travel in one `Arc`);
//! * a recompute that fails — typed error or injected panic — leaves
//!   the previous epoch serving, flips the `stale` stats flag, and
//!   answers the admin with a typed `RecomputeFailed`.
//!
//! # Request lifecycle
//!
//! `read frame → decode → admission → deadline guard → dispatch`, with
//! a panic boundary around the whole dispatch: a handler panic (e.g. a
//! `serve-frame` injected fault) quarantines that one connection while
//! the listener and every other connection keep going. Malformed,
//! oversized, or truncated frames get a typed `BadRequest` reply and
//! the same quarantine — a client speaking garbage loses its
//! connection, never the server.

use crate::admission::AdmissionGate;
use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, FrameError, MutOp, MutateReply,
    Request, Response, MAX_REQUEST_FRAME,
};
use crate::stats::ServerStats;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;
use swscc_core::incremental::{IncrementalEngine, Mutation, MutationOutcome};
use swscc_core::snapshot::SccSnapshot;
use swscc_core::{Algorithm, Pipeline, RunGuard, SccConfig, SccError};
use swscc_graph::{CompressedCsr, CsrGraph, DeltaGraph};
use swscc_sync::atomic::{AtomicBool, Ordering};
use swscc_sync::epoch::EpochCell;
use swscc_sync::{fault, Mutex};

/// The graph a server answers queries about, in either storage backend.
/// The snapshot build is generic over [`swscc_graph::GraphView`], so the compressed
/// backend serves without ever materializing the raw CSR.
pub enum ServedGraph {
    /// Raw CSR adjacency.
    Raw(CsrGraph),
    /// Byte-delta compressed adjacency.
    Compressed(CompressedCsr),
}

/// The mutable maintenance engine behind the serve layer, over either
/// storage backend. Every verb that writes (mutations, compaction, the
/// admin recompute) goes through this enum under the engine mutex; reads
/// never touch it — they answer from the published epoch.
enum EngineKind {
    /// Engine over raw CSR + delta overlay.
    Raw(IncrementalEngine<CsrGraph>),
    /// Engine over compressed CSR + delta overlay.
    Compressed(IncrementalEngine<CompressedCsr>),
}

macro_rules! with_engine {
    ($kind:expr, $e:ident => $body:expr) => {
        match $kind {
            EngineKind::Raw($e) => $body,
            EngineKind::Compressed($e) => $body,
        }
    };
}

impl EngineKind {
    fn apply(&mut self, m: Mutation, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        with_engine!(self, e => e.apply(m, guard))
    }

    fn snapshot(&self, guard: &RunGuard) -> Result<SccSnapshot, SccError> {
        with_engine!(self, e => e.snapshot(guard))
    }

    fn rebuild(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        with_engine!(self, e => e.rebuild(guard))
    }

    fn compact(&mut self) -> usize {
        with_engine!(self, e => e.compact())
    }

    fn poison(&mut self) {
        with_engine!(self, e => e.poison())
    }

    fn pending(&self) -> usize {
        with_engine!(self, e => e.graph().pending())
    }

    fn backlog(&self) -> usize {
        with_engine!(self, e => e.backlog())
    }

    fn num_components(&self) -> usize {
        with_engine!(self, e => e.num_components())
    }
}

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Stage list run at startup and on every recompute.
    pub pipeline: Pipeline,
    /// SCC run configuration (threads, panic policy, ...).
    pub scc: SccConfig,
    /// Admission cap: concurrent admitted queries across all
    /// connections. Excess is shed with `Overloaded`.
    pub max_inflight: usize,
    /// Deadline budget applied when a request says `0`.
    pub default_deadline_ms: u32,
    /// Upper clamp on any client-supplied deadline budget.
    pub max_deadline_ms: u32,
    /// Read *and* write timeout on every connection. Doubles as idle
    /// reaping: a connection silent for this long is dropped.
    pub io_timeout: Duration,
    /// Backoff hint carried in `Overloaded` replies.
    pub retry_after_ms: u32,
    /// Auto-compaction threshold: after a mutation leaves at least this
    /// many entries pending in the graph's delta overlay or the
    /// condensation overlay, the write folds both into fresh bases
    /// before publishing. `0` disables auto-compaction (the `compact`
    /// admin verb still works).
    pub compact_threshold: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            pipeline: Pipeline::stock(Algorithm::Method2)
                .expect("method2 is a pipelined algorithm"),
            scc: SccConfig::default(),
            max_inflight: 64,
            default_deadline_ms: 1_000,
            max_deadline_ms: 60_000,
            io_timeout: Duration::from_secs(5),
            retry_after_ms: 25,
            compact_threshold: 4096,
        }
    }
}

/// One always-on SCC service instance. Construct with [`Server::new`]
/// (which builds the epoch-0 snapshot synchronously), then drive the
/// accept loop with [`Server::run`].
pub struct Server {
    /// The mutable graph + maintained partition; locked only by write
    /// verbs (mutations, compaction, recompute). Readers answer from
    /// the published epoch and never contend on this.
    engine: Mutex<EngineKind>,
    config: ServeConfig,
    cell: EpochCell<SccSnapshot>,
    gate: AdmissionGate,
    stats: ServerStats,
    /// The write-side admission gate: serializes every state-changing
    /// verb (mutation, batch, compaction, recompute). A write arriving
    /// while one is in flight is shed with `Overloaded`, not queued —
    /// the daemon's first duty stays read availability. Doubles as the
    /// `mutating` stats flag.
    write_busy: AtomicBool,
    /// Polled by the accept loop; set by the `shutdown` verb or
    /// [`Server::request_shutdown`].
    shutdown: AtomicBool,
}

/// Clears the write-busy flag on scope exit, including unwinds —
/// a panicking write must never wedge the write verbs forever.
struct BusyReset<'a>(&'a AtomicBool);

impl Drop for BusyReset<'_> {
    fn drop(&mut self) {
        // ordering: Relaxed — the flag is a pure mutual-exclusion gate
        // for the admin verb; the snapshot itself is published through
        // the EpochCell's lock, not through this flag.
        self.0.store(false, Ordering::Relaxed);
    }
}

impl Server {
    /// Builds the maintenance engine and the initial snapshot
    /// (synchronously — a server that cannot compute its graph once
    /// must not open a listener) and returns the ready-to-run instance.
    pub fn new(graph: ServedGraph, config: ServeConfig) -> Result<Arc<Server>, SccError> {
        let guard = RunGuard::new();
        let engine = match graph {
            ServedGraph::Raw(g) => EngineKind::Raw(IncrementalEngine::new(
                DeltaGraph::new(g),
                config.pipeline.clone(),
                config.scc,
                &guard,
            )?),
            ServedGraph::Compressed(g) => EngineKind::Compressed(IncrementalEngine::new(
                DeltaGraph::new(g),
                config.pipeline.clone(),
                config.scc,
                &guard,
            )?),
        };
        let snapshot = engine.snapshot(&guard)?;
        let gate = AdmissionGate::new(config.max_inflight);
        Ok(Arc::new(Server {
            engine: Mutex::new(engine),
            config,
            cell: EpochCell::new(snapshot),
            gate,
            stats: ServerStats::new(),
            write_busy: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        }))
    }

    /// Epoch of the snapshot currently serving.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Asks the accept loop to exit after its current poll. Connection
    /// handlers finish their in-flight frame and then die with their
    /// sockets.
    pub fn request_shutdown(&self) {
        // ordering: Relaxed — a go/no-go flag polled every ~1ms by the
        // accept loop; no data is published through it.
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Runs the accept loop on `listener` until shutdown is requested.
    /// Nonblocking accepts interleave with shutdown polls, so the loop
    /// can never park in the kernel past a shutdown request; handler
    /// threads are detached and bounded by the per-connection I/O
    /// timeouts.
    pub fn run(self: &Arc<Self>, listener: Listener) -> std::io::Result<()> {
        loop {
            // ordering: Relaxed — see `request_shutdown`.
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(());
            }
            match listener.accept() {
                Ok(stream) => {
                    if stream.set_timeouts(self.config.io_timeout).is_err() {
                        // A socket that cannot take timeouts would be a
                        // handler thread we cannot bound: drop it.
                        continue;
                    }
                    let server = Arc::clone(self);
                    drop(swscc_sync::thread::spawn(move || {
                        server.handle_connection(stream)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    swscc_sync::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Binds `endpoint` and runs the accept loop on it. Convenience for
    /// the binary; tests usually bind first to learn the real port.
    pub fn serve(self: &Arc<Self>, endpoint: &Endpoint) -> std::io::Result<()> {
        self.run(Listener::bind(endpoint)?)
    }

    fn reply(&self, stream: &mut Stream, response: &Response) -> Result<(), FrameError> {
        write_frame(stream, &encode_response(response))
    }

    /// One connection's frame loop. Returns (dropping the socket) on
    /// clean close, transport errors, quarantine, or shutdown.
    fn handle_connection(&self, mut stream: Stream) {
        loop {
            let payload = match read_frame(&mut stream, MAX_REQUEST_FRAME) {
                Ok(p) => p,
                Err(FrameError::ConnectionClosed) => return,
                Err(FrameError::Io(_)) => return, // timeout/reset: silent drop
                Err(malformed) => {
                    // Oversized or truncated wire data: typed reply,
                    // then quarantine the connection — its framing is
                    // not trustworthy anymore.
                    self.stats.quarantine();
                    #[allow(
                        clippy::let_underscore_must_use,
                        reason = "the connection is dropped next either way"
                    )]
                    let _ = self.reply(
                        &mut stream,
                        &Response::BadRequest {
                            message: malformed.to_string(),
                        },
                    );
                    return;
                }
            };
            let request = match decode_request(&payload) {
                Ok(r) => r,
                Err(bad) => {
                    self.stats.quarantine();
                    #[allow(
                        clippy::let_underscore_must_use,
                        reason = "the connection is dropped next either way"
                    )]
                    let _ = self.reply(
                        &mut stream,
                        &Response::BadRequest {
                            message: bad.to_string(),
                        },
                    );
                    return;
                }
            };
            // recovery: panic boundary per frame — an injected
            // `serve-frame` fault (or a real handler bug) must cost
            // exactly one connection, never the accept loop; the
            // payload is rethrown nowhere, the connection is
            // quarantined and dropped.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.handle_request(&request)));
            match outcome {
                Ok(response) => {
                    let closing = matches!(response, Response::ShuttingDown);
                    if self.reply(&mut stream, &response).is_err() {
                        return; // slow/dead client: its timeout fired, drop it
                    }
                    if closing {
                        return;
                    }
                }
                Err(_panic) => {
                    self.stats.quarantine();
                    return;
                }
            }
        }
    }

    /// Decoded-request dispatch. Infallible by type: every failure mode
    /// is a `Response` variant (panics are caught one level up).
    fn handle_request(&self, request: &Request) -> Response {
        match *request {
            Request::Ping => Response::Pong,
            Request::Stats => self.stats_reply(),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
            Request::Recompute => self.recompute(),
            Request::SameScc { u, v, deadline_ms } => self.query(deadline_ms, |snap, guard| {
                guard.check()?;
                Ok(match snap.same_scc(u, v) {
                    Some(b) => Response::Bool(b),
                    None => Response::OutOfRange,
                })
            }),
            Request::SccId { u, deadline_ms } => self.query(deadline_ms, |snap, guard| {
                guard.check()?;
                Ok(match snap.scc_id(u) {
                    Some(id) => Response::Id(id),
                    None => Response::OutOfRange,
                })
            }),
            Request::CondReach { u, v, deadline_ms } => self.query(deadline_ms, |snap, guard| {
                Ok(match snap.condensation_reach(u, v, guard)? {
                    Some(b) => Response::Bool(b),
                    None => Response::OutOfRange,
                })
            }),
            Request::InsertEdge { u, v, deadline_ms } => {
                self.mutate(deadline_ms, &[MutOp { insert: true, u, v }])
            }
            Request::DeleteEdge { u, v, deadline_ms } => self.mutate(
                deadline_ms,
                &[MutOp {
                    insert: false,
                    u,
                    v,
                }],
            ),
            Request::BatchMutate {
                deadline_ms,
                ref ops,
            } => self.mutate(deadline_ms, ops),
            Request::Compact => self.compact(),
        }
    }

    /// The write path: one gate admission, then the whole batch applies
    /// under the engine mutex and publishes a **single** repaired epoch.
    /// Failure of any kind — a typed engine error, or a panic from an
    /// injected `incr-merge` fault — leaves the previous epoch serving,
    /// poisons the engine (it heals by rebuild on the next write), and
    /// answers with a typed `MutateFailed`.
    fn mutate(&self, deadline_ms: u32, ops: &[MutOp]) -> Response {
        // The node set is fixed for the server's lifetime, so range is
        // checkable against the serving snapshot without the engine
        // lock — an out-of-range id is a typed client error, not a
        // poison-the-engine event.
        let n = self.cell.load().value().num_nodes() as u32;
        if ops.iter().any(|op| op.u >= n || op.v >= n) {
            return Response::OutOfRange;
        }
        let Some(_busy) = self.claim_write() else {
            return Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        let guard = RunGuard::with_deadline(self.clamp_deadline(deadline_ms));
        let mut engine = self.engine.lock();
        let compact_threshold = self.config.compact_threshold;
        // recovery: panic boundary around the engine write — an escaped
        // panic (injected incr-merge fault, or a worker panic inside a
        // residue pipeline) must degrade to a typed MutateFailed with
        // the old epoch still serving, never take the daemon down.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut reply = MutateReply::default();
            for op in ops {
                let m = if op.insert {
                    Mutation::Insert(op.u, op.v)
                } else {
                    Mutation::Delete(op.u, op.v)
                };
                match engine.apply(m, &guard)? {
                    MutationOutcome::Noop => reply.noops += 1,
                    MutationOutcome::InOrder | MutationOutcome::Reordered => reply.applied += 1,
                    MutationOutcome::Merged { .. } => {
                        reply.applied += 1;
                        reply.merges += 1;
                    }
                    MutationOutcome::Repaired { parts } => {
                        reply.applied += 1;
                        if parts > 1 {
                            reply.splits += 1;
                        }
                    }
                    MutationOutcome::Rebuilt => {
                        reply.applied += 1;
                        reply.rebuilds += 1;
                    }
                }
            }
            let mut compacted = false;
            if compact_threshold > 0 && engine.backlog() >= compact_threshold {
                engine.compact();
                compacted = true;
            }
            let snapshot = engine.snapshot(&guard)?;
            reply.epoch = self.cell.publish(snapshot);
            reply.num_components = engine.num_components() as u64;
            reply.pending_deltas = engine.pending() as u64;
            Ok::<(MutateReply, bool), SccError>((reply, compacted))
        }));
        match outcome {
            Ok(Ok((reply, compacted))) => {
                self.stats.mutation_ok();
                if compacted {
                    self.stats.compaction();
                }
                self.stats.set_pending_deltas(reply.pending_deltas);
                Response::Mutated(reply)
            }
            Ok(Err(e)) => {
                // The engine poisoned itself on the typed error; the
                // next write heals by rebuild.
                self.stats.mutation_failed();
                match e {
                    SccError::DeadlineExceeded => {
                        self.stats.deadline_miss();
                        Response::DeadlineExceeded
                    }
                    other => Response::MutateFailed {
                        message: other.to_string(),
                    },
                }
            }
            Err(panic_payload) => {
                engine.poison();
                self.stats.mutation_failed();
                Response::MutateFailed {
                    message: fault::panic_text(panic_payload.as_ref()),
                }
            }
        }
    }

    /// The admin compaction: fold the delta overlay into a fresh base.
    /// The partition is untouched, so no epoch is published; a killed
    /// compaction (injected `delta-compact` fault) loses only the
    /// rebuild work — the old base + overlay keep answering.
    fn compact(&self) -> Response {
        let Some(_busy) = self.claim_write() else {
            return Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        let mut engine = self.engine.lock();
        // recovery: a panic mid-compaction fires before the backend
        // swap by construction (the delta-compact fault site), so the
        // engine state is intact; poisoning anyway buys rebuild-healing
        // against a mid-swap bug at the cost of one recompute.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| engine.compact()));
        match outcome {
            Ok(folded) => {
                self.stats.compaction();
                self.stats.set_pending_deltas(engine.pending() as u64);
                Response::Compacted {
                    epoch: self.cell.epoch(),
                    folded: folded as u64,
                }
            }
            Err(panic_payload) => {
                engine.poison();
                self.stats.mutation_failed();
                Response::MutateFailed {
                    message: fault::panic_text(panic_payload.as_ref()),
                }
            }
        }
    }

    /// CAS-claims the write gate; the returned guard clears it on every
    /// exit path including unwinds. `None` = another write is in flight.
    fn claim_write(&self) -> Option<BusyReset<'_>> {
        // ordering: Relaxed — pure mutual exclusion for write verbs
        // (see BusyReset); engine state is handed off through the
        // engine mutex, the snapshot through the EpochCell lock.
        self.write_busy
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .ok()?;
        Some(BusyReset(&self.write_busy))
    }

    /// Shared query path: admission → deadline guard → fault point →
    /// snapshot load → answer. The permit is held for the whole answer
    /// and released on every exit path (Drop), including unwinds.
    fn query(
        &self,
        deadline_ms: u32,
        answer: impl FnOnce(&SccSnapshot, &RunGuard) -> Result<Response, SccError>,
    ) -> Response {
        let Some(_permit) = self.gate.try_admit() else {
            self.stats.shed();
            return Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        self.stats.query();
        let guard = RunGuard::with_deadline(self.clamp_deadline(deadline_ms));
        fault::point(fault::SERVE_FRAME);
        let snapshot = self.cell.load();
        match answer(snapshot.value(), &guard) {
            Ok(response) => response,
            Err(e) => self.error_response(e),
        }
    }

    fn clamp_deadline(&self, requested_ms: u32) -> Duration {
        let ms = if requested_ms == 0 {
            self.config.default_deadline_ms
        } else {
            requested_ms.min(self.config.max_deadline_ms)
        };
        Duration::from_millis(u64::from(ms))
    }

    fn error_response(&self, e: SccError) -> Response {
        match e {
            SccError::DeadlineExceeded => {
                self.stats.deadline_miss();
                Response::DeadlineExceeded
            }
            SccError::Overloaded { retry_after_ms } => Response::Overloaded {
                // The wire carries u32 milliseconds; saturate rather
                // than wrap a pathological hint.
                retry_after_ms: u32::try_from(retry_after_ms).unwrap_or(u32::MAX),
            },
            other => Response::Internal {
                message: other.to_string(),
            },
        }
    }

    /// The admin rebuild: full recompute over the engine's current
    /// graph (base + pending deltas), then swap the epoch. Failure of
    /// any kind — a typed pipeline error, or a panic from an injected
    /// `serve-swap`/pipeline fault — leaves the previous epoch serving
    /// and is reported as a typed `RecomputeFailed`.
    fn recompute(&self) -> Response {
        let Some(_busy) = self.claim_write() else {
            return Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        let mut engine = self.engine.lock();
        // recovery: the rebuild runs the full parallel pipeline plus the
        // epoch swap; an escaped panic (injected serve-swap fault, or a
        // worker panic under PanicPolicy::Fail) must degrade to a typed
        // RecomputeFailed with the old epoch still serving, never take
        // the daemon down.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let guard = RunGuard::new();
            engine.rebuild(&guard)?;
            let snapshot = engine.snapshot(&guard)?;
            Ok::<u64, SccError>(self.cell.publish(snapshot))
        }));
        match outcome {
            Ok(Ok(epoch)) => {
                self.stats.recompute_ok();
                Response::Recomputed { epoch }
            }
            Ok(Err(e)) => {
                self.stats.recompute_failed();
                Response::RecomputeFailed {
                    message: e.to_string(),
                }
            }
            Err(panic_payload) => {
                // The rebuild may have died anywhere; demand a healing
                // rebuild before the engine answers another write.
                engine.poison();
                self.stats.recompute_failed();
                Response::RecomputeFailed {
                    message: fault::panic_text(panic_payload.as_ref()),
                }
            }
        }
    }

    fn stats_reply(&self) -> Response {
        let snapshot = self.cell.load();
        let mut reply = self.stats.sample();
        reply.epoch = snapshot.epoch();
        // Graph dimensions come from the published snapshot, not the
        // engine — stats must never block behind the engine mutex.
        reply.num_nodes = snapshot.value().num_nodes() as u64;
        reply.num_edges = snapshot.value().num_edges() as u64;
        reply.num_components = snapshot.value().num_components() as u64;
        // ordering: Relaxed — diagnostic sample of the write gate.
        reply.mutating = self.write_busy.load(Ordering::Relaxed);
        Response::Stats(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cycle_graph() -> ServedGraph {
        ServedGraph::Raw(CsrGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)],
        ))
    }

    fn server() -> Arc<Server> {
        Server::new(two_cycle_graph(), ServeConfig::default()).unwrap()
    }

    /// An inert armed session: tests that hit `serve-swap`/`serve-frame`
    /// points without wanting a fault hold one, serializing them with
    /// the genuinely-armed tests so a single-shot plan is never consumed
    /// by the wrong test (the chaos-battery doctrine, in miniature).
    fn quiesce() -> fault::FaultGuard {
        fault::arm(fault::FaultPlan {
            site: Some("serve-test-inert"),
            nth: 0,
            kind: fault::FaultKind::Panic,
            repeat: false,
        })
    }

    #[test]
    fn starts_at_epoch_zero_with_answers() {
        let _quiet = quiesce();
        let s = server();
        assert_eq!(s.epoch(), 0);
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 2,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        assert_eq!(
            s.handle_request(&Request::SccId {
                u: 99,
                deadline_ms: 0
            }),
            Response::OutOfRange
        );
        assert_eq!(
            s.handle_request(&Request::CondReach {
                u: 0,
                v: 5,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        assert_eq!(
            s.handle_request(&Request::CondReach {
                u: 5,
                v: 0,
                deadline_ms: 0
            }),
            Response::Bool(false)
        );
        assert_eq!(s.handle_request(&Request::Ping), Response::Pong);
    }

    #[test]
    fn recompute_bumps_epoch_and_stats() {
        let _quiet = quiesce();
        let s = server();
        match s.handle_request(&Request::Recompute) {
            Response::Recomputed { epoch } => assert_eq!(epoch, 1),
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(s.epoch(), 1);
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => {
                assert_eq!(r.epoch, 1);
                assert_eq!(r.recomputes_ok, 1);
                assert_eq!(r.num_nodes, 6);
                assert_eq!(r.num_components, 3); // {0,1,2} {3,4} {5}
                assert!(!r.stale);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn injected_swap_fault_degrades_to_stale_old_epoch() {
        let _armed = fault::arm(fault::FaultPlan {
            site: Some(fault::SERVE_SWAP),
            nth: 0,
            kind: fault::FaultKind::Panic,
            repeat: false,
        });
        let s = server();
        match s.handle_request(&Request::Recompute) {
            Response::RecomputeFailed { message } => {
                assert!(message.contains("injected fault"), "got {message:?}")
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(s.epoch(), 0, "failed swap must leave the old epoch serving");
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => {
                assert!(r.stale);
                assert_eq!(r.recomputes_failed, 1);
            }
            other => panic!("wrong response: {other:?}"),
        }
        // The site disarmed (repeat: false) — the next recompute heals.
        match s.handle_request(&Request::Recompute) {
            Response::Recomputed { epoch } => assert_eq!(epoch, 1),
            other => panic!("wrong response: {other:?}"),
        }
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => assert!(!r.stale, "success clears staleness"),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_is_typed() {
        let _armed = fault::arm(fault::FaultPlan {
            site: Some(fault::SERVE_FRAME),
            nth: 0,
            kind: fault::FaultKind::Delay(Duration::from_millis(30)),
            repeat: false,
        });
        let s = server();
        assert_eq!(
            s.handle_request(&Request::CondReach {
                u: 0,
                v: 5,
                deadline_ms: 1
            }),
            Response::DeadlineExceeded
        );
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => assert_eq!(r.deadline_misses, 1),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn concurrent_writes_are_shed_not_queued() {
        let _quiet = quiesce();
        let s = server();
        // Hold the write gate as an in-flight write would.
        assert!(s
            .write_busy
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok());
        for req in [
            Request::Recompute,
            Request::Compact,
            Request::InsertEdge {
                u: 0,
                v: 5,
                deadline_ms: 0,
            },
        ] {
            match s.handle_request(&req) {
                Response::Overloaded { retry_after_ms } => {
                    assert_eq!(retry_after_ms, s.config.retry_after_ms)
                }
                other => panic!("wrong response to {req:?}: {other:?}"),
            }
        }
        // A held write gate is what the stats `mutating` flag reports.
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => assert!(r.mutating),
            other => panic!("wrong response: {other:?}"),
        }
        // ordering: Relaxed — test cleanup of the flag it set above.
        s.write_busy.store(false, Ordering::Relaxed);
        assert!(matches!(
            s.handle_request(&Request::Recompute),
            Response::Recomputed { .. }
        ));
    }

    #[test]
    fn out_of_range_mutation_is_typed_and_does_not_poison() {
        let _quiet = quiesce();
        let s = server();
        for req in [
            Request::InsertEdge {
                u: 0,
                v: 6,
                deadline_ms: 0,
            },
            Request::DeleteEdge {
                u: 6,
                v: 0,
                deadline_ms: 0,
            },
            Request::BatchMutate {
                deadline_ms: 0,
                ops: vec![
                    MutOp {
                        insert: true,
                        u: 0,
                        v: 1,
                    },
                    MutOp {
                        insert: true,
                        u: 0,
                        v: 6,
                    },
                ],
            },
        ] {
            assert_eq!(
                s.handle_request(&req),
                Response::OutOfRange,
                "{req:?} must be rejected before touching the engine"
            );
        }
        // No epoch burned, no failure counted, engine healthy.
        assert_eq!(s.epoch(), 0);
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => assert_eq!(r.mutations_failed, 0),
            other => panic!("wrong response: {other:?}"),
        }
        assert!(matches!(
            s.handle_request(&Request::InsertEdge {
                u: 5,
                v: 0,
                deadline_ms: 0,
            }),
            Response::Mutated(_)
        ));
    }

    #[test]
    fn insert_edge_merges_and_publishes_one_epoch() {
        let _quiet = quiesce();
        let s = server();
        // two_cycle_graph: {0,1,2} {3,4} {5}; 5 -> 0 closes the ring
        // through 0..2 -> 3 -> 4 -> 5.
        match s.handle_request(&Request::InsertEdge {
            u: 5,
            v: 0,
            deadline_ms: 0,
        }) {
            Response::Mutated(m) => {
                assert_eq!(m.epoch, 1, "one mutation = one epoch");
                assert_eq!(m.applied, 1);
                assert_eq!(m.merges, 1);
                assert_eq!(m.num_components, 1);
                assert!(m.pending_deltas >= 1);
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Queries answer from the repaired epoch.
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 5,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => {
                assert_eq!(r.mutations_ok, 1);
                assert_eq!(r.epoch, 1);
                assert_eq!(r.num_edges, 8, "snapshot reflects the mutated graph");
                assert!(!r.mutating);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn batch_publishes_a_single_epoch_and_counts_noops() {
        let _quiet = quiesce();
        let s = server();
        let ops = vec![
            MutOp {
                insert: true,
                u: 5,
                v: 0,
            },
            MutOp {
                insert: true,
                u: 5,
                v: 0,
            }, // duplicate: noop
            MutOp {
                insert: false,
                u: 4,
                v: 5,
            },
            MutOp {
                insert: false,
                u: 1,
                v: 5,
            }, // absent: noop
        ];
        match s.handle_request(&Request::BatchMutate {
            deadline_ms: 0,
            ops,
        }) {
            Response::Mutated(m) => {
                assert_eq!(m.epoch, 1, "whole batch = one epoch");
                assert_eq!(m.applied, 2);
                assert_eq!(m.noops, 2);
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn delete_splits_and_compact_folds() {
        let _quiet = quiesce();
        let s = server();
        // Break the {3,4} 2-cycle.
        match s.handle_request(&Request::DeleteEdge {
            u: 4,
            v: 3,
            deadline_ms: 0,
        }) {
            Response::Mutated(m) => {
                assert_eq!(m.applied, 1);
                assert_eq!(m.splits, 1);
                assert_eq!(m.num_components, 4);
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 3,
                v: 4,
                deadline_ms: 0
            }),
            Response::Bool(false)
        );
        match s.handle_request(&Request::Compact) {
            Response::Compacted { epoch, folded } => {
                assert_eq!(epoch, 1, "compaction does not publish an epoch");
                assert_eq!(folded, 1);
            }
            other => panic!("wrong response: {other:?}"),
        }
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => {
                assert_eq!(r.compactions, 1);
                assert_eq!(r.pending_deltas, 0);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn killed_merge_keeps_old_epoch_serving_and_heals() {
        let _armed = fault::arm(fault::FaultPlan {
            site: Some(fault::INCR_MERGE),
            nth: 0,
            kind: fault::FaultKind::Panic,
            repeat: false,
        });
        let s = server();
        match s.handle_request(&Request::InsertEdge {
            u: 5,
            v: 0,
            deadline_ms: 0,
        }) {
            Response::MutateFailed { message } => {
                assert!(message.contains("injected fault"), "got {message:?}")
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(s.epoch(), 0, "failed write must leave the old epoch");
        // The old epoch still answers with the pre-mutation partition.
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 5,
                deadline_ms: 0
            }),
            Response::Bool(false)
        );
        // The site disarmed (repeat: false) — the next write heals the
        // poisoned engine by rebuild and serves the repaired partition.
        match s.handle_request(&Request::InsertEdge {
            u: 5,
            v: 0,
            deadline_ms: 0,
        }) {
            // The killed write already inserted the edge into the graph,
            // so the retry is a no-op mutation — but the healing rebuild
            // folds the edge into the published partition.
            Response::Mutated(m) => assert_eq!(m.num_components, 1),
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 5,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        match s.handle_request(&Request::Stats) {
            Response::Stats(r) => {
                assert_eq!(r.mutations_failed, 1);
                assert_eq!(r.mutations_ok, 1);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn killed_compaction_loses_only_the_rebuild_work() {
        let _armed = fault::arm(fault::FaultPlan {
            site: Some(fault::DELTA_COMPACT),
            nth: 0,
            kind: fault::FaultKind::Panic,
            repeat: false,
        });
        let s = server();
        match s.handle_request(&Request::InsertEdge {
            u: 5,
            v: 0,
            deadline_ms: 0,
        }) {
            Response::Mutated(m) => assert_eq!(m.pending_deltas, 1),
            other => panic!("wrong response: {other:?}"),
        }
        match s.handle_request(&Request::Compact) {
            Response::MutateFailed { message } => {
                assert!(message.contains("injected fault"), "got {message:?}")
            }
            other => panic!("wrong response: {other:?}"),
        }
        // The overlay still answers; the next compact succeeds.
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 5,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        match s.handle_request(&Request::Compact) {
            Response::Compacted { folded, .. } => assert_eq!(folded, 1),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn compressed_backend_mutates_identically() {
        let _quiet = quiesce();
        let raw = CsrGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let z = CompressedCsr::from_csr(&raw);
        let s = Server::new(ServedGraph::Compressed(z), ServeConfig::default()).unwrap();
        match s.handle_request(&Request::InsertEdge {
            u: 4,
            v: 0,
            deadline_ms: 0,
        }) {
            Response::Mutated(m) => {
                assert_eq!(m.merges, 1);
                assert_eq!(m.num_components, 1);
            }
            other => panic!("wrong response: {other:?}"),
        }
        match s.handle_request(&Request::Compact) {
            Response::Compacted { folded, .. } => assert_eq!(folded, 1),
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 4,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
    }

    #[test]
    fn compressed_backend_serves_identically() {
        let _quiet = quiesce();
        let raw = CsrGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let z = CompressedCsr::from_csr(&raw);
        let s = Server::new(ServedGraph::Compressed(z), ServeConfig::default()).unwrap();
        assert_eq!(
            s.handle_request(&Request::SameScc {
                u: 0,
                v: 1,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
        assert_eq!(
            s.handle_request(&Request::CondReach {
                u: 0,
                v: 4,
                deadline_ms: 0
            }),
            Response::Bool(true)
        );
    }
}
