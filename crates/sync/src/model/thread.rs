//! Virtual-thread shims: `scope`/`spawn`/`join`, plus `yield_now`,
//! `sleep`, and `spin_loop` as pure scheduling points (model builds only).
//!
//! Spawned closures run on *real OS threads* (so thread-locals, stack
//! depth, and panics behave exactly as in production), but every spawned
//! thread registers as a virtual thread and immediately parks until the
//! scheduler hands it the token. Outside an explore session the same API
//! degrades to plain scoped OS threads with no instrumentation.
//!
//! The scoped-spawn lifetime erasure follows the crossbeam/std playbook:
//! the closure is boxed and transmuted to `'static` so an OS thread can
//! run it. This is sound because the scope guarantees — on every exit
//! path, including unwinding — that all spawned OS threads are joined
//! before `'scope` ends (see the SAFETY comments at the transmute and the
//! join-on-drop guard).

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

use super::{current, set_current, ModelAbort, Runtime, Status};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Per-spawned-thread bookkeeping shared between the handle and the scope
/// (the scope needs it to join stragglers and propagate unjoined panics).
struct Child {
    os: Arc<StdMutex<Option<std::thread::JoinHandle<()>>>>,
    panic: Arc<StdMutex<Option<PanicPayload>>>,
    vtid: Option<usize>,
}

pub struct Scope<'scope, 'env: 'scope> {
    children: StdMutex<Vec<Child>>,
    session: Option<(Arc<Runtime>, usize)>,
    /// Invariant over 'scope, covariant-ish over 'env — same variance
    /// story as std::thread::Scope.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

pub struct ScopedJoinHandle<'scope, T> {
    result: Arc<StdMutex<Option<T>>>,
    panic: Arc<StdMutex<Option<PanicPayload>>>,
    os: Arc<StdMutex<Option<std::thread::JoinHandle<()>>>>,
    vtid: Option<usize>,
    session: Option<Arc<Runtime>>,
    _marker: PhantomData<&'scope ()>,
}

/// Drop guard: OS-joins every spawned thread. This is what upholds the
/// `'scope` lifetime transmute even when the scope body unwinds.
struct JoinOnDrop<'a, 'scope, 'env>(&'a Scope<'scope, 'env>);

impl Drop for JoinOnDrop<'_, '_, '_> {
    fn drop(&mut self) {
        let children =
            std::mem::take(&mut *self.0.children.lock().unwrap_or_else(|e| e.into_inner()));
        for c in &children {
            // If we're unwinding under an active session, children may be
            // parked waiting for the token; the abort flag (set by the
            // failing thread) unparks them via the bounded condvar waits.
            if let Some(h) = c.os.lock().unwrap_or_else(|e| e.into_inner()).take() {
                #[allow(
                    clippy::let_underscore_must_use,
                    reason = "the child's body catches its own panic into its `panic` slot"
                )]
                let _ = h.join();
            }
        }
        // Re-stash so the non-unwinding path can still inspect panics.
        *self.0.children.lock().unwrap_or_else(|e| e.into_inner()) = children;
    }
}

/// Drop-in for `std::thread::scope`. Under an active explore session the
/// spawned threads become scheduler-controlled virtual threads; otherwise
/// they are plain OS threads.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let sc = Scope {
        children: StdMutex::new(Vec::new()),
        session: current(),
        scope: PhantomData,
        env: PhantomData,
    };
    let guard = JoinOnDrop(&sc);
    // recovery: the catch keeps an unwinding scope body from leaking
    // children — the JoinOnDrop guard below OS-joins every spawned thread
    // first, then the payload is re-thrown unchanged (std scope
    // semantics).
    let res = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    // Virtual wait first (the parent must keep scheduling children it
    // hasn't joined — OS-joining a token-starved child would hang the
    // harness), then the guard OS-joins everyone.
    if res.is_ok() {
        if let Some((rt, tid)) = &sc.session {
            let vtids: Vec<usize> = sc
                .children
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .filter_map(|c| c.vtid)
                .collect();
            let g = rt.st();
            let mut g = rt.block_on(g, *tid, |st| {
                vtids
                    .iter()
                    .all(|&v| st.threads[v].status == Status::Finished)
            });
            // Implicit-join edges: everything the children did
            // happens-before the scope returns (std scope semantics).
            for &v in &vtids {
                let child_clock = g.threads[v].clock.clone();
                g.threads[*tid].clock.join(&child_clock);
            }
            drop(g);
        }
    }
    drop(guard);
    match res {
        Err(payload) => resume_unwind(payload),
        Ok(v) => {
            // std semantics: a panic in an unjoined child re-panics here.
            let first = sc
                .children
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .find_map(|c| c.panic.lock().unwrap_or_else(|e| e.into_inner()).take());
            if let Some(p) = first {
                resume_unwind(p);
            }
            v
        }
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let panic: Arc<StdMutex<Option<PanicPayload>>> = Arc::new(StdMutex::new(None));
        let os: Arc<StdMutex<Option<std::thread::JoinHandle<()>>>> = Arc::new(StdMutex::new(None));

        let session = self.session.clone();
        // Register the virtual thread *before* the OS thread exists so the
        // spawn happens-before edge (child inherits parent clock) and the
        // tid are fixed synchronously.
        let vtid = session.as_ref().map(|(rt, ptid)| {
            let mut g = rt.st();
            Runtime::tick(&mut g, *ptid);
            let child = Runtime::register_thread(&mut g);
            let pclock = g.threads[*ptid].clock.clone();
            g.threads[child].clock.join(&pclock);
            rt.wake_all();
            child
        });

        let body = {
            let result = Arc::clone(&result);
            let panic = Arc::clone(&panic);
            let session = session.clone();
            move || {
                if let (Some((rt, _)), Some(vtid)) = (&session, vtid) {
                    set_current(Some((Arc::clone(rt), vtid)));
                    let rt2 = Arc::clone(rt);
                    // recovery: a panicking virtual thread is recorded as
                    // the iteration's failure (ModelAbort unwinds are the
                    // scheduler's own teardown and stay silent); the
                    // thread still marks itself Finished and hands the
                    // token on below, so the session never wedges.
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        // Park until the scheduler picks us for the first
                        // time (this wait can unwind on abort, hence it
                        // lives inside the catch).
                        let g = rt2.st();
                        let g = rt2.wait_for_token(g, vtid);
                        drop(g);
                        f()
                    }));
                    match r {
                        Ok(v) => {
                            *result.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        }
                        Err(p) => {
                            if p.downcast_ref::<ModelAbort>().is_none() {
                                rt.fail(format!(
                                    "virtual thread {vtid} panicked: {}",
                                    // as_ref(): the payload, not the Box.
                                    super::panic_message(p.as_ref())
                                ));
                                *panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(p);
                            }
                        }
                    }
                    // Mark finished and pass the token on (never panics).
                    let mut g = rt.st();
                    g.threads[vtid].status = Status::Finished;
                    // Completion can satisfy join predicates (see wake_gen).
                    g.wake_gen += 1;
                    rt.hand_off(&mut g, vtid);
                    drop(g);
                    set_current(None);
                } else {
                    // recovery: outside a session this mirrors std scoped
                    // threads — the payload is stashed and re-thrown at
                    // join (or scope exit), never swallowed.
                    match catch_unwind(AssertUnwindSafe(f)) {
                        Ok(v) => {
                            *result.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        }
                        Err(p) => {
                            *panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(p);
                        }
                    }
                }
            }
        };

        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(body);
        // SAFETY: [inv:scoped-join] lifetime erasure for scoped spawn. The closure (and
        // everything it captures, all outliving 'scope) is only executed
        // by the OS thread stored in `os`, and that thread is joined
        // before 'scope ends on every path: ScopedJoinHandle::join OS-
        // joins it, and the scope's JoinOnDrop guard OS-joins any handle
        // not yet joined — including when the scope body unwinds. No
        // reference captured by the closure can therefore be used after
        // its referent is dropped.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let handle = std::thread::spawn(boxed);
        *os.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);

        self.children
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Child {
                os: Arc::clone(&os),
                panic: Arc::clone(&panic),
                vtid,
            });

        // Spawning is a scheduling point: the child may run immediately.
        if let Some((rt, ptid)) = &session {
            let g = rt.st();
            let g = rt.yield_point(g, *ptid);
            drop(g);
        }

        ScopedJoinHandle {
            result,
            panic,
            os,
            vtid,
            session: session.map(|(rt, _)| rt),
            _marker: PhantomData,
        }
    }
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Same contract as `std::thread::ScopedJoinHandle::join`: blocks
    /// until the thread finishes, `Err(payload)` if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(rt), Some(vtid)) = (&self.session, self.vtid) {
            if let Some((_, ptid)) = current() {
                let g = rt.st();
                let mut g = rt.block_on(g, ptid, |st| st.threads[vtid].status == Status::Finished);
                // Join edge: the child's entire execution happens-before
                // the joiner continues.
                let child_clock = g.threads[vtid].clock.clone();
                g.threads[ptid].clock.join(&child_clock);
                drop(g);
            }
        }
        if let Some(h) = self.os.lock().unwrap_or_else(|e| e.into_inner()).take() {
            #[allow(
                clippy::let_underscore_must_use,
                reason = "the child's body catches its own panic into `self.panic`, read below"
            )]
            let _ = h.join();
        }
        if let Some(p) = self.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
            return Err(p);
        }
        match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            // Child unwound with ModelAbort: propagate the abort to the
            // joiner too (the whole run is being torn down).
            None => std::panic::panic_any(ModelAbort),
        }
    }

    pub fn is_finished(&self) -> bool {
        self.os
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_none_or(|h| h.is_finished())
    }
}

/// A scheduling point under the model; the real yield otherwise.
pub fn yield_now() {
    if let Some((rt, tid)) = current() {
        let mut g = rt.st();
        Runtime::tick(&mut g, tid);
        let g = rt.yield_point(g, tid);
        drop(g);
    } else {
        std::thread::yield_now();
    }
}

/// Model `sleep` is a scheduling point, not wall-clock time: the modeled
/// programs use sleep only for backoff, and backoff under a deterministic
/// scheduler is just "let somebody else run".
pub fn sleep(dur: std::time::Duration) {
    if current().is_some() {
        yield_now();
    } else {
        std::thread::sleep(dur);
    }
}

/// A spinning thread must let the scheduler run somebody else, otherwise
/// every spin-wait is an instant livelock under the model.
pub fn spin_loop() {
    if current().is_some() {
        yield_now();
    } else {
        std::hint::spin_loop();
    }
}
