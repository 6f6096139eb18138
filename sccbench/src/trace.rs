//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each benchmark-side call into a layer:
//! name, start, end, the enclosing span on the same thread, and a
//! request id shared by every span of one request or rep. Spans stay in
//! memory until [`write_jsonl`] runs at exit. When tracing is off,
//! [`span`] is a plain call, so the untraced run that produces the
//! end-to-end metrics pays one relaxed load per call.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// Enclosing span on the same thread; 0 for a root span.
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off. The traced run also toggles it to measure
/// the tracer's own overhead.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    // ordering: a go/no-go flag; spans publish through the SPANS mutex.
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    // ordering: see `set_enabled`.
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f`, recording a span named `name` for request `req` when
/// tracing is on.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    // ordering: only uniqueness of ids matters.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(0);
        o.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span store poisoned by a panic")
        .push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Durations of every recorded span named `name`, in nanoseconds.
pub fn durations_ns(name: &str) -> Vec<f64> {
    SPANS
        .lock()
        .expect("span store poisoned by a panic")
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span store poisoned by a panic");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
