//! Offline drop-in subset of the `rayon` API.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate provides the (small) slice of rayon that the swscc crates actually
//! use: `par_iter`/`into_par_iter` with the map/filter/flat_map_iter family
//! of adapters, ordered `collect`, the usual reductions, `join`, scoped
//! thread pools with an exact thread count, and `par_sort_unstable`.
//!
//! Execution model: consumers split the index space of the underlying base
//! (a range, slice, or vector) into one contiguous part per worker and run
//! each part on a scoped OS thread, *pushing* items through the adapter
//! stack into a per-part sink (push style keeps borrowed inner iterators of
//! `flat_map_iter` local to one stack frame). The pool size is a
//! thread-local set by [`ThreadPool::install`], so
//! `swscc_parallel::pool::with_pool(n, ..)` pins parallel sections to
//! exactly `n` workers like real rayon does. Ordered consumers (`collect`)
//! concatenate per-part results in part order, preserving rayon's
//! indexed-collect semantics.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::OnceLock;

use swscc_sync::atomic::{AtomicBool, Ordering};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

thread_local! {
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel sections run with on this thread: the
/// innermost [`ThreadPool::install`] override, or hardware parallelism.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|t| t.get())
        .unwrap_or_else(hardware_threads)
}

/// Hardware parallelism, queried once per process: the query reads
/// cgroup files, tens of microseconds per call.
fn hardware_threads() -> usize {
    static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
    *HARDWARE_THREADS.get_or_init(|| {
        swscc_sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Re-raises a worker panic on the caller. String payloads are re-wrapped
/// with the worker's part index so a failure inside a parallel section
/// names which worker died; non-string payloads (e.g. the model checker's
/// abort sentinel) are resumed unchanged so their downcast identity
/// survives.
fn propagate_worker_panic(index: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    match msg {
        Some(m) => panic!("rayon worker {index} panicked: {m}"),
        None => std::panic::resume_unwind(payload),
    }
}

/// Builder for a fixed-size [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type kept for API compatibility; construction cannot fail here.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}
impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => hardware_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A "pool" of an exact thread count. Workers are scoped threads spawned
/// per parallel section rather than persistent, which keeps the shim tiny;
/// the observable behavior (`current_num_threads`, section width) matches.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `f` with this pool's thread count governing parallel sections.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|t| t.replace(Some(self.num_threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

/// Runs both closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_num_threads();
    if threads <= 1 {
        return (a(), b());
    }
    let inherit = POOL_THREADS.with(|t| t.get());
    swscc_sync::thread::scope(|s| {
        let hb = s.spawn(move || {
            POOL_THREADS.with(|t| t.set(inherit));
            b()
        });
        let ra = a();
        match hb.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => propagate_worker_panic(1, payload),
        }
    })
}

/// Splits `0..units` into at most `current_num_threads()` contiguous parts
/// and runs `f(lo, hi)` for each, in parallel, returning results in part
/// order. The inherited pool size is propagated into the workers so nested
/// parallel sections see the same width.
fn run_parts<R: Send>(units: usize, f: &(impl Fn(usize, usize) -> R + Sync)) -> Vec<R> {
    let workers = current_num_threads().min(units.max(1));
    if workers <= 1 || units <= 1 {
        return vec![f(0, units)];
    }
    let per = units.div_ceil(workers);
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(units)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let inherit = POOL_THREADS.with(|t| t.get());
    swscc_sync::thread::scope(|s| {
        let mut handles = Vec::with_capacity(bounds.len().saturating_sub(1));
        for &(lo, hi) in &bounds[1..] {
            handles.push(s.spawn(move || {
                POOL_THREADS.with(|t| t.set(inherit));
                f(lo, hi)
            }));
        }
        let first = f(bounds[0].0, bounds[0].1);
        let mut out = Vec::with_capacity(bounds.len());
        out.push(first);
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => out.push(r),
                // Part 0 ran inline on the caller, so spawned handle `w`
                // is worker `w + 1`.
                Err(payload) => propagate_worker_panic(w + 1, payload),
            }
        }
        out
    })
}

/// The parallel-iterator trait: a lazily adapted view over a splittable
/// index space. Items of the contiguous base sub-range `[lo, hi)` are
/// *pushed* through the adapter stack into `sink`; a `Break` return
/// requests early termination of the part.
#[allow(
    clippy::let_underscore_must_use,
    reason = "a consumer feeds its whole range; only adapters act on `feed`'s early break"
)]
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    /// Size of the underlying (pre-adapter) index space.
    fn units(&self) -> usize;

    /// Feeds every item produced by base indices `[lo, hi)` to `sink`,
    /// stopping early if the sink breaks.
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(Self::Item) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    // ---- adapters -------------------------------------------------------

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, f }
    }

    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    /// Like rayon's `flat_map_iter`: `f` returns a *sequential* iterator.
    fn flat_map_iter<I, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        F: Fn(Self::Item) -> I + Sync + Send,
        I: IntoIterator,
        I::Item: Send,
    {
        FlatMapIter { base: self, f }
    }

    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        Copied { base: self }
    }

    // ---- consumers ------------------------------------------------------

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_parts(self.units(), &|lo, hi| {
            let _ = self.feed(lo, hi, &mut |item| {
                f(item);
                ControlFlow::Continue(())
            });
        });
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    fn count(self) -> usize {
        run_parts(self.units(), &|lo, hi| {
            let mut n = 0usize;
            let _ = self.feed(lo, hi, &mut |_| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        })
        .into_iter()
        .sum()
    }

    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        run_parts(self.units(), &|lo, hi| {
            let mut part: Vec<Self::Item> = Vec::new();
            let _ = self.feed(lo, hi, &mut |item| {
                part.push(item);
                ControlFlow::Continue(())
            });
            part.into_iter().sum::<S>()
        })
        .into_iter()
        .sum()
    }

    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        run_parts(self.units(), &|lo, hi| {
            let mut best: Option<Self::Item> = None;
            let _ = self.feed(lo, hi, &mut |item| {
                if best.as_ref().is_none_or(|b| item > *b) {
                    best = Some(item);
                }
                ControlFlow::Continue(())
            });
            best
        })
        .into_iter()
        .flatten()
        .max()
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        run_parts(self.units(), &|lo, hi| {
            let mut best: Option<Self::Item> = None;
            let _ = self.feed(lo, hi, &mut |item| {
                if best.as_ref().is_none_or(|b| item < *b) {
                    best = Some(item);
                }
                ControlFlow::Continue(())
            });
            best
        })
        .into_iter()
        .flatten()
        .min()
    }

    fn max_by_key<K, F>(self, f: F) -> Option<Self::Item>
    where
        K: Ord + Send,
        F: Fn(&Self::Item) -> K + Sync + Send,
    {
        run_parts(self.units(), &|lo, hi| {
            let mut best: Option<(K, Self::Item)> = None;
            let _ = self.feed(lo, hi, &mut |item| {
                let k = f(&item);
                // `>=` keeps the later item on ties, matching sequential
                // max_by_key; across parts ties resolve to the later part.
                if best.as_ref().is_none_or(|(bk, _)| k >= *bk) {
                    best = Some((k, item));
                }
                ControlFlow::Continue(())
            });
            best
        })
        .into_iter()
        .flatten()
        .max_by(|a, b| a.0.cmp(&b.0))
        .map(|(_, item)| item)
    }

    /// Returns some item matching `pred`, stopping other workers early.
    /// Like rayon, *which* match is returned is not specified.
    fn find_any<F>(self, pred: F) -> Option<Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        let found = AtomicBool::new(false);
        run_parts(self.units(), &|lo, hi| {
            let mut hit: Option<Self::Item> = None;
            let mut since_check = 0u32;
            let _ = self.feed(lo, hi, &mut |item| {
                since_check += 1;
                if since_check >= 64 {
                    since_check = 0;
                    // ordering: pure cancellation hint — a stale read only
                    // delays early exit; the returned item is published by
                    // the scope join in run_parts, not by this flag.
                    if found.load(Ordering::Relaxed) {
                        return ControlFlow::Break(());
                    }
                }
                if pred(&item) {
                    // ordering: see the load above — flag is advisory only.
                    found.store(true, Ordering::Relaxed);
                    hit = Some(item);
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
            hit
        })
        .into_iter()
        .flatten()
        .next()
    }
}

/// Ordered parallel collection target.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

#[allow(
    clippy::let_underscore_must_use,
    reason = "collect feeds its whole range; only adapters act on `feed`'s early break"
)]
impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self {
        let parts = run_parts(it.units(), &|lo, hi| {
            let mut part: Vec<T> = Vec::new();
            let _ = it.feed(lo, hi, &mut |item| {
                part.push(item);
                ControlFlow::Continue(())
            });
            part
        });
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

// ---- adapter types ------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    fn units(&self) -> usize {
        self.base.units()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(R) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.base.feed(lo, hi, &mut |x| sink((self.f)(x)))
    }
}

pub struct Filter<B, F> {
    base: B,
    f: F,
}

impl<B, F> ParallelIterator for Filter<B, F>
where
    B: ParallelIterator,
    F: Fn(&B::Item) -> bool + Sync + Send,
{
    type Item = B::Item;
    fn units(&self) -> usize {
        self.base.units()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(B::Item) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.base.feed(lo, hi, &mut |x| {
            if (self.f)(&x) {
                sink(x)
            } else {
                ControlFlow::Continue(())
            }
        })
    }
}

pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> Option<R> + Sync + Send,
    R: Send,
{
    type Item = R;
    fn units(&self) -> usize {
        self.base.units()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(R) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.base.feed(lo, hi, &mut |x| match (self.f)(x) {
            Some(y) => sink(y),
            None => ControlFlow::Continue(()),
        })
    }
}

pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

impl<B, F, I> ParallelIterator for FlatMapIter<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> I + Sync + Send,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn units(&self) -> usize {
        self.base.units()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(I::Item) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.base.feed(lo, hi, &mut |x| {
            for y in (self.f)(x) {
                sink(y)?;
            }
            ControlFlow::Continue(())
        })
    }
}

pub struct Copied<B> {
    base: B,
}

impl<'a, B, T> ParallelIterator for Copied<B>
where
    B: ParallelIterator<Item = &'a T>,
    T: Copy + Send + Sync + 'a,
{
    type Item = T;
    fn units(&self) -> usize {
        self.base.units()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.base.feed(lo, hi, &mut |x| sink(*x))
    }
}

// ---- bases --------------------------------------------------------------

/// Base over an integer range.
pub struct RangeParIter<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_base {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeParIter<$t> {
            type Item = $t;
            fn units(&self) -> usize {
                self.len
            }
            fn feed(
                &self,
                lo: usize,
                hi: usize,
                sink: &mut dyn FnMut($t) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                for v in self.start + lo as $t..self.start + hi as $t {
                    sink(v)?;
                }
                ControlFlow::Continue(())
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = RangeParIter<$t>;
            fn into_par_iter(self) -> RangeParIter<$t> {
                RangeParIter {
                    start: self.start,
                    len: (self.end.max(self.start) - self.start) as usize,
                }
            }
        }
    )*};
}

impl_range_base!(u32, u64, usize);

/// Base over a borrowed slice; items are references.
pub struct SliceParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    fn units(&self) -> usize {
        self.slice.len()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(&'a T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for v in &self.slice[lo..hi] {
            sink(v)?;
        }
        ControlFlow::Continue(())
    }
}

/// Base over an owned vector of `Copy` items (the only owning case the
/// workspace uses; avoids needing chunk-moving machinery).
pub struct VecParIter<T> {
    vec: Vec<T>,
}

impl<T: Copy + Send + Sync> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn units(&self) -> usize {
        self.vec.len()
    }
    fn feed(
        &self,
        lo: usize,
        hi: usize,
        sink: &mut dyn FnMut(T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &v in &self.vec[lo..hi] {
            sink(v)?;
        }
        ControlFlow::Continue(())
    }
}

/// `into_par_iter()` entry point.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Copy + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { vec: self }
    }
}

/// `.par_iter()` entry point (by shared reference).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + Send + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync + Send + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

/// Parallel in-place slice sort. On this shim the sort itself is
/// sequential (`sort_unstable`): every workspace call site sorts small or
/// already-post-processed arrays off the traversal hot path, and the
/// container is effectively single-core.
pub trait ParallelSliceMut<T: Send> {
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ordered_collect() {
        let v: Vec<u32> = (0..1000u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.windows(2).all(|w| w[1] == w[0] + 2));
    }

    #[test]
    fn filter_flat_map() {
        let nested: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter(|&x| x % 10 == 0)
            .flat_map_iter(|x| x..x + 3)
            .collect();
        assert_eq!(nested.len(), 30);
        assert_eq!(&nested[..3], &[0, 1, 2]);
    }

    #[test]
    fn flat_map_iter_borrowing() {
        // inner iterators may borrow environment data (the BFS pattern)
        let adj: Vec<Vec<u32>> = vec![vec![1, 2], vec![3], vec![], vec![4, 5]];
        let frontier = vec![0usize, 3];
        let out: Vec<u32> = frontier
            .par_iter()
            .flat_map_iter(|&u| adj[u].iter().copied())
            .collect();
        assert_eq!(out, vec![1, 2, 4, 5]);
    }

    #[test]
    fn reductions() {
        assert_eq!((0..1000u64).into_par_iter().sum::<u64>(), 499500);
        assert_eq!((0..100u32).into_par_iter().max(), Some(99));
        assert_eq!((0..100u32).into_par_iter().filter(|&x| x > 90).count(), 9);
        let v = vec![3u32, 1, 4, 1, 5];
        assert_eq!(v.par_iter().copied().max_by_key(|&x| x), Some(5));
        assert!((0..1000u32)
            .into_par_iter()
            .find_any(|&x| x == 777)
            .is_some());
        assert!((0..1000u32)
            .into_par_iter()
            .find_any(|&x| x == 7777)
            .is_none());
    }

    #[test]
    fn install_pins_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        // nested sections inherit the width
        let inner = pool.install(|| {
            run_parts(8, &|_lo, _hi| current_num_threads())
                .into_iter()
                .max()
                .unwrap()
        });
        assert_eq!(inner, 3);
    }

    #[test]
    fn install_overrides_the_cached_hardware_width() {
        let hardware = current_num_threads();
        assert_eq!(current_num_threads(), hardware, "cached value is stable");
        assert_eq!(
            ThreadPoolBuilder::new()
                .build()
                .unwrap()
                .current_num_threads(),
            hardware
        );
        for n in [1, hardware + 3] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            assert_eq!(pool.install(current_num_threads), n);
        }
        assert_eq!(current_num_threads(), hardware, "install restores it");
    }

    #[test]
    fn join_runs_both() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (a, b) = pool.install(|| join(|| 1 + 1, || 2 + 2));
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn par_sort() {
        let mut v: Vec<u32> = (0..500).rev().collect();
        v.par_sort_unstable();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn worker_panics_carry_worker_index() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        // recovery: test-local — asserting the shim rewraps a worker
        // panic with the worker index before rethrowing it.
        let res = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0..8usize).into_par_iter().for_each(|i| {
                    // Parts are contiguous (2 items each with 4 workers),
                    // so item 7 lands on the last spawned worker.
                    if i == 7 {
                        panic!("boom at {i}");
                    }
                })
            })
        });
        let payload = res.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("enriched panic payload is a String");
        assert!(
            msg.contains("rayon worker") && msg.contains("boom at 7"),
            "panic message should name the worker: {msg}"
        );
    }

    #[test]
    fn join_propagates_second_closure_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // recovery: test-local — asserting a join-arm panic propagates
        // out of install with the worker attribution intact.
        let res = std::panic::catch_unwind(|| {
            pool.install(|| join(|| 1, || -> u32 { panic!("right side") }))
        });
        let payload = res.expect_err("join worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("enriched panic payload is a String");
        assert!(msg.contains("rayon worker 1"), "{msg}");
        assert!(msg.contains("right side"), "{msg}");
    }

    #[test]
    fn for_each_visits_all() {
        use swscc_sync::atomic::AtomicUsize;
        let hits = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            (0..10_000u32).into_par_iter().for_each(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    }
}
