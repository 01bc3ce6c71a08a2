//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate vendors the
//! subset of the rayon API the `fdn-lab` campaign executor uses:
//!
//! * `vec.into_par_iter().map(f).collect::<Vec<_>>()` — an order-preserving
//!   parallel map;
//! * [`current_num_threads`];
//! * [`ThreadPoolBuilder`] (`new().num_threads(n).build_global()`) to cap
//!   the worker count (also honours `RAYON_NUM_THREADS`).
//!
//! Work distribution is dynamic: workers race on an atomic cursor over the
//! item list, so a slow scenario does not serialize the rest of its chunk.
//! Results land at their input index, which keeps the output order — and thus
//! every downstream aggregate — fully deterministic regardless of thread
//! interleaving. If registry access ever becomes available, point the
//! workspace `rayon` dependency back at crates.io; the call sites compile
//! unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static GLOBAL_NUM_THREADS: OnceLock<usize> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    reason = "D7: the pool size steers speed only; reports are cmp-gated identical across thread counts"
)]
fn default_num_threads() -> usize {
    if let Some(&n) = GLOBAL_NUM_THREADS.get() {
        return n;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The number of worker threads parallel iterators will use.
pub fn current_num_threads() -> usize {
    default_num_threads()
}

/// Error returned when the global pool was already configured.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configuration for the (process-global) worker pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of worker threads (0 means "automatic").
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Installs the configuration globally.
    ///
    /// # Errors
    ///
    /// Returns an error if the global pool was already configured.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = self.num_threads.unwrap_or_else(default_num_threads);
        GLOBAL_NUM_THREADS.set(n).map_err(|_| ThreadPoolBuildError)
    }
}

/// Conversion into a parallel iterator (rayon-compatible entry point).
pub trait IntoParallelIterator {
    /// The iterator's item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// A minimal parallel iterator: `map` then `collect`.
pub trait ParallelIterator: Sized {
    /// The item type produced.
    type Item: Send;

    /// Consumes the iterator, yielding its items in order.
    fn into_items(self) -> Vec<Self::Item>;

    /// Maps every item through `f` (executed in parallel at collect time).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Executes the pipeline and collects the results in input order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Collection from a parallel iterator (rayon-compatible).
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection from the pipeline's ordered results.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        iter.into_items()
    }
}

/// Parallel iterator over an owned `Vec`.
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// The result of [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;

    fn into_items(self) -> Vec<R> {
        parallel_map(self.base.into_items(), &self.f)
    }
}

/// Order-preserving parallel map with dynamic (cursor-based) work stealing.
fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let threads = default_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Hand out items by index through an atomic cursor; park each result at
    // its input slot so output order is independent of scheduling.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot poisoned")
                    .take()
                    .expect("item taken twice");
                let r = f(item);
                *out[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

/// The conventional glob-import module.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_on_multiple_threads_when_available() {
        let distinct = AtomicUsize::new(0);
        let ids: Vec<String> = (0..256)
            .collect::<Vec<u32>>()
            .into_par_iter()
            .map(|_| {
                distinct.fetch_add(1, Ordering::Relaxed);
                // Force a tiny bit of work so several workers participate.
                std::thread::yield_now();
                format!("{:?}", std::thread::current().id())
            })
            .collect();
        assert_eq!(ids.len(), 256);
        assert_eq!(distinct.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u8> = vec![7].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
