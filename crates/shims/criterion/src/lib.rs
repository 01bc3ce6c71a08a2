//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the Criterion API used by `crates/bench/benches`:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`], [`BenchmarkId`]
//! and the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Timing is plain `std::time::Instant`: each benchmark runs `sample_size`
//! samples and reports the median, minimum and maximum per-iteration time.
//! There is no warm-up, outlier rejection or statistical analysis — the point
//! is that `cargo bench` builds, runs and prints comparable numbers without
//! registry access, not that it replaces Criterion's statistics.

#![expect(
    clippy::disallowed_methods,
    clippy::print_stdout,
    reason = "D1, D5: a benchmark harness times with the wall clock and prints its results"
)]

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque identifier for one benchmark case within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from a function/parameter pair.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id rendered from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Re-export of the standard optimization barrier under Criterion's name.
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, once per sample, recording per-iteration durations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let start = Instant::now();
            std_black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

/// A named group of related benchmark cases.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per case.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one case, passing `input` through to the closure.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut b, input);
        self.report(&id.to_string(), &mut b.times);
        self
    }

    /// Runs one case without an explicit input.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut b);
        self.report(&id.to_string(), &mut b.times);
        self
    }

    /// Finishes the group (printing is per-case; this is a no-op for API
    /// compatibility).
    pub fn finish(&mut self) {}

    fn report(&self, case: &str, times: &mut [Duration]) {
        if times.is_empty() {
            println!("{}/{case}: no samples", self.name);
            return;
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        println!(
            "{}/{case}: median {median:?} (min {:?}, max {:?}, {} samples)",
            self.name,
            times[0],
            times[times.len() - 1],
            times.len()
        );
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: self,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.to_string();
        self.benchmark_group(name.clone()).bench_function("", f);
        self
    }
}

/// Declares a benchmark group function list (Criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the listed groups (Criterion-compatible;
/// requires `harness = false` on the bench target).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0;
        group.bench_with_input(BenchmarkId::from_parameter("case"), &5u64, |b, &n| {
            b.iter(|| {
                runs += 1;
                (0..n).sum::<u64>()
            })
        });
        group.finish();
        assert_eq!(runs, 3);
    }

    #[test]
    fn benchmark_id_rendering() {
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
    }
}
