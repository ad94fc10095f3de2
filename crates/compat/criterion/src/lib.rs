//! Minimal, API-compatible stand-in for the
//! [`criterion`](https://crates.io/crates/criterion) benchmark harness,
//! vendored because the build environment has no registry access.
//!
//! Covers the surface the workspace's bench targets use: [`Criterion`],
//! [`Criterion::benchmark_group`], `sample_size` / `measurement_time`
//! builders, `bench_function` / `bench_with_input`, `Bencher::iter` /
//! `Bencher::iter_batched`, [`BenchmarkId`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model (simpler than real criterion, same shape): after one
//! warm-up call, each benchmark closure is timed over `sample_size` samples
//! or until the group's `measurement_time` budget is spent, whichever comes
//! first; mean/min/max per-iteration times are printed to stdout. There is
//! no statistical analysis, HTML report, or baseline comparison.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// Identifier that is just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { id: s }
    }
}

/// Times one benchmark body.
pub struct Bencher {
    samples: Vec<Duration>,
    budget: Duration,
    target_samples: usize,
}

impl Bencher {
    /// Run `routine` repeatedly, timing each call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also primes caches/allocations like real criterion).
        black_box(routine());
        let started = Instant::now();
        while self.samples.len() < self.target_samples && started.elapsed() < self.budget {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
        }
    }

    /// Run `routine` on a fresh `setup()` input per call, timing only
    /// `routine`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let started = Instant::now();
        while self.samples.len() < self.target_samples && started.elapsed() < self.budget {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] sets up at once; this
/// stand-in always sets up one per timed call.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs too large to set up in bulk.
    LargeInput,
}

/// A group of related benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-clock budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            budget: self.measurement_time,
            target_samples: self.sample_size,
        };
        f(&mut b);
        self.criterion.report(&self.name, &id.id, &b.samples);
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (prints nothing extra; kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    results: Vec<(String, Duration, Duration)>,
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(5),
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            budget: Duration::from_secs(5),
            target_samples: 10,
        };
        f(&mut b);
        self.report("", &id.id, &b.samples);
        self
    }

    fn report(&mut self, group: &str, id: &str, samples: &[Duration]) {
        let full = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        if samples.is_empty() {
            println!("{full:<60} no samples collected");
            return;
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = samples.iter().min().expect("non-empty");
        let max = samples.iter().max().expect("non-empty");
        println!(
            "{full:<60} time: [{} {} {}]  ({} samples)",
            fmt_duration(*min),
            fmt_duration(mean),
            fmt_duration(*max),
            samples.len()
        );
        self.results.push((full, mean, *min));
    }

    /// Print the closing summary (called by [`criterion_main!`]).
    pub fn final_summary(&self) {
        println!("\n{} benchmarks run", self.results.len());
    }

    /// Mean time of the first recorded benchmark whose full id contains
    /// `substring` (shim extension, used by benches that post-process
    /// their own timings into machine-readable reports).
    pub fn mean_of(&self, substring: &str) -> Option<Duration> {
        self.results
            .iter()
            .find(|(id, _, _)| id.contains(substring))
            .map(|&(_, mean, _)| mean)
    }

    /// Minimum sample time of the first recorded benchmark whose full id
    /// contains `substring` (shim extension). More robust than the mean
    /// against scheduler stalls — the smoke benches report it so the CI
    /// perf gate is not at the mercy of one noisy sample.
    pub fn min_of(&self, substring: &str) -> Option<Duration> {
        self.results
            .iter()
            .find(|(id, _, _)| id.contains(substring))
            .map(|&(_, _, min)| min)
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Bundle benchmark functions into a group runner, like real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` running one or more [`criterion_group!`] bundles.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_records() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(3).measurement_time(Duration::from_millis(50));
            g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
            g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            g.finish();
        }
        assert_eq!(c.results.len(), 2);
        assert!(c.results[0].0.contains("demo/noop"));
        assert!(c.results[1].0.contains("demo/sum/4"));
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("kernel", 2.5).id, "kernel/2.5");
        assert_eq!(BenchmarkId::from_parameter(8).id, "8");
    }
}
