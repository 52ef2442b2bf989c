//! Workspace-local, std-only stand-in for [`criterion`].
//!
//! The wrsn workspace must build in fully offline / air-gapped
//! environments, so it vendors the slice of the criterion API its
//! benches use: [`criterion_group!`] / [`criterion_main!`],
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! [`BenchmarkGroup::bench_with_input`] / `sample_size` / `finish`,
//! [`BenchmarkId`], [`Bencher::iter`] and [`black_box`].
//!
//! Measurement is deliberately simple: warm up for at least 20 ms in
//! several batches, size a sample (about 2 ms) from the warm-up's mean
//! iteration time, then time batches of that many iterations and report
//! the median per-iteration wall time.
//! There is no statistical regression analysis, HTML report, or plotting.
//! When the bench binary runs in *test* mode (`--test`, as `cargo test
//! --benches` passes) each benchmark executes exactly one iteration, so
//! CI smoke runs stay fast.
//!
//! [`criterion`]: https://docs.rs/criterion

use std::fmt::{self, Display};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver created by [`criterion_main!`].
pub struct Criterion {
    /// Quick mode: one iteration per bench, no timing report.
    test_mode: bool,
    /// Substring filters from the command line; empty runs everything.
    filters: Vec<String>,
    /// Target number of timed samples per bench.
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: false,
            filters: Vec::new(),
            sample_size: 30,
        }
    }
}

impl Criterion {
    /// Builds a driver from the process arguments, accepting the flags
    /// cargo's bench/test harness protocol passes.
    pub fn from_args() -> Self {
        let mut c = Self::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                // Flags cargo or users pass that we accept and ignore.
                "--bench" | "--nocapture" | "--quiet" | "-q" => {}
                other if other.starts_with('-') => {}
                filter => c.filters.push(filter.to_string()),
            }
        }
        c
    }

    fn enabled(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Benchmarks `f` under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if self.enabled(name) {
            let mut b = Bencher {
                test_mode: self.test_mode,
                sample_size: self.sample_size,
                median: None,
            };
            f(&mut b);
            b.report(name);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    /// Prints the closing line of a run (no-op in test mode).
    pub fn final_summary(&self) {
        if !self.test_mode {
            println!("benchmarks complete");
        }
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f` with `input` under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id);
        if self.criterion.enabled(&name) {
            let mut b = Bencher {
                test_mode: self.criterion.test_mode,
                sample_size: self.sample_size.unwrap_or(self.criterion.sample_size),
                median: None,
            };
            f(&mut b, input);
            b.report(&name);
        }
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        if self.criterion.enabled(&full) {
            let mut b = Bencher {
                test_mode: self.criterion.test_mode,
                sample_size: self.sample_size.unwrap_or(self.criterion.sample_size),
                median: None,
            };
            f(&mut b);
            b.report(&full);
        }
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Times closures; handed to every benchmark function.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    median: Option<Duration>,
}

impl Bencher {
    /// Measures `f`, running it enough times for a stable median. In test
    /// mode `f` runs exactly once and nothing is timed.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        let iters_per_sample = calibrate(&mut f);
        // Sample.
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                start.elapsed() / iters_per_sample as u32
            })
            .collect();
        samples.sort_unstable();
        self.median = Some(samples[samples.len() / 2]);
    }

    fn report(&self, name: &str) {
        match self.median {
            Some(median) => println!("{name:<48} {:>12.3?}/iter", median),
            None if self.test_mode => {}
            None => println!("{name:<48} (no measurement — Bencher::iter never called)"),
        }
    }
}

/// Time one sample aims for.
const SAMPLE_TIME: Duration = Duration::from_millis(2);
/// Warm-up floor, in time and in batches: the iteration count comes from
/// the mean over the whole warm-up, so one slow early iteration (a cold
/// cache, a costlier tick) cannot fix it on its own.
const WARM_UP_TIME: Duration = Duration::from_millis(20);
const WARM_UP_BATCHES: u32 = 4;
/// Cap on iterations per batch and per sample.
const MAX_ITERS: u64 = 1 << 20;

/// Warms `f` up in doubling batches (a batch stops growing once it takes
/// [`SAMPLE_TIME`]) for at least [`WARM_UP_BATCHES`] batches and
/// [`WARM_UP_TIME`], then returns how many iterations fill one sample at
/// the warm-up's mean iteration time.
fn calibrate<O>(f: &mut impl FnMut() -> O) -> u64 {
    let (mut batch, mut batches, mut iters, mut spent) = (1u64, 0u32, 0u64, Duration::ZERO);
    while batches < WARM_UP_BATCHES || spent < WARM_UP_TIME {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let took = start.elapsed();
        spent += took;
        iters += batch;
        batches += 1;
        if took < SAMPLE_TIME && batch < MAX_ITERS {
            batch *= 2;
        }
    }
    let mean_ns = (spent.as_nanos() / u128::from(iters)).max(1);
    SAMPLE_TIME
        .as_nanos()
        .div_ceil(mean_ns)
        .min(u128::from(MAX_ITERS)) as u64
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_closure_in_test_mode() {
        let mut calls = 0usize;
        let mut b = Bencher {
            test_mode: true,
            sample_size: 10,
            median: None,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.median.is_none());
    }

    #[test]
    fn bencher_measures_when_not_in_test_mode() {
        let mut b = Bencher {
            test_mode: false,
            sample_size: 3,
            median: None,
        };
        b.iter(|| black_box(2u64).wrapping_mul(3));
        assert!(b.median.is_some());
    }

    #[test]
    fn one_slow_first_iteration_does_not_fix_the_count() {
        // The first call costs a whole sample, every later one ~1 µs: a
        // count taken from the first batch alone would be 1.
        let mut first = true;
        let iters = calibrate(&mut || {
            let spin = if std::mem::take(&mut first) { 3_000 } else { 1 };
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(spin) {}
        });
        assert!(iters > 100, "{iters} iterations per sample");
    }

    #[test]
    fn benchmark_ids_render_like_paths() {
        assert_eq!(BenchmarkId::new("tsp", 12).to_string(), "tsp/12");
        assert_eq!(BenchmarkId::from_parameter("N500").to_string(), "N500");
    }

    #[test]
    fn filters_match_substrings() {
        let c = Criterion {
            filters: vec!["grid".into()],
            ..Criterion::default()
        };
        assert!(c.enabled("grid_build_500"));
        assert!(!c.enabled("dijkstra_501"));
        assert!(Criterion::default().enabled("anything"));
    }
}
