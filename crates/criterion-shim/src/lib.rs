//! A self-contained subset of the [criterion] benchmarking API.
//!
//! The workspace's `cargo bench` targets were written against criterion,
//! which cannot be fetched in network-restricted environments (see README
//! "Offline builds"). This crate implements the surface those benches use
//! — [`Criterion::bench_function`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`criterion_group!`] and [`criterion_main!`]
//! — with a simple calibrated wall-clock timer:
//! each benchmark is warmed up, then timed over enough iterations to fill a
//! short measurement window, and the mean time per iteration is printed
//! (in ns, µs or ms, whichever reads best).
//!
//! No statistical analysis, plotting or HTML reports are produced; the
//! point is that `cargo bench` compiles, runs and prints comparable
//! numbers anywhere.
//!
//! [criterion]: https://docs.rs/criterion

#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Drives a set of benchmark functions.
#[derive(Debug)]
pub struct Criterion {
    warmup: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Runs `f` as a named benchmark and prints its mean time per
    /// iteration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            warmup: self.warmup,
            measurement: self.measurement,
            report: None,
        };
        f(&mut b);
        match b.report {
            Some((iters, total)) => {
                let per_iter = total.as_nanos() as f64 / iters as f64;
                println!(
                    "{name:<40} {:>12}/iter ({iters} iterations)",
                    fmt_ns(per_iter)
                );
            }
            None => println!("{name:<40} (no measurement: Bencher::iter never called)"),
        }
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Passed to the closure given to [`Criterion::bench_function`]; call
/// [`Bencher::iter`] with the code under test.
#[derive(Debug)]
pub struct Bencher {
    warmup: Duration,
    measurement: Duration,
    report: Option<(u64, Duration)>,
}

impl Bencher {
    /// Times `f`, first warming up, then measuring for the configured
    /// window.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: also estimates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let target =
            ((self.measurement.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        let start = Instant::now();
        for _ in 0..target {
            black_box(f());
        }
        self.report = Some((target, start.elapsed()));
    }

    /// Times `routine` on inputs built by `setup`, leaving the set-up out
    /// of the measurement. Every routine call gets a fresh input and is
    /// timed on its own; the iteration count is sized by the cost of
    /// set-up and routine together.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = |iters: Option<u64>, window: Duration| {
            let start = Instant::now();
            let (mut n, mut busy) = (0u64, Duration::ZERO);
            while iters.map_or(start.elapsed() < window, |target| n < target) {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                busy += t.elapsed();
                n += 1;
            }
            (n, busy, start.elapsed())
        };
        let (warm_iters, _, warm_total) = timed(None, self.warmup);
        let per_iter = warm_total.as_secs_f64() / warm_iters.max(1) as f64;
        let target =
            ((self.measurement.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);
        let (iters, busy, _) = timed(Some(target), Duration::ZERO);
        self.report = Some((iters, busy));
    }
}

/// How many inputs [`Bencher::iter_batched`] builds per batch; the shim
/// has criterion's one-per-iteration size only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One input per routine call.
    PerIteration,
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_something() {
        let mut c = Criterion {
            warmup: Duration::from_millis(5),
            measurement: Duration::from_millis(10),
        };
        let mut ran = false;
        c.bench_function("noop", |b| {
            ran = true;
            b.iter(|| black_box(1 + 1));
        });
        assert!(ran);
    }

    #[test]
    fn iter_batched_times_only_the_routine() {
        let mut c = Criterion {
            warmup: Duration::from_millis(5),
            measurement: Duration::from_millis(10),
        };
        let (mut built, mut used) = (0u64, 0u64);
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    built += 1;
                    std::thread::sleep(Duration::from_micros(200));
                },
                |()| used += 1,
                BatchSize::PerIteration,
            );
            let (iters, busy) = b.report.expect("measured");
            assert!(busy < Duration::from_micros(100) * iters as u32);
        });
        assert_eq!(built, used);
    }

    #[test]
    fn ns_formatting_scales() {
        assert!(fmt_ns(12.3).ends_with("ns"));
        assert!(fmt_ns(12_300.0).ends_with("us"));
        assert!(fmt_ns(12_300_000.0).ends_with("ms"));
    }
}
