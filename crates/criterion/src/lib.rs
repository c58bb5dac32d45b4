//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of the Criterion API its benches use: [`Criterion`] with
//! `sample_size` / `bench_function` / `benchmark_group`, [`Bencher::iter`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Like real Criterion, a bench binary run without `--bench` (i.e. under
//! `cargo test`) executes each benchmark body exactly once as a smoke test;
//! under `cargo bench` it times `sample_size` samples and prints the median
//! per-sample wall time.

use std::time::{Duration, Instant};

/// Returns true when cargo invoked the binary as a real benchmark run.
fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Times one benchmark body.
pub struct Bencher {
    bench_mode: bool,
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly, timing each sample (once in smoke mode).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let runs = if self.bench_mode { self.sample_size } else { 1 };
        for _ in 0..runs {
            let start = Instant::now();
            let out = f();
            self.samples.push(start.elapsed());
            drop(out);
        }
    }

    fn median(&mut self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples.sort();
        Some(self.samples[self.samples.len() / 2])
    }
}

fn run_one(id: &str, bench_mode: bool, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        bench_mode,
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    match b.median() {
        Some(med) if bench_mode => {
            println!(
                "{id:<40} median {med:>12.3?} over {} samples",
                b.samples.len()
            );
        }
        Some(_) => println!("{id:<40} ok (smoke)"),
        None => println!("{id:<40} no samples recorded"),
    }
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    bench_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 100,
            bench_mode: bench_mode(),
        }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark records.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Defines a benchmark with the given id.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        run_one(id.as_ref(), self.bench_mode, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Defines a benchmark inside this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.as_ref());
        run_one(
            &full,
            self.parent.bench_mode,
            self.parent.sample_size,
            &mut f,
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group: a function that runs each target against a
/// configured [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            $(
                let mut criterion: $crate::Criterion = $config;
                $target(&mut criterion);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
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
    fn smoke_mode_runs_body_once() {
        let mut criterion = Criterion::default().sample_size(50);
        criterion.bench_mode = false;
        let mut calls = 0u32;
        criterion.bench_function("counted", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn bench_mode_runs_sample_size_iterations() {
        let mut criterion = Criterion::default().sample_size(7);
        criterion.bench_mode = true;
        let mut calls = 0u32;
        let mut group = criterion.benchmark_group("g");
        group.bench_function("counted", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 7);
    }
}
