//! Offline verification stub for `criterion`: same call-site API for the
//! subset the workspace benches use; runs each benchmark body a handful
//! of times and prints a wall-clock figure instead of real statistics.

use std::time::Instant;

/// Re-export matching criterion's.
pub use std::hint::black_box;

/// How batched iteration inputs are sized (accepted, ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Input per batch.
    PerIteration,
}

/// Stub measurement driver.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Mirrors `Criterion::sample_size`.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Runs `f` against a stub bencher and reports elapsed wall time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            iters: self.sample_size.clamp(1, 10),
        };
        let t0 = Instant::now();
        f(&mut b);
        println!("bench {id}: {:?} ({} iters)", t0.elapsed(), b.iters);
        self
    }

    /// Mirrors `Criterion::benchmark_group`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            iters: self.sample_size.clamp(1, 10),
            _marker: std::marker::PhantomData,
        }
    }
}

/// Stub benchmark group.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    name: String,
    iters: usize,
    _marker: std::marker::PhantomData<&'c ()>,
}

impl BenchmarkGroup<'_> {
    /// Runs `f` under `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher { iters: self.iters };
        let t0 = Instant::now();
        f(&mut b);
        println!(
            "bench {}/{id}: {:?} ({} iters)",
            self.name,
            t0.elapsed(),
            b.iters
        );
        self
    }

    /// Mirrors `BenchmarkGroup::finish` (no-op).
    pub fn finish(self) {}
}

/// Stub bencher.
#[derive(Debug)]
pub struct Bencher {
    iters: usize,
}

impl Bencher {
    /// Runs the routine `iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.iters {
            black_box(routine());
        }
    }

    /// Runs `routine` over fresh inputs from `setup`.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        for _ in 0..self.iters {
            let input = setup();
            black_box(routine(input));
        }
    }
}

/// Mirrors criterion's group macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),* $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )*
        }
    };
}

/// Mirrors criterion's main macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $( $group(); )*
        }
    };
}
