//! A dependency-free wall-clock micro-benchmark harness (the Criterion
//! substitute — the workspace must build fully offline).
//!
//! Methodology: after a short warm-up, each benchmark is run for `N`
//! samples (default 20, `GD_BENCH_SAMPLES` overrides); every sample
//! executes enough iterations to span a fixed time budget and reports
//! the mean per-iteration time; the harness prints the **median** of the
//! samples, with min/max for spread. Medians over fixed-budget samples
//! track Criterion's point estimates closely while needing nothing but
//! `std::time::Instant`.

use std::time::{Duration, Instant};

/// The sampled result of one benchmark: per-iteration times summarized
/// as median/min/max over the sample set, plus the sampling plan that
/// produced them. [`Harness::measure`] returns one; the `gd-bench`
/// binary prints it and serializes it into the committed `BENCH_*.json`
/// trajectory.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as passed to the harness.
    pub name: String,
    /// Median per-iteration time across samples (even sample counts
    /// average the two middle elements).
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample (calibrated from the warm-up rate).
    pub iters: u32,
}

/// One benchmark runner with a fixed sampling plan.
#[derive(Debug, Clone)]
pub struct Harness {
    samples: usize,
    sample_budget: Duration,
    warmup: Duration,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            samples: 20,
            sample_budget: Duration::from_millis(100),
            warmup: Duration::from_millis(500),
        }
    }
}

impl Harness {
    /// The default plan (20 samples × 100 ms, 500 ms warm-up), with the
    /// sample count overridable via `GD_BENCH_SAMPLES`.
    pub fn from_env() -> Harness {
        let mut h = Harness::default();
        if let Ok(v) = std::env::var("GD_BENCH_SAMPLES") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    h.samples = n;
                }
            }
        }
        h
    }

    /// Times `f` and returns the summarized [`Measurement`].
    ///
    /// The closure's return value is passed through [`std::hint::black_box`]
    /// so the measured work cannot be optimized away.
    pub fn measure<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Warm up: fill caches, trigger lazy init, settle the clock —
        // and count the runs, because the warm-up doubles as the
        // calibration source below. At least one run always happens,
        // even with a zero warm-up budget.
        let warm_start = Instant::now();
        let mut warm_runs: u64 = 0;
        while warm_runs == 0 || warm_start.elapsed() < self.warmup {
            std::hint::black_box(f());
            warm_runs += 1;
        }
        let warm_elapsed = warm_start.elapsed().max(Duration::from_nanos(1));

        // Calibrate the per-sample iteration count from the warm-up
        // loop's aggregate rate: a scheduler hiccup is amortized over
        // hundreds of runs instead of skewing a single timed run (and
        // with it every sample).
        let per_run = (warm_elapsed.as_nanos() / u128::from(warm_runs)).max(1);
        let iters = (self.sample_budget.as_nanos() / per_run).clamp(1, u128::from(u32::MAX)) as u32;

        let samples = self.samples.max(1);
        let mut per_iter: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed() / iters
            })
            .collect();
        per_iter.sort_unstable();
        Measurement {
            name: name.to_string(),
            median: median_of(&per_iter),
            min: per_iter[0],
            max: per_iter[per_iter.len() - 1],
            samples,
            iters,
        }
    }
}

/// Median of an already-sorted, non-empty slice; even lengths average
/// the two middle elements rather than picking the upper one.
fn median_of(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Renders a duration with an SI unit chosen for 3–4 significant digits.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.50 us");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.50 ms");
        assert_eq!(fmt_duration(Duration::from_millis(3_250)), "3.25 s");
    }

    #[test]
    fn even_sample_median_averages_the_middle_pair() {
        let sorted: Vec<Duration> = [10u64, 20, 30, 40].map(Duration::from_nanos).into();
        assert_eq!(median_of(&sorted), Duration::from_nanos(25));
        assert_eq!(median_of(&sorted[..3]), Duration::from_nanos(20));
        assert_eq!(median_of(&sorted[..1]), Duration::from_nanos(10));
    }

    #[test]
    fn measure_reports_the_sampling_plan() {
        let h = Harness {
            samples: 4,
            sample_budget: Duration::from_micros(200),
            warmup: Duration::from_micros(200),
        };
        let m = h.measure("timing/measure_test", || std::hint::black_box(1u64) + 1);
        assert_eq!(m.name, "timing/measure_test");
        assert_eq!(m.samples, 4);
        assert!(m.iters >= 1);
        assert!(m.min <= m.median && m.median <= m.max);
    }

    #[test]
    fn zero_warmup_still_calibrates() {
        let h = Harness {
            samples: 2,
            sample_budget: Duration::from_micros(50),
            warmup: Duration::ZERO,
        };
        let m = h.measure("timing/zero_warmup", || std::hint::black_box(0u64));
        assert!(m.iters >= 1);
    }
}
