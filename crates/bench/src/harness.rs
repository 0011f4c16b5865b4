//! A plain-harness micro-benchmark timer (the workspace's `criterion`
//! replacement — no external dependencies, `harness = false` benches).
//!
//! Methodology: a warmup phase sizes the per-sample iteration count so each
//! sample runs ≥ ~20 ms, then `APF_BENCH_SAMPLES` (default 11) samples are
//! timed and the median / min / max per-iteration times are reported. The
//! median is robust to scheduler noise; min approximates the noise floor.
//! [`BenchGroup::bench_vs`] interleaves the samples with a reference
//! workload's and also reports their median time ratio, a figure that
//! survives drift in the host's speed. Set `APF_BENCH_QUICK=1` to cut
//! sample counts for smoke runs.

use std::hint::black_box as std_black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, so benchmarked results are not elided.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Per-sample minimum runtime the warmup phase calibrates toward.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Sample pairs [`BenchGroup::bench_vs`] takes even in quick mode: the
/// ratios feed figures regression checks gate on, and a median of three
/// moved by up to a fifth between back-to-back runs on a shared 2-vCPU
/// host.
const MIN_VS_SAMPLES: usize = 7;

fn samples_per_bench() -> usize {
    if std::env::var("APF_BENCH_QUICK").is_ok() {
        return 3;
    }
    std::env::var("APF_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(11)
}

/// Warmup + calibration: runs `f` until one batch fills [`TARGET_SAMPLE`]
/// and returns that batch's iteration count.
pub fn calibrate(f: &mut impl FnMut()) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let elapsed = run_batch(f, iters);
        if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
            return iters;
        }
        // Aim directly at the target when we have signal, else double.
        iters = if elapsed.is_zero() {
            iters * 2
        } else {
            let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64();
            (iters as f64 * scale.clamp(1.5, 16.0)).ceil() as u64
        };
    }
}

/// Runs `f` `iters` times and returns the elapsed time.
fn run_batch(f: &mut impl FnMut(), iters: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed()
}

/// One timed sample: the mean per-iteration time over `iters` runs.
pub fn sample(f: &mut impl FnMut(), iters: u64) -> Duration {
    run_batch(f, iters) / iters as u32
}

/// Median and spread of a set of ratios (such as [`BenchGroup::bench_vs`]'s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Median ratio.
    pub median: f64,
    /// Interquartile range over the median: the run's own noise, as a
    /// fraction.
    pub spread: f64,
}

impl Ratio {
    /// Statistics of `values`.
    ///
    /// # Panics
    /// Panics when `values` is empty.
    pub fn of(mut values: Vec<f64>) -> Ratio {
        values.sort_unstable_by(f64::total_cmp);
        let n = values.len();
        let median = values[n / 2];
        let iqr = values[3 * n / 4] - values[n / 4];
        Ratio {
            median,
            spread: iqr / median.abs().max(1e-12),
        }
    }
}

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label, e.g. `"matmul/128"`.
    pub label: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest per-iteration time observed.
    pub min: Duration,
    /// Slowest per-iteration time observed.
    pub max: Duration,
    /// Iterations per sample.
    pub iters: u64,
    /// Samples taken.
    pub samples: usize,
}

/// Formats a duration with an appropriate unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// A group of related benchmarks printed as one aligned table.
pub struct BenchGroup {
    name: String,
    results: Vec<Measurement>,
    out: Box<dyn Write + Send>,
}

impl BenchGroup {
    /// Starts a group writing to stdout (header is written immediately so
    /// long benches show progress).
    pub fn new(name: &str) -> Self {
        BenchGroup::with_writer(name, Box::new(std::io::stdout()))
    }

    /// Starts a group writing progress to `out` (e.g. a buffer in tests, or
    /// `io::sink()` for silent runs). Write errors are ignored.
    pub fn with_writer(name: &str, mut out: Box<dyn Write + Send>) -> Self {
        let _ = writeln!(out, "\n== {name} ==");
        BenchGroup {
            name: name.to_owned(),
            results: Vec::new(),
            out,
        }
    }

    /// Times `f`, printing one row: warmup-calibrated iteration count,
    /// median of N samples.
    pub fn bench(&mut self, label: &str, mut f: impl FnMut()) -> &Measurement {
        let iters = calibrate(&mut f);
        let per_iter: Vec<Duration> = (0..samples_per_bench())
            .map(|_| sample(&mut f, iters))
            .collect();
        self.record(label, per_iter, iters, String::new())
    }

    /// Times `f` like [`BenchGroup::bench`], interleaving each sample with
    /// a sample of `reference`, and also returns, per sample, `f`'s
    /// per-iteration time divided by the adjacent reference sample's (see
    /// [`Ratio`] for their statistics). Anything that slows the host for
    /// longer than one sample pair (other tenants, frequency changes) slows
    /// both sides alike, so the ratio holds still where absolute times
    /// drift; and a median, unlike a minimum, does not depend on how many
    /// samples were taken.
    pub fn bench_vs(
        &mut self,
        label: &str,
        mut f: impl FnMut(),
        mut reference: impl FnMut(),
    ) -> (&Measurement, Vec<f64>) {
        let iters = calibrate(&mut f);
        let ref_iters = calibrate(&mut reference);
        let samples = samples_per_bench().max(MIN_VS_SAMPLES);
        let (per_iter, ratios): (Vec<Duration>, Vec<f64>) = (0..samples)
            .map(|_| {
                let t = sample(&mut f, iters);
                let r = sample(&mut reference, ref_iters);
                (t, t.as_secs_f64() / r.as_secs_f64().max(1e-12))
            })
            .unzip();
        let ratio = Ratio::of(ratios.clone());
        let suffix = format!("  vs ref {:.4} ±{:.0}%", ratio.median, ratio.spread * 50.0);
        let m = self.record(label, per_iter, iters, suffix);
        (m, ratios)
    }

    fn record(
        &mut self,
        label: &str,
        mut per_iter: Vec<Duration>,
        iters: u64,
        suffix: String,
    ) -> &Measurement {
        per_iter.sort_unstable();
        let samples = per_iter.len();
        let m = Measurement {
            label: format!("{}/{}", self.name, label),
            median: per_iter[samples / 2],
            min: per_iter[0],
            max: per_iter[samples - 1],
            iters,
            samples,
        };
        let _ = writeln!(
            self.out,
            "  {label:<24} median {:>12}  min {:>12}  max {:>12}  ({} iters x {} samples){suffix}",
            fmt_duration(m.median),
            fmt_duration(m.min),
            fmt_duration(m.max),
            m.iters,
            m.samples,
        );
        self.results.push(m);
        self.results.last().unwrap()
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn bench_measures_something() {
        std::env::set_var("APF_BENCH_QUICK", "1");
        let mut g = BenchGroup::with_writer("selftest", Box::new(std::io::sink()));
        // The xor keeps LLVM from closed-forming the loop into a constant;
        // a folded body runs sub-nanosecond and `elapsed / iters` truncates
        // the per-iteration median to zero.
        let m = g.bench("spin", || {
            black_box((0..black_box(1000u64)).fold(0u64, |acc, x| acc ^ x.wrapping_mul(31)));
        });
        assert!(m.median > Duration::ZERO);
        assert!(m.min <= m.median && m.median <= m.max);
        assert_eq!(g.results().len(), 1);
        std::env::remove_var("APF_BENCH_QUICK");
    }

    #[test]
    fn bench_vs_reports_the_time_ratio_to_the_reference() {
        let mut g = BenchGroup::with_writer("selftest", Box::new(std::io::sink()));
        let spin = |n: u64| {
            black_box((0..black_box(n)).fold(0u64, |acc, x| acc ^ x.wrapping_mul(31)));
        };
        // Four times the reference's work: a ratio near 4, loosely bounded
        // for a loaded host.
        let (m, ratios) = g.bench_vs("spin", || spin(4000), || spin(1000));
        assert!(m.median > Duration::ZERO);
        // At least the floor even in quick mode (which the neighbouring
        // test may switch on while this one runs).
        assert!(ratios.len() >= MIN_VS_SAMPLES);
        let ratio = Ratio::of(ratios);
        assert!(ratio.median > 1.5 && ratio.median < 12.0, "{ratio:?}");
        assert!(ratio.spread >= 0.0);
    }

    #[test]
    fn ratio_stats_are_median_and_relative_iqr() {
        let r = Ratio::of(vec![4.0, 1.0, 2.0, 3.0, 5.0, 2.0, 2.0, 3.0]);
        // Sorted: 1 2 2 2 3 3 4 5 — median index 4, quartiles at 2 and 6.
        assert_eq!(r.median, 3.0);
        assert!((r.spread - (4.0 - 2.0) / 3.0).abs() < 1e-12);
    }
}
