//! Small measurement helpers: quantiles, wall-clock timing, peak RSS, and
//! the result line.

use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation between order
/// statistics (the "inclusive" definition). `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs` (`0` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns the median wall time of one call in
/// milliseconds. One untimed call first lets caches and pools warm up.
pub fn time_median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms_since(t0)
        })
        .collect();
    median(&samples)
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    apf_fedsim::peak_resident_bytes().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// Ordered `(name, value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }
}

/// The run's verdict: outputs checked, rounds attempted and failed.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that errored, lost a client, or produced a non-finite loss or
    /// model.
    pub failed: u64,
}

impl Verdict {
    /// Records the outcome of one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("check ok: {what}");
        } else {
            println!("check FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(verdict: &Verdict, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    )
}
