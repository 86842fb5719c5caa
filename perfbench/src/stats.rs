//! Order statistics and the run's metric sheet.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Ops per latency window: each window's p99 has ten samples beyond it.
pub const P99_WINDOW: usize = 1000;

/// p99 of consecutive windows of [`P99_WINDOW`] samples, median over the
/// windows (a short stall then moves one window, not the whole figure).
/// With fewer than two full windows, the plain p99.
pub fn p99_windowed(samples: &[f64]) -> f64 {
    let windows: Vec<f64> = samples
        .chunks_exact(P99_WINDOW)
        .map(|w| percentile(w, 0.99))
        .collect();
    if windows.len() < 2 {
        percentile(samples, 0.99)
    } else {
        median(&windows)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order, printed as the result object.
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// The metrics in insertion order.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// Prints every metric as a human-readable line.
    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        for (name, value, unit) in &self.rows {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            // JSON has no NaN/inf; a non-finite value only arises from a
            // failed run, which `correct: false` already reports.
            let v = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
