//! Metric collection, correctness accounting and the result line.

use std::fmt::Write as _;

/// Named metrics in emission order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`. Non-finite values read as 0.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

/// Attempted and failed checks, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Cells and layer replays checked.
    pub attempted: u64,
    /// Checks that failed (mismatch, error or panic).
    pub failed: u64,
    /// First failure messages, for stderr.
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts one check; on failure keeps `what()` as the message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// Folds in `attempted` cells of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for e in errors {
            if self.errors.len() < 16 {
                self.errors.push(e.clone());
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            r#""{}": {{"value": {value:?}, "unit": "{}"}}"#,
            escape(name),
            escape(unit)
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    )
}

/// Human-readable lines, one per metric.
pub fn table(metrics: &Metrics) -> String {
    let mut out = String::new();
    for (name, value, unit) in &metrics.0 {
        let _ = writeln!(out, "{name:<40} {value:>16.6} {unit}");
    }
    out
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_result_keys() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        let mut c = Checks::default();
        c.check(true, String::new);
        assert_eq!(
            result_line(&c, &m),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn median_of_even_sample_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0]), 3.0);
    }
}
