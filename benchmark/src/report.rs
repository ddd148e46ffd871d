//! Result line, sample statistics and process probes.

use std::fmt::Write as _;

/// Everything one run prints on its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and parity failures; any entry makes the run fail.
    pub violations: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Every measured metric, one `name = value` line each, for people.
    pub fn summary(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value)| format!("  {name} = {value}\n"))
            .collect()
    }

    /// The JSON result object, on one line, with one entry per
    /// `(name, unit)` of `spec` in that order; a metric this run did not
    /// measure reads 0.
    pub fn to_json(&self, spec: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in spec.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.value(name).unwrap_or(0.0);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); NaN when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples (tolerant of
/// `q * n` landing a rounding error above an integer).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(q, value)`; the median below 20 samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| samples.len().saturating_sub(rank(q, samples.len())) >= 10)
        .unwrap_or(0.5);
    (q, percentile(samples, q))
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(tail(&v), (0.9, 90.0));
    }

    #[test]
    fn json_line() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("wall_s", 1.5);
        assert_eq!(
            r.to_json(&[("wall_s", "s"), ("cores", "count")]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"cores\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
