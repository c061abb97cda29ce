//! Statistics and reporting: medians, tail percentiles that are only
//! reported when the tail holds enough samples, operation tallies, and the
//! one-line JSON result.

use std::fmt::Write as _;

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, it would describe a handful of outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `xs`, or `None` unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly above its rank.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Attempted and failed operations of one run. A non-200 reply, a
/// transport error and a failed output check each count as a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not produce a correct answer.
    pub failed: u64,
    /// Operations whose answer was wrong (a subset of `failed`).
    pub wrong: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: &Result<(), OpError>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(OpError::Failed(_) | OpError::KnownFault(_)) => self.failed += 1,
            Err(OpError::Wrong(_)) => {
                self.failed += 1;
                self.wrong += 1;
            }
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Why an operation did not count as a success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// The program refused or could not answer (non-200, I/O error).
    Failed(String),
    /// The program answered, and the answer failed a check.
    Wrong(String),
    /// The answer failed a check in a way a known program fault explains.
    KnownFault(String),
}

impl OpError {
    /// The human-readable reason.
    pub fn message(&self) -> &str {
        match self {
            OpError::Failed(m) | OpError::Wrong(m) | OpError::KnownFault(m) => m,
        }
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json` or the README.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `ops/s`, `MiB`, `count`, `ratio`).
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit. Non-finite values become JSON `null`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Renders metrics as `name = value unit` lines for the human-readable part
/// of the output.
pub fn render_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value; exactly 10 lie beyond it.
        assert_eq!(tail_percentile(&xs, 0.90), Some(90.0));
        // p99 of 100 samples has one sample beyond: not reported.
        assert_eq!(tail_percentile(&xs, 0.99), None);
        // 99 samples: p90 rank is 90, only 9 beyond.
        assert_eq!(tail_percentile(&xs[..99], 0.90), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn tally_counts_refusals_and_wrong_answers_as_failed() {
        let mut t = Tally::default();
        t.record(&Ok(()));
        t.record(&Err(OpError::Failed("503".into())));
        t.record(&Err(OpError::Wrong("body differs".into())));
        t.record(&Err(OpError::KnownFault("verdict clean".into())));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3,
                wrong: 1
            }
        );
        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!(total.attempted, 8);
        assert_eq!(total.failed, 6);
    }

    #[test]
    fn result_json_carries_units_and_counts() {
        let t = Tally {
            attempted: 7,
            failed: 0,
            wrong: 0,
        };
        let line = result_json(
            &t,
            &[
                Metric::new("latency_p50_ms", 1.5, "ms"),
                Metric::new("setup_s", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        let wrong = Tally {
            attempted: 1,
            failed: 1,
            wrong: 1,
        };
        assert!(result_json(&wrong, &[]).starts_with("{\"correct\": false"));
    }
}
