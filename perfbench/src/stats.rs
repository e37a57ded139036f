//! Small numeric helpers shared by every workload: percentiles that carry
//! their sample count, span self-time arithmetic, and the metric record
//! printed on the result line.

use std::time::Duration;

/// A percentile of a sample set together with how many samples it was
/// taken from and how many lie strictly above it. A tail percentile is
/// only worth reporting when at least ten samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (nearest-rank on the sorted samples).
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
    /// Number of samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `sorted`, which must be
/// sorted ascending. Returns `None` for an empty sample set.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, n) - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Some(Percentile {
        value,
        samples: n,
        beyond,
    })
}

/// Median of an unsorted sample set (mean of the middle pair for an even
/// count); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a ratio over an
/// empty base, e.g. hit yield on a run that verified no candidates).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of a span: its duration minus the part its child spans
/// cover. The children here are the sequential stages a `QueryRecord`
/// reports, so they do not overlap and their cover is their sum; clock
/// granularity can make that sum exceed the span, so the result saturates
/// at zero instead of going negative.
pub fn self_time(span: Duration, children: &[Duration]) -> Duration {
    let covered: Duration = children.iter().sum();
    span.saturating_sub(covered)
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `us`, `count`, `ratio`, …).
    pub unit: &'static str,
}

/// An ordered metric list that refuses invalid or duplicate names.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends a metric. Panics on an invalid or repeated name: both are
    /// programming errors in the benchmark, not measurement outcomes.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "duplicate metric name {name:?}"
        );
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The `"metrics"` object of the result line. Values print with
    /// Rust's shortest round-trip formatting, so no digit is lost.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.samples, 1000);
        assert_eq!(p50.beyond, 500);
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10, "p99 of 1000 samples has ten beyond it");
        let max = percentile(&v, 100.0).unwrap();
        assert_eq!((max.value, max.beyond), (1000.0, 0));
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_counts_ties_as_not_beyond() {
        let v = [1.0, 2.0, 2.0, 2.0, 3.0];
        let p = percentile(&v, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (2.0, 1));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_saturates() {
        let us = Duration::from_micros;
        assert_eq!(self_time(us(100), &[us(20), us(30), us(10)]), us(40));
        assert_eq!(self_time(us(100), &[]), us(100));
        assert_eq!(self_time(us(50), &[us(40), us(20)]), Duration::ZERO);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["qps", "setup_s", "window.maint_us_p50", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "µs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn metrics_refuse_duplicates() {
        let mut m = Metrics::default();
        m.push("qps", 1.0, "1/s");
        m.push("qps", 2.0, "1/s");
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034567891, "ms");
        m.push("entries", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"entries\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
