//! Sample summaries and the hand-written JSON the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank summary of one timing's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub samples: usize,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
}

/// Summarises `samples` (any order). An empty input gives all zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |p: f64| v[((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    Summary {
        samples: v.len(),
        min: v[0],
        p50: rank(0.50),
        p90: rank(0.90),
        p99: rank(0.99),
        max: v[v.len() - 1],
        mean: v.iter().sum::<f64>() / v.len() as f64,
    }
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// A named metric with its unit, in output order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A named timing kept for the provenance line: its sample count and
/// distribution beside whichever percentile the metric reports.
#[derive(Debug, Clone)]
pub struct Timing {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons `correct` is false, or property violations (for smoke).
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub timings: Vec<Timing>,
    /// Free-form facts for the provenance line (sizes, counts).
    pub facts: Vec<(String, f64)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> Summary {
        let summary = summarize(samples);
        self.timings.push(Timing {
            name: name.to_string(),
            unit,
            summary,
        });
        summary
    }

    pub fn fact(&mut self, name: &str, value: f64) {
        self.facts.push((name.to_string(), value));
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-tripping form), anything else as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The provenance rows of every timing: sample count, min, median, p90,
/// p99, max and mean.
pub fn timings_array(timings: &[Timing]) -> String {
    let rows: Vec<String> = timings
        .iter()
        .map(|t| {
            let s = t.summary;
            format!(
                "{{\"name\": {}, \"unit\": {}, \"samples\": {}, \"min\": {}, \"median\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}}",
                string(&t.name),
                string(t.unit),
                s.samples,
                num(s.min),
                num(s.p50),
                num(s.p90),
                num(s.p99),
                num(s.max),
                num(s.mean)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.min, s.p50, s.p90, s.p99, s.max),
            (1.0, 50.0, 90.0, 99.0, 100.0)
        );
        assert_eq!(summarize(&[3.0]).p99, 3.0);
        assert_eq!(summarize(&[]).samples, 0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
    }
}
