//! Metric names and units, the one-line JSON results, and the order
//! statistics used to summarize runs.

use sbu_obs::Json;
use std::collections::BTreeMap;

/// The gated end-to-end metrics, `(name, unit)`: what `--trace 0` reports.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_ops_s", "1/s"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Printed with the end-to-end metrics but not gated: the tail percentiles
/// repeat too loosely between runs (p90's interquartile range over ten
/// seeds reached 42 %), and the rest are counts.
pub const UNGATED: [(&str, &str); 5] = [
    ("p90_us", "us"),
    ("p99_us", "us"),
    ("p999_us", "us"),
    ("samples", "count"),
    ("fail_ratio", "ratio"),
];

/// The per-layer metrics, `(name, unit)`: what `--trace 1` reports.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("client.submit_us.p50", "us"),
    ("client.wait_us.p50", "us"),
    ("client.wait_us.p99", "us"),
    ("client.retry_per_op", "1/op"),
    ("client.stale_per_op", "1/op"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("route.shard_of_ns", "ns"),
    ("server.queue_depth_mean", "frames"),
    ("server.batch_size_mean", "ops"),
    ("server.dedup_hit_per_op", "1/op"),
    ("transport.reads_per_op", "1/op"),
    ("transport.partial_per_op", "1/op"),
    ("fault.drop_per_op", "1/op"),
    ("shard.apply_ns", "ns"),
    ("shard.apply_batch_ns_per_op", "ns"),
    ("shard.first_touch_us", "us"),
    ("shard.bytes_per_key", "B"),
    ("core.apply_ns", "ns"),
    ("core.build_us", "us"),
    ("budget.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
];

fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not a number");
    // `Display` for f64 prints every digit needed to round-trip, never in
    // exponent form, so it is valid JSON as it stands.
    format!("{value}")
}

/// A round's or replay's results as one line of JSON: `{"name": value, …}`.
pub fn flat_line(values: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Parse a [`flat_line`].
pub fn parse_flat(line: &str) -> Result<BTreeMap<String, f64>, String> {
    match Json::parse(line.trim())? {
        Json::Obj(map) => map
            .into_iter()
            .map(|(k, v)| match v.as_num() {
                Some(x) => Ok((k, x)),
                None => Err(format!("{k} is not a number")),
            })
            .collect(),
        _ => Err("not a JSON object".into()),
    }
}

/// One benchmark run's verdict: the last line it prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn parse(line: &str) -> Result<Outcome, String> {
        let doc = Json::parse(line.trim())?;
        let field = |k: &str| doc.get(k).ok_or(format!("missing {k}"));
        let count = |k: &str| {
            field(k)?
                .as_num()
                .map(|x| x as u64)
                .ok_or(format!("bad {k}"))
        };
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("bad correct".into()),
        };
        let Json::Obj(map) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = map
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_num);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric {name} needs a value and a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|m| m.1)
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_its_line() {
        let outcome = Outcome {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                ("throughput_ops_s".into(), 51_234.567_891_2, "1/s".into()),
                ("p50_us".into(), 18.031_25, "us".into()),
                ("setup_s".into(), 0.000_123_4, "s".into()),
            ],
        };
        let line = outcome.to_line();
        assert!(!line.contains('\n'));
        let mut back = Outcome::parse(&line).unwrap();
        // The parser's map is keyed by name; compare in one order.
        back.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        let mut want = outcome.clone();
        want.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(back, want);
        assert_eq!(back.metric("p50_us"), Some(18.031_25));
        assert!(Outcome::parse("{\"correct\": true}").is_err());
    }

    #[test]
    fn flat_lines_round_trip() {
        let values: BTreeMap<String, f64> = [("a.b", 1.5), ("c", 1e-7), ("d", 3e9)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(parse_flat(&flat_line(&values)).unwrap(), values);
    }

    #[test]
    fn order_statistics_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
