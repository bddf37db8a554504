//! Metric bookkeeping and output: sample statistics, metric naming
//! rules, the host fingerprint, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a number comes from. Host measurements and cycle-model outputs
/// are kept apart: a simulated speed-up is never reported as wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured on the host (times, counts, ratios).
    Wall,
    /// Taken from the simulated cycle model (`DanaTiming`).
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
}

/// Checks a metric name against `[A-Za-z0-9_.-]+`, starting with a letter
/// or digit, at most 64 characters.
pub fn check_name(name: &str) -> Result<(), String> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    match name.chars().next() {
        None => Err("empty metric name".to_string()),
        Some(first) if !first.is_ascii_alphanumeric() => Err(format!(
            "metric name {name:?} must start with a letter or digit"
        )),
        _ if name.len() > 64 => Err(format!("metric name {name:?} is longer than 64")),
        _ if !name.chars().all(ok_char) => Err(format!(
            "metric name {name:?} has a character outside [A-Za-z0-9_.-]"
        )),
        _ => Ok(()),
    }
}

/// A named set of metrics, ordered by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Records a metric. A malformed name, a duplicate or a non-finite
    /// value is a bug in this benchmark, so it panics.
    pub fn put(&mut self, name: &str, unit: &'static str, clock: Clock, value: f64) {
        if let Err(e) = check_name(name) {
            panic!("{e}");
        }
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let prev = self
            .0
            .insert(name.to_string(), Metric { unit, clock, value });
        assert!(prev.is_none(), "metric {name} recorded twice");
    }

    pub fn wall(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, unit, Clock::Wall, value);
    }

    pub fn sim(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, unit, Clock::Sim, value);
    }

    /// Adds every metric of `other`; a name in both is a bug.
    pub fn extend(&mut self, other: Metrics) {
        for (name, m) in other.0 {
            self.put(&name, m.unit, m.clock, m.value);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.0.iter()
    }

    /// The metrics as rows of an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.0 {
            let _ = writeln!(
                out,
                "  {name:<32} {:>16} {:<6} {}",
                m.value,
                m.unit,
                m.clock.label()
            );
        }
        out
    }
}

/// Nearest-rank quantile of unsorted samples; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of
/// `n` samples beyond it; `None` when even the median lacks ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Geometric mean of positive values; `None` when empty or any is ≤ 0.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// JSON string literal (the benchmark's own strings are plain ASCII, but
/// escape defensively).
pub fn json_str(s: &str) -> String {
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

/// `{"name": {"value": v, "unit": "u"[, "clock": "wall"]}, …}`.
pub fn metrics_json(metrics: &Metrics, with_clock: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let clock = if with_clock {
                format!(", \"clock\": {}", json_str(m.clock.label()))
            } else {
                String::new()
            };
            // `{}` on f64 prints the shortest text that reads back to
            // the same number: every digit kept.
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{clock}}}",
                json_str(name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(metrics, false)
    )
}

/// The machine a result was measured on, so series from different hosts
/// are never mixed silently.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{{\"logical_cores\": {cores}, \"arch\": {}, \"os\": {}, \"target_features\": [{}]}}",
        json_str(std::env::consts::ARCH),
        json_str(std::env::consts::OS),
        target_features()
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// CPU features detected at run time (x86-64), or compiled in (others).
fn target_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    out.push($f);
                }
            )*};
        }
        probe!("sse2", "sse4.2", "popcnt", "avx", "avx2", "fma", "bmi2", "avx512f");
    }
    #[cfg(target_arch = "aarch64")]
    {
        if cfg!(target_feature = "neon") {
            out.push("neon");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_outside_the_alphabet_are_rejected() {
        for good in [
            "setup_s",
            "point_us.p99",
            "obs.self_frac.strider",
            "9lives",
            "a-b",
        ] {
            assert_eq!(check_name(good), Ok(()), "{good}");
        }
        for bad in [
            "",
            "has space",
            "slash/name",
            "μs",
            "semi;colon",
            "_lead",
            ".lead",
            "q\"uote",
        ] {
            assert!(check_name(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(check_name(&"x".repeat(65)).is_err());
        assert!(check_name(&"x".repeat(64)).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn recording_a_bad_name_panics() {
        Metrics::default().wall("bad name", "ms", 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.wall("latency_ms", "ms", 1.25);
        m.sim("sim_ms", "ms", 0.5);
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"sim_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn geomean_weighs_each_value_equally() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
    }
}
