//! Run results: the metric list, the statistics behind it, and the one
//! JSON line every run ends with.

use dagsched_proto::json::Json;
use dagsched_stats::percentile;

/// One named, unit-carrying figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation that did not fail produced a checked, correct
    /// output, and the checker's negative self-test caught both
    /// tampered replies.
    pub correct: bool,
    /// Operations attempted in the timed interval.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run diagnostics: sample counts, host noise, check details.
    pub diag: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// The final stdout line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// The diagnostics line printed just before the result.
    pub fn diag_line(&self) -> String {
        Json::obj(self.diag.clone()).to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Percentile `p` in milliseconds, through the repository's own
    /// nearest-rank rule.
    pub fn pct_ms(&self, p: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p) as f64 / 1e6
    }

    /// Samples strictly above the `p`-th percentile.
    pub fn beyond(&self, p: f64) -> usize {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let cut = percentile(&sorted, p);
        sorted.iter().filter(|&&x| x > cut).count()
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.ns.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>())
    }
}

/// The sample-count diagnostics behind the reported percentiles.
pub fn latency_diag(lat: &Latencies) -> Json {
    Json::obj(vec![
        ("samples", Json::from(lat.len() as u64)),
        ("beyond_p90", Json::from(lat.beyond(90.0) as u64)),
    ])
}
