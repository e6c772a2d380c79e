//! End-to-end and per-layer benchmark of the `slimsim analyze` pipeline.
//!
//! [`run::end_to_end`] times the user's path with tracing off;
//! [`traced::per_layer`] times the calls into each crate from outside.
//! Both print one JSON result line through [`Outcome::to_json`].

pub mod host;
pub mod pipeline;
pub mod reference;
pub mod run;
pub mod traced;
pub mod workload;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Analyses attempted.
    pub attempted: u64,
    /// Analyses that errored or missed their reference.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records one checked analysis.
    pub fn record(&mut self, miss: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = miss {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(reason);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
