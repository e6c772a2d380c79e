//! The run report: one JSON document per analysis run.
//!
//! A [`RunReport`] captures everything needed to reproduce and audit a
//! statistical run: the model and property, the full statistical
//! configuration (including seed and worker count, the reproducibility
//! key), the estimate, per-verdict path counts, phase wall times,
//! per-worker throughput, and the raw metrics snapshot. The schema is
//! versioned and has a structural [`RunReport::validate`] so CI can
//! reject malformed artifacts.
//!
//! Schema history: **v2** added the `convergence` array (per-checkpoint
//! estimate mean and CI half-width, see [`ConvergencePoint`]); **v3**
//! added the optional `pre_verdict` string (`unknown`, `unreachable`,
//! `deadline-unreachable`, or `initially-satisfied`) recording whether
//! the static fixpoint analysis decided the property before sampling —
//! decisive verdicts come with
//! `estimate.samples == 0`; **v4** added the optional `profile` object,
//! an embedded kernel-profile document (see
//! [`crate::profile::ProfileReport`]) present when the run was profiled.
//! The parser still accepts v1/v2/v3 documents, which simply have no
//! convergence series / pre-verdict / profile.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Schema version written into every report.
pub const SCHEMA_VERSION: u64 = 4;

/// Oldest schema version the parser and validator still accept.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// One point of the estimator convergence series: the running estimate
/// after `samples` consumed samples. Checkpoints are taken at
/// deterministic sample counts, so the series is identical for a fixed
/// `(seed, workers)` pair and can be plotted straight from the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Samples consumed when the checkpoint was taken.
    pub samples: u64,
    /// Running estimate `p̂` at the checkpoint.
    pub mean: f64,
    /// Hoeffding CI half-width at the checkpoint (at the run's δ).
    pub half_width: f64,
}

impl ConvergencePoint {
    /// Serializes to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("samples", Json::Num(self.samples as f64)),
            ("mean", Json::Num(self.mean)),
            ("half_width", Json::Num(self.half_width)),
        ])
    }

    /// Parses from JSON.
    ///
    /// # Errors
    /// A message naming the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<ConvergencePoint, String> {
        Ok(ConvergencePoint {
            samples: req_u64(v, "samples", "convergence")?,
            mean: req_f64(v, "mean", "convergence")?,
            half_width: req_f64(v, "half_width", "convergence")?,
        })
    }
}

/// Host provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available logical CPUs.
    pub cpus: u64,
}

impl HostInfo {
    /// Captures the current host.
    pub fn current() -> HostInfo {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("os", Json::str(&self.os)),
            ("arch", Json::str(&self.arch)),
            ("cpus", Json::Num(self.cpus as f64)),
        ])
    }

    /// Parses from JSON.
    ///
    /// # Errors
    /// A message naming the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<HostInfo, String> {
        Ok(HostInfo {
            os: req_str(v, "os", "host")?,
            arch: req_str(v, "arch", "host")?,
            cpus: req_u64(v, "cpus", "host")?,
        })
    }
}

/// What was analyzed.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Model name (builtin name or file path).
    pub name: String,
    /// Number of automata in the network.
    pub automata: u64,
    /// Number of variables in the network.
    pub variables: u64,
}

/// The property that was checked.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyInfo {
    /// Property kind, e.g. `timed-reachability`.
    pub kind: String,
    /// Time bound `T`.
    pub bound: f64,
    /// Goal description, e.g. `var monitor.system_failed`.
    pub goal: String,
}

/// The statistical configuration of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigInfo {
    /// Half-width ε of the confidence interval.
    pub epsilon: f64,
    /// Error probability δ.
    pub delta: f64,
    /// Resolution strategy name.
    pub strategy: String,
    /// Sample-size rule name.
    pub generator: String,
    /// Deadlock policy name.
    pub deadlock_policy: String,
    /// Per-path step limit.
    pub max_steps: u64,
    /// RNG seed (the reproducibility key, with `workers`).
    pub seed: u64,
    /// Worker thread count.
    pub workers: u64,
}

/// The resulting estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateInfo {
    /// Point estimate of the reachability probability.
    pub mean: f64,
    /// Half-width ε.
    pub epsilon: f64,
    /// Confidence `1 − δ`.
    pub confidence: f64,
    /// Total samples drawn.
    pub samples: u64,
    /// Successful samples.
    pub successes: u64,
}

/// Per-verdict path accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathInfo {
    /// Paths that reached the goal within the bound.
    pub satisfied: u64,
    /// Paths that exhausted the time bound.
    pub time_bound_exceeded: u64,
    /// Paths that violated a hold condition.
    pub hold_violated: u64,
    /// Paths that deadlocked.
    pub deadlock: u64,
    /// Paths that timelocked.
    pub timelock: u64,
    /// Paths that hit the step limit.
    pub step_limit: u64,
    /// Total paths (sum of the above).
    pub total: u64,
    /// Total simulation steps across all paths.
    pub total_steps: u64,
    /// Mean steps per path.
    pub mean_steps: f64,
    /// Mean time-to-goal over satisfied paths, when any.
    pub mean_satisfaction_time: Option<f64>,
    /// Earliest time-to-goal over satisfied paths, when any.
    pub min_satisfaction_time: Option<f64>,
    /// Latest time-to-goal over satisfied paths, when any.
    pub max_satisfaction_time: Option<f64>,
}

/// One worker's contribution to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerInfo {
    /// Worker index (0-based).
    pub worker: u64,
    /// Paths this worker produced.
    pub paths: u64,
    /// Satisfied paths this worker produced.
    pub satisfied: u64,
    /// Time this worker spent simulating, in milliseconds.
    pub busy_ms: f64,
    /// Paths per second of busy time.
    pub paths_per_sec: f64,
}

/// The full run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Emitting tool name.
    pub tool_name: String,
    /// Emitting tool version.
    pub tool_version: String,
    /// Host provenance.
    pub host: HostInfo,
    /// What was analyzed.
    pub model: ModelInfo,
    /// The checked property.
    pub property: PropertyInfo,
    /// Statistical configuration.
    pub config: ConfigInfo,
    /// Resulting estimate.
    pub estimate: EstimateInfo,
    /// Static pre-verdict (`unknown`, `unreachable`,
    /// `deadline-unreachable`, `initially-satisfied`; schema v3). `None`
    /// in pre-v3 documents.
    pub pre_verdict: Option<String>,
    /// Estimator convergence series (schema v2; empty in v1 documents).
    pub convergence: Vec<ConvergencePoint>,
    /// Per-verdict path accounting.
    pub paths: PathInfo,
    /// End-to-end wall time in milliseconds.
    pub wall_ms: f64,
    /// Approximate peak memory attributable to the run, in bytes.
    pub approx_memory_bytes: u64,
    /// Phase wall times in milliseconds, in pipeline order.
    pub phases: Vec<(String, f64)>,
    /// Per-worker throughput.
    pub workers: Vec<WorkerInfo>,
    /// Raw metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Embedded kernel profile (schema v4). `None` unless the run was
    /// profiled, and in pre-v4 documents.
    pub profile: Option<crate::profile::ProfileReport>,
}

impl RunReport {
    /// Serializes the report to its JSON document.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            (
                "tool",
                Json::obj([
                    ("name", Json::str(&self.tool_name)),
                    ("version", Json::str(&self.tool_version)),
                ]),
            ),
            ("host", self.host.to_json()),
            (
                "model",
                Json::obj([
                    ("name", Json::str(&self.model.name)),
                    ("automata", Json::Num(self.model.automata as f64)),
                    ("variables", Json::Num(self.model.variables as f64)),
                ]),
            ),
            (
                "property",
                Json::obj([
                    ("kind", Json::str(&self.property.kind)),
                    ("bound", Json::Num(self.property.bound)),
                    ("goal", Json::str(&self.property.goal)),
                ]),
            ),
            (
                "config",
                Json::obj([
                    ("epsilon", Json::Num(self.config.epsilon)),
                    ("delta", Json::Num(self.config.delta)),
                    ("strategy", Json::str(&self.config.strategy)),
                    ("generator", Json::str(&self.config.generator)),
                    ("deadlock_policy", Json::str(&self.config.deadlock_policy)),
                    ("max_steps", Json::Num(self.config.max_steps as f64)),
                    ("seed", Json::u64_str(self.config.seed)),
                    ("workers", Json::Num(self.config.workers as f64)),
                ]),
            ),
            (
                "estimate",
                Json::obj([
                    ("mean", Json::Num(self.estimate.mean)),
                    ("epsilon", Json::Num(self.estimate.epsilon)),
                    ("confidence", Json::Num(self.estimate.confidence)),
                    ("samples", Json::Num(self.estimate.samples as f64)),
                    ("successes", Json::Num(self.estimate.successes as f64)),
                ]),
            ),
            ("pre_verdict", self.pre_verdict.as_deref().map(Json::str).unwrap_or(Json::Null)),
            ("convergence", Json::Arr(self.convergence.iter().map(|c| c.to_json()).collect())),
            (
                "paths",
                Json::obj([
                    ("satisfied", Json::Num(self.paths.satisfied as f64)),
                    ("time_bound_exceeded", Json::Num(self.paths.time_bound_exceeded as f64)),
                    ("hold_violated", Json::Num(self.paths.hold_violated as f64)),
                    ("deadlock", Json::Num(self.paths.deadlock as f64)),
                    ("timelock", Json::Num(self.paths.timelock as f64)),
                    ("step_limit", Json::Num(self.paths.step_limit as f64)),
                    ("total", Json::Num(self.paths.total as f64)),
                    ("total_steps", Json::Num(self.paths.total_steps as f64)),
                    ("mean_steps", Json::Num(self.paths.mean_steps)),
                    ("mean_satisfaction_time", opt(self.paths.mean_satisfaction_time)),
                    ("min_satisfaction_time", opt(self.paths.min_satisfaction_time)),
                    ("max_satisfaction_time", opt(self.paths.max_satisfaction_time)),
                ]),
            ),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("approx_memory_bytes", Json::Num(self.approx_memory_bytes as f64)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, ms)| {
                            Json::obj([("name", Json::str(name)), ("ms", Json::Num(*ms))])
                        })
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("worker", Json::Num(w.worker as f64)),
                                ("paths", Json::Num(w.paths as f64)),
                                ("satisfied", Json::Num(w.satisfied as f64)),
                                ("busy_ms", Json::Num(w.busy_ms)),
                                ("paths_per_sec", Json::Num(w.paths_per_sec)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics_to_json(&self.metrics)),
            (
                "profile",
                self.profile
                    .as_ref()
                    .map(crate::profile::ProfileReport::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Parses a report from its JSON document.
    ///
    /// # Errors
    /// A message naming the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let tool = v.get("tool").ok_or("report: missing `tool`")?;
        let model = v.get("model").ok_or("report: missing `model`")?;
        let property = v.get("property").ok_or("report: missing `property`")?;
        let config = v.get("config").ok_or("report: missing `config`")?;
        let estimate = v.get("estimate").ok_or("report: missing `estimate`")?;
        let paths = v.get("paths").ok_or("report: missing `paths`")?;
        let opt = |v: &Json, key: &str| -> Result<Option<f64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => {
                    x.as_f64().map(Some).ok_or(format!("paths: `{key}` must be number or null"))
                }
            }
        };
        Ok(RunReport {
            schema_version: req_u64(v, "schema_version", "report")?,
            tool_name: req_str(tool, "name", "tool")?,
            tool_version: req_str(tool, "version", "tool")?,
            host: HostInfo::from_json(v.get("host").ok_or("report: missing `host`")?)?,
            model: ModelInfo {
                name: req_str(model, "name", "model")?,
                automata: req_u64(model, "automata", "model")?,
                variables: req_u64(model, "variables", "model")?,
            },
            property: PropertyInfo {
                kind: req_str(property, "kind", "property")?,
                bound: req_f64(property, "bound", "property")?,
                goal: req_str(property, "goal", "property")?,
            },
            config: ConfigInfo {
                epsilon: req_f64(config, "epsilon", "config")?,
                delta: req_f64(config, "delta", "config")?,
                strategy: req_str(config, "strategy", "config")?,
                generator: req_str(config, "generator", "config")?,
                deadlock_policy: req_str(config, "deadlock_policy", "config")?,
                max_steps: req_u64(config, "max_steps", "config")?,
                seed: req_seed(config, "config")?,
                workers: req_u64(config, "workers", "config")?,
            },
            estimate: EstimateInfo {
                mean: req_f64(estimate, "mean", "estimate")?,
                epsilon: req_f64(estimate, "epsilon", "estimate")?,
                confidence: req_f64(estimate, "confidence", "estimate")?,
                samples: req_u64(estimate, "samples", "estimate")?,
                successes: req_u64(estimate, "successes", "estimate")?,
            },
            // Absent in pre-v3 documents.
            pre_verdict: match v.get("pre_verdict") {
                None | Some(Json::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .map(str::to_string)
                        .ok_or("report: `pre_verdict` must be string or null")?,
                ),
            },
            // Absent in v1 documents — parsed as an empty series.
            convergence: match v.get("convergence") {
                None | Some(Json::Null) => Vec::new(),
                Some(c) => c
                    .as_arr()
                    .ok_or("report: `convergence` must be an array")?
                    .iter()
                    .map(ConvergencePoint::from_json)
                    .collect::<Result<Vec<_>, String>>()?,
            },
            paths: PathInfo {
                satisfied: req_u64(paths, "satisfied", "paths")?,
                time_bound_exceeded: req_u64(paths, "time_bound_exceeded", "paths")?,
                hold_violated: req_u64(paths, "hold_violated", "paths")?,
                deadlock: req_u64(paths, "deadlock", "paths")?,
                timelock: req_u64(paths, "timelock", "paths")?,
                step_limit: req_u64(paths, "step_limit", "paths")?,
                total: req_u64(paths, "total", "paths")?,
                total_steps: req_u64(paths, "total_steps", "paths")?,
                mean_steps: req_f64(paths, "mean_steps", "paths")?,
                mean_satisfaction_time: opt(paths, "mean_satisfaction_time")?,
                min_satisfaction_time: opt(paths, "min_satisfaction_time")?,
                max_satisfaction_time: opt(paths, "max_satisfaction_time")?,
            },
            wall_ms: req_f64(v, "wall_ms", "report")?,
            approx_memory_bytes: req_u64(v, "approx_memory_bytes", "report")?,
            phases: v
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or("report: missing array `phases`")?
                .iter()
                .map(|p| Ok((req_str(p, "name", "phase")?, req_f64(p, "ms", "phase")?)))
                .collect::<Result<Vec<_>, String>>()?,
            workers: v
                .get("workers")
                .and_then(Json::as_arr)
                .ok_or("report: missing array `workers`")?
                .iter()
                .map(|w| {
                    Ok(WorkerInfo {
                        worker: req_u64(w, "worker", "worker")?,
                        paths: req_u64(w, "paths", "worker")?,
                        satisfied: req_u64(w, "satisfied", "worker")?,
                        busy_ms: req_f64(w, "busy_ms", "worker")?,
                        paths_per_sec: req_f64(w, "paths_per_sec", "worker")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            metrics: metrics_from_json(v.get("metrics").ok_or("report: missing `metrics`")?)?,
            // Absent in pre-v4 documents, and in unprofiled runs.
            profile: match v.get("profile") {
                None | Some(Json::Null) => None,
                Some(p) => Some(crate::profile::ProfileReport::from_json(p)?),
            },
        })
    }

    /// Structural validation: returns all problems found (empty when the
    /// report is internally consistent). Used by `slimsim report` and CI.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&self.schema_version) {
            problems.push(format!(
                "schema_version is {} but this tool expects {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        let verdict_sum = self.paths.satisfied
            + self.paths.time_bound_exceeded
            + self.paths.hold_violated
            + self.paths.deadlock
            + self.paths.timelock
            + self.paths.step_limit;
        if verdict_sum != self.paths.total {
            problems.push(format!(
                "verdict counts sum to {verdict_sum} but paths.total is {}",
                self.paths.total
            ));
        }
        if self.estimate.samples < self.estimate.successes {
            problems.push(format!(
                "estimate.successes ({}) exceeds estimate.samples ({})",
                self.estimate.successes, self.estimate.samples
            ));
        }
        if self.estimate.samples != self.paths.total {
            problems.push(format!(
                "estimate.samples ({}) disagrees with paths.total ({})",
                self.estimate.samples, self.paths.total
            ));
        }
        if !(0.0..=1.0).contains(&self.estimate.mean) {
            problems.push(format!("estimate.mean {} outside [0, 1]", self.estimate.mean));
        }
        if self.config.workers == 0 {
            problems.push("config.workers must be at least 1".to_string());
        }
        if !self.workers.is_empty() {
            if self.workers.len() as u64 != self.config.workers {
                problems.push(format!(
                    "workers array has {} entries but config.workers is {}",
                    self.workers.len(),
                    self.config.workers
                ));
            }
            let worker_paths: u64 = self.workers.iter().map(|w| w.paths).sum();
            if worker_paths != self.paths.total {
                problems.push(format!(
                    "per-worker paths sum to {worker_paths} but paths.total is {}",
                    self.paths.total
                ));
            }
            let worker_sat: u64 = self.workers.iter().map(|w| w.satisfied).sum();
            if worker_sat != self.paths.satisfied {
                problems.push(format!(
                    "per-worker satisfied sum to {worker_sat} but paths.satisfied is {}",
                    self.paths.satisfied
                ));
            }
        }
        match self.pre_verdict.as_deref() {
            None | Some("unknown") => {}
            Some(v @ ("unreachable" | "deadline-unreachable" | "initially-satisfied")) => {
                if self.estimate.samples != 0 {
                    problems.push(format!(
                        "pre_verdict `{v}` but estimate.samples is {} (expected 0)",
                        self.estimate.samples
                    ));
                }
                let exact = if v == "initially-satisfied" { 1.0 } else { 0.0 };
                if self.estimate.mean != exact {
                    problems.push(format!(
                        "pre_verdict `{v}` but estimate.mean is {} (expected {exact})",
                        self.estimate.mean
                    ));
                }
            }
            Some(other) => problems.push(format!("unknown pre_verdict `{other}`")),
        }
        if self.phases.is_empty() {
            problems.push("phases is empty; expected at least `simulate`".to_string());
        }
        for (name, ms) in &self.phases {
            if !ms.is_finite() || *ms < 0.0 {
                problems.push(format!("phase `{name}` has invalid duration {ms}"));
            }
        }
        let mut prev_samples = 0u64;
        for (i, c) in self.convergence.iter().enumerate() {
            if c.samples <= prev_samples && i > 0 {
                problems.push(format!(
                    "convergence[{i}].samples ({}) not strictly increasing",
                    c.samples
                ));
            }
            prev_samples = c.samples;
            if !(0.0..=1.0).contains(&c.mean) {
                problems.push(format!("convergence[{i}].mean {} outside [0, 1]", c.mean));
            }
            if !c.half_width.is_finite() || c.half_width < 0.0 {
                problems.push(format!("convergence[{i}].half_width {} invalid", c.half_width));
            }
        }
        if let (Some(last), true) = (self.convergence.last(), self.schema_version >= 2) {
            if last.samples > self.estimate.samples {
                problems.push(format!(
                    "convergence ends at {} samples, past estimate.samples ({})",
                    last.samples, self.estimate.samples
                ));
            }
        }
        if let Some(profile) = &self.profile {
            problems.extend(profile.validate().into_iter().map(|p| format!("profile: {p}")));
        }
        problems
    }
}

fn req_str(v: &Json, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("{ctx}: missing string `{key}`"))
}

fn req_f64(v: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or(format!("{ctx}: missing number `{key}`"))
}

fn req_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or(format!("{ctx}: missing integer `{key}`"))
}

/// Reads a seed, written as a decimal string since seeds may exceed 2⁵³,
/// or as a number by older writers.
pub(crate) fn req_seed(v: &Json, ctx: &str) -> Result<u64, String> {
    v.get("seed").and_then(Json::as_u64_lossless).ok_or(format!("{ctx}: missing integer `seed`"))
}

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(m.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect()),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::obj([
                                ("count", Json::Num(h.count as f64)),
                                ("sum", Json::Num(h.sum as f64)),
                                ("min", Json::Num(h.min as f64)),
                                ("max", Json::Num(h.max as f64)),
                                ("mean", Json::Num(h.mean)),
                                ("p50", Json::Num(h.p50)),
                                ("p90", Json::Num(h.p90)),
                                ("p99", Json::Num(h.p99)),
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(lo, hi, n)| {
                                                Json::Arr(vec![
                                                    Json::Num(lo as f64),
                                                    Json::Num(hi as f64),
                                                    Json::Num(n as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn metrics_from_json(v: &Json) -> Result<MetricsSnapshot, String> {
    let counters = match v.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, n)| {
                n.as_u64().map(|n| (k.clone(), n)).ok_or(format!("counter `{k}` not an integer"))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?,
        _ => return Err("metrics: missing object `counters`".to_string()),
    };
    let histograms = match v.get("histograms") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, h)| {
                let ctx = format!("histogram `{k}`");
                let buckets = h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or(format!("{ctx}: missing array `buckets`"))?
                    .iter()
                    .map(|b| {
                        let b = b
                            .as_arr()
                            .filter(|b| b.len() == 3)
                            .ok_or(format!("{ctx}: bucket must be a [lo, hi, count] triple"))?;
                        let lo = b[0].as_u64().ok_or(format!("{ctx}: bucket lo"))?;
                        // u64::MAX is not exactly representable as f64;
                        // snap the top bucket bound back.
                        let hi = b[1].as_u64().unwrap_or(u64::MAX);
                        let n = b[2].as_u64().ok_or(format!("{ctx}: bucket count"))?;
                        Ok((lo, hi, n))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((
                    k.clone(),
                    HistogramSnapshot {
                        count: req_u64(h, "count", &ctx)?,
                        sum: req_u64(h, "sum", &ctx)?,
                        min: req_u64(h, "min", &ctx)?,
                        max: req_u64(h, "max", &ctx)?,
                        mean: req_f64(h, "mean", &ctx)?,
                        p50: req_f64(h, "p50", &ctx)?,
                        p90: req_f64(h, "p90", &ctx)?,
                        p99: req_f64(h, "p99", &ctx)?,
                        buckets,
                    },
                ))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?,
        _ => return Err("metrics: missing object `histograms`".to_string()),
    };
    Ok(MetricsSnapshot { counters, histograms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_report() -> RunReport {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.steps_total");
        let h = reg.histogram("sim.steps_per_path");
        reg.add(c, 1234);
        for v in [3u64, 5, 9, 200] {
            reg.record(h, v);
        }
        RunReport {
            schema_version: SCHEMA_VERSION,
            tool_name: "slimsim".to_string(),
            tool_version: "0.1.0".to_string(),
            host: HostInfo::current(),
            model: ModelInfo { name: "sensor-filter".to_string(), automata: 4, variables: 6 },
            property: PropertyInfo {
                kind: "timed-reachability".to_string(),
                bound: 10.0,
                goal: "var monitor.system_failed".to_string(),
            },
            config: ConfigInfo {
                epsilon: 0.05,
                delta: 0.05,
                strategy: "uniform".to_string(),
                generator: "chernoff-hoeffding".to_string(),
                deadlock_policy: "falsify".to_string(),
                max_steps: 100_000,
                seed: 0xC0_FF_EE,
                workers: 2,
            },
            estimate: EstimateInfo {
                mean: 0.25,
                epsilon: 0.05,
                confidence: 0.95,
                samples: 738,
                successes: 184,
            },
            pre_verdict: Some("unknown".to_string()),
            convergence: vec![
                ConvergencePoint { samples: 64, mean: 0.28125, half_width: 0.17 },
                ConvergencePoint { samples: 256, mean: 0.26, half_width: 0.085 },
                ConvergencePoint { samples: 738, mean: 0.25, half_width: 0.05 },
            ],
            paths: PathInfo {
                satisfied: 184,
                time_bound_exceeded: 554,
                total: 738,
                total_steps: 12345,
                mean_steps: 12345.0 / 738.0,
                mean_satisfaction_time: Some(4.25),
                min_satisfaction_time: Some(0.5),
                max_satisfaction_time: Some(9.75),
                ..PathInfo::default()
            },
            wall_ms: 81.25,
            approx_memory_bytes: 4096,
            phases: vec![
                ("instantiate".to_string(), 0.5),
                ("simulate".to_string(), 78.0),
                ("estimate".to_string(), 0.25),
            ],
            workers: vec![
                WorkerInfo {
                    worker: 0,
                    paths: 369,
                    satisfied: 92,
                    busy_ms: 70.0,
                    paths_per_sec: 5271.4,
                },
                WorkerInfo {
                    worker: 1,
                    paths: 369,
                    satisfied: 92,
                    busy_ms: 72.0,
                    paths_per_sec: 5125.0,
                },
            ],
            metrics: reg.snapshot(),
            profile: None,
        }
    }

    #[test]
    fn json_roundtrip_is_field_exact() {
        let r = sample_report();
        let text = r.to_json().to_pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn sample_report_validates_clean() {
        assert_eq!(sample_report().validate(), Vec::<String>::new());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut r = sample_report();
        r.paths.satisfied += 1; // breaks verdict sum, worker sums
        r.estimate.mean = 1.5;
        r.schema_version = 99;
        let problems = r.validate();
        assert!(problems.iter().any(|p| p.contains("verdict counts")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("outside [0, 1]")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("schema_version")), "{problems:?}");
    }

    #[test]
    fn seed_roundtrips_losslessly_above_2_pow_53() {
        for seed in [u64::MAX, (1 << 53) + 1, 0] {
            let mut r = sample_report();
            r.config.seed = seed;
            let text = r.to_json().to_pretty();
            let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.config.seed, seed);
            assert_eq!(back, r);
        }
    }

    #[test]
    fn numeric_seed_of_older_writers_still_reads() {
        let mut v = sample_report().to_json();
        let Json::Obj(members) = &mut v else { unreachable!() };
        let config = &mut members.iter_mut().find(|(k, _)| k == "config").unwrap().1;
        let Json::Obj(config) = config else { unreachable!() };
        config.iter_mut().find(|(k, _)| k == "seed").unwrap().1 = Json::Num(12_648_430.0);
        let back = RunReport::from_json(&Json::parse(&v.to_compact()).unwrap()).unwrap();
        assert_eq!(back.config.seed, 12_648_430);
    }

    #[test]
    fn null_satisfaction_times_roundtrip() {
        let mut r = sample_report();
        r.paths.mean_satisfaction_time = None;
        r.paths.min_satisfaction_time = None;
        r.paths.max_satisfaction_time = None;
        let text = r.to_json().to_compact();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.paths.mean_satisfaction_time, None);
        assert_eq!(back, r);
    }

    /// A v1 document (no `convergence`, no `pre_verdict`) — the fixture
    /// mirrors what the tool wrote before the v2/v3 migrations.
    fn v1_fixture() -> String {
        let mut r = sample_report();
        r.schema_version = 1;
        r.convergence.clear();
        r.pre_verdict = None;
        let v = r.to_json();
        // Strip the empty convergence/pre_verdict members so the document
        // is a true v1 file, not just a v3 file with null placeholders.
        let Json::Obj(members) = v else { unreachable!() };
        Json::Obj(
            members.into_iter().filter(|(k, _)| k != "convergence" && k != "pre_verdict").collect(),
        )
        .to_pretty()
    }

    #[test]
    fn v1_reports_still_parse_and_validate() {
        let text = v1_fixture();
        assert!(!text.contains("convergence"));
        assert!(!text.contains("pre_verdict"));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.schema_version, 1);
        assert!(back.convergence.is_empty());
        assert_eq!(back.pre_verdict, None);
        assert_eq!(back.validate(), Vec::<String>::new());
    }

    /// A v3 document (no `profile`) — the fixture mirrors what the tool
    /// wrote before the v4 migration.
    fn v3_fixture() -> String {
        let mut r = sample_report();
        r.schema_version = 3;
        let v = r.to_json();
        // Strip the null profile member so the document is a true v3
        // file, not just a v4 file with a null placeholder.
        let Json::Obj(members) = v else { unreachable!() };
        Json::Obj(members.into_iter().filter(|(k, _)| k != "profile").collect()).to_pretty()
    }

    #[test]
    fn v3_reports_still_parse_and_validate() {
        let text = v3_fixture();
        assert!(!text.contains("\"profile\""));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.schema_version, 3);
        assert_eq!(back.profile, None);
        assert_eq!(back.validate(), Vec::<String>::new());
    }

    #[test]
    fn embedded_profile_roundtrips_and_is_validated() {
        use crate::profile::{ProfileEntry, ProfileReport, PROFILE_SCHEMA_VERSION};
        let mut r = sample_report();
        r.profile = Some(ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            model: "sensor-filter".to_string(),
            seed: 0xC0_FF_EE,
            samples: 738,
            total_ops: 10,
            ops: vec![ProfileEntry { label: "LoadVar".to_string(), count: 10 }],
            digrams: Vec::new(),
            guards: Vec::new(),
            transitions: Vec::new(),
            locations: Vec::new(),
            delay_solves: 0,
        });
        let text = r.to_json().to_pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(r.validate(), Vec::<String>::new());
        // A broken embedded profile surfaces through the run report's
        // validator, prefixed so the problem is attributable.
        r.profile.as_mut().unwrap().total_ops = 7; // op sum is 10
        assert!(r.validate().iter().any(|p| p.starts_with("profile: ")), "{:?}", r.validate());
    }

    #[test]
    fn pre_verdict_consistency_is_validated() {
        // A decisive pre-verdict with sampled data is inconsistent.
        let mut r = sample_report();
        r.pre_verdict = Some("unreachable".to_string());
        let problems = r.validate();
        assert!(problems.iter().any(|p| p.contains("expected 0")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("estimate.mean")), "{problems:?}");
        // Unrecognized verdict names are flagged.
        let mut r = sample_report();
        r.pre_verdict = Some("maybe".to_string());
        assert!(r.validate().iter().any(|p| p.contains("unknown pre_verdict")));
        // A proper zero-sample short-circuit validates clean.
        let mut r = sample_report();
        r.pre_verdict = Some("unreachable".to_string());
        r.estimate =
            EstimateInfo { mean: 0.0, epsilon: 0.0, confidence: 1.0, samples: 0, successes: 0 };
        r.paths = PathInfo::default();
        r.convergence.clear();
        r.workers.clear();
        r.phases = vec![("static".to_string(), 0.5)];
        assert_eq!(r.validate(), Vec::<String>::new());
    }

    #[test]
    fn validate_catches_bad_convergence() {
        let mut r = sample_report();
        r.convergence[1].samples = 64; // not strictly increasing
        r.convergence[2].mean = 2.0;
        let problems = r.validate();
        assert!(problems.iter().any(|p| p.contains("strictly increasing")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("convergence[2].mean")), "{problems:?}");
        let mut r = sample_report();
        r.convergence.last_mut().unwrap().samples = 10_000;
        assert!(r.validate().iter().any(|p| p.contains("past estimate.samples")));
    }

    #[test]
    fn from_json_names_missing_fields() {
        let v = Json::parse(r#"{"schema_version": 1}"#).unwrap();
        let err = RunReport::from_json(&v).unwrap_err();
        assert!(err.contains("tool"), "{err}");
    }
}
