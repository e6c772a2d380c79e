//! The four workloads: which analyses one pass runs, and the reference
//! each answer is checked against.
//!
//! A workload is a list of [`Spec`]s per pass. `sf14`, `sf14-2w` and
//! `launcher-fig5` repeat the same analyses at the run seed on every
//! pass, so passes differ only by host noise; `slim-screen` draws fresh
//! analysis seeds from the run seed on every round.

use slim_models::{analytic_failure_probability, SensorFilterParams};
use slim_stats::rng::derive_seed;
use slimsim_core::prelude::StrategyKind;
use std::path::Path;
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sf14", "sf14-2w", "launcher-fig5", "slim-screen"];

/// Confidence parameter δ of every analysis.
pub const DELTA: f64 = 0.05;

/// The Fig. 5 strategies, in the order the sweep runs them.
pub const FIG5_STRATEGIES: [StrategyKind; 4] =
    [StrategyKind::Asap, StrategyKind::Progressive, StrategyKind::Local, StrategyKind::MaxTime];

/// Property bounds every `slim-screen` model is analyzed over.
pub const SCREEN_BOUNDS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Sweep rounds in one `slim-screen` pass: 12 × 16 models × 4 bounds =
/// 768 analyses, about a second of work, so a single pass already holds
/// ≥ 200 analyses and its CPU time spans ~100 clock ticks.
pub const SCREEN_ROUNDS: u64 = 12;

/// Where the analyzed network comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// `slim_models::sensor_filter_network` at this redundancy.
    SensorFilter(usize),
    /// `slim_models::launcher_network`, default or permanent DPU faults.
    Launcher {
        /// Permanent DPU faults (`launcher-permanent`).
        permanent: bool,
    },
    /// SLIM text, parsed and lowered from root `ty.im` under the
    /// instance name `root` (the CLI's default `--name`).
    Slim {
        /// Model name the text is known by (file name or generator).
        name: String,
        /// The source text.
        text: Arc<str>,
        /// Root component type.
        ty: &'static str,
        /// Root component implementation.
        im: &'static str,
    },
}

/// What an answer is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Consistent with this exact probability (see `reference::consistent`).
    Exact(f64),
    /// Bit-identical to the same analysis on 1 worker.
    SameAsOneWorker,
    /// Bit-identical to the same analysis without pruning.
    PruneInvariant,
    /// Exact `P = 0` from the `deadline-unreachable` pre-verdict, with
    /// no samples drawn.
    DeadlineUnreachable,
    /// Within `2ε` of every other analysis of the same pass carrying
    /// this check (paper §V-d: strategies agree when faults are
    /// permanent).
    StrategiesAgree,
}

/// One `slimsim analyze` invocation.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Short label, e.g. `launcher-permanent/local`.
    pub label: String,
    /// The model.
    pub source: Source,
    /// Boolean goal variable (`--goal-var`).
    pub goal_var: String,
    /// Property bound `u` of `P(◇[0,u] goal)`.
    pub bound: f64,
    /// Non-determinism resolution strategy.
    pub strategy: StrategyKind,
    /// Accuracy ε (δ is [`DELTA`]).
    pub epsilon: f64,
    /// Worker threads.
    pub workers: usize,
    /// `--prune` semantics: fixpoint, prune plan, `Network::prune`.
    pub prune: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Reference checks on the answer.
    pub checks: Vec<Check>,
}

/// Everything a workload needs besides the seed: the SLIM sources of
/// `slim-screen`, read or generated before any timing starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    slim: Vec<SlimModel>,
}

#[derive(Debug, Clone)]
struct SlimModel {
    name: String,
    text: Arc<str>,
    ty: &'static str,
    im: &'static str,
    goal_var: &'static str,
    /// Redundancy of a generated sensor–filter model, whose answers are
    /// checked against the closed form.
    sensor_filter: Option<usize>,
    check: Option<Check>,
}

impl Inputs {
    /// Generates the sensor–filter SLIM sources for n = 2…14 and reads
    /// the committed example models from `examples_dir`.
    ///
    /// # Errors
    /// When an example model cannot be read.
    pub fn load(examples_dir: &Path) -> Result<Inputs, String> {
        let mut slim = Vec::new();
        let params = SensorFilterParams::default();
        for n in 2..=14 {
            slim.push(SlimModel {
                name: format!("sensor-filter-{n}.slim"),
                text: sensor_filter_slim(n, &params).into(),
                ty: "Monitor",
                im: "Impl",
                goal_var: "root.failed",
                sensor_filter: Some(n),
                check: None,
            });
        }
        // Documented roots and goals, as in each file's header.
        for (file, ty, im, goal, check) in [
            ("heartbeat.slim", "Monitor", "Main", "root.alarm", None),
            ("deadline.slim", "Timer", "Main", "root.done", Some(Check::DeadlineUnreachable)),
            ("prunable.slim", "Pump", "Main", "root.done", Some(Check::PruneInvariant)),
        ] {
            let path = examples_dir.join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            slim.push(SlimModel {
                name: file.to_string(),
                text: text.into(),
                ty,
                im,
                goal_var: goal,
                sensor_filter: None,
                check,
            });
        }
        Ok(Inputs { slim })
    }

    /// The analyses of pass `pass` of `workload` at run seed `seed`.
    ///
    /// # Errors
    /// On an unknown workload name.
    pub fn pass(&self, workload: &str, seed: u64, pass: u64) -> Result<Vec<Spec>, String> {
        match workload {
            "sf14" => Ok(vec![sf14(1, seed)]),
            "sf14-2w" => Ok(vec![sf14(2, seed)]),
            "launcher-fig5" => Ok(launcher_fig5(seed)),
            "slim-screen" => Ok(self.slim_screen(seed, pass)),
            other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
        }
    }

    fn slim_screen(&self, seed: u64, pass: u64) -> Vec<Spec> {
        let per_pass = SCREEN_ROUNDS as usize * self.slim.len() * SCREEN_BOUNDS.len();
        let mut specs = Vec::with_capacity(per_pass);
        for _ in 0..SCREEN_ROUNDS {
            for model in &self.slim {
                for bound in SCREEN_BOUNDS {
                    // Analysis k of the run draws the k-th derived seed.
                    let k = pass * per_pass as u64 + specs.len() as u64;
                    let check = model.check.or_else(|| {
                        let p = SensorFilterParams {
                            redundancy: model.sensor_filter?,
                            ..Default::default()
                        };
                        Some(Check::Exact(analytic_failure_probability(&p, bound)))
                    });
                    specs.push(Spec {
                        label: format!("{}/u={bound}", model.name),
                        source: Source::Slim {
                            name: model.name.clone(),
                            text: Arc::clone(&model.text),
                            ty: model.ty,
                            im: model.im,
                        },
                        goal_var: model.goal_var.to_string(),
                        bound,
                        strategy: StrategyKind::Progressive,
                        epsilon: 0.1,
                        workers: 1,
                        prune: true,
                        seed: derive_seed(seed, k),
                        checks: check.into_iter().collect(),
                    });
                }
            }
        }
        specs
    }
}

/// Built-in sensor–filter at n = 14, ASAP, `P(◇[0,2] system_failed)`,
/// ε = 0.005.
fn sf14(workers: usize, seed: u64) -> Spec {
    let p = SensorFilterParams { redundancy: 14, ..Default::default() };
    let mut checks = vec![Check::Exact(analytic_failure_probability(&p, 2.0))];
    if workers > 1 {
        checks.push(Check::SameAsOneWorker);
    }
    Spec {
        label: format!("sensor-filter-14/{workers}w"),
        source: Source::SensorFilter(14),
        goal_var: slim_models::GOAL_VAR.to_string(),
        bound: 2.0,
        strategy: StrategyKind::Asap,
        epsilon: 0.005,
        workers,
        prune: false,
        seed,
        checks,
    }
}

/// Fig. 5: both launcher variants at `P(◇[0,5] failure)` under every
/// strategy, ε = 0.01.
fn launcher_fig5(seed: u64) -> Vec<Spec> {
    let mut specs = Vec::new();
    for permanent in [false, true] {
        let model = if permanent { "launcher-permanent" } else { "launcher" };
        for strategy in FIG5_STRATEGIES {
            specs.push(Spec {
                label: format!("{model}/{strategy}"),
                source: Source::Launcher { permanent },
                goal_var: slim_models::FAILURE_VAR.to_string(),
                bound: 5.0,
                strategy,
                epsilon: 0.01,
                workers: 1,
                prune: false,
                seed,
                checks: if permanent { vec![Check::StrategiesAgree] } else { Vec::new() },
            });
        }
    }
    specs
}

/// The sensor–filter model at redundancy `n` as SLIM text: `n` sensors
/// and `n` filters failing independently at the model's rates, and a
/// `failed` flow that is true once a whole bank has failed.
pub fn sensor_filter_slim(n: usize, p: &SensorFilterParams) -> String {
    let mut s = format!(
        "-- Sensor-filter redundancy benchmark (Fig. 3 of the paper), n = {n}.\n\
         device Unit\n  features\n    ok: out data port bool := true;\nend Unit;\n\n"
    );
    for (im, rate) in [("Sensor", p.lambda_sensor), ("Filter", p.lambda_filter)] {
        s += &format!(
            "device implementation Unit.{im}\n  modes\n    running: initial mode;\n    \
             broken: mode;\n  transitions\n    running -[ rate {rate:?} then ok := false ]-> \
             broken;\nend Unit.{im};\n\n"
        );
    }
    s += "system Monitor\n  features\n    failed: out data port bool := false;\nend Monitor;\n\n";
    s += "system implementation Monitor.Impl\n  subcomponents\n";
    for i in 0..n {
        s += &format!("    s{i}: device Unit.Sensor;\n");
    }
    for i in 0..n {
        s += &format!("    f{i}: device Unit.Filter;\n");
    }
    let bank = |prefix: char| {
        (0..n).map(|i| format!("not {prefix}{i}.ok")).collect::<Vec<_>>().join(" and ")
    };
    s += &format!("  flows\n    failed := ({}) or ({});\n", bank('s'), bank('f'));
    s += "  modes\n    watching: initial mode;\nend Monitor.Impl;\n";
    s
}
