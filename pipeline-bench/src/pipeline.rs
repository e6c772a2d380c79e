//! The user's path through `slimsim analyze`, called in-process in the
//! order the CLI calls it: load (parse + lower, or a model constructor)
//! → lint preflight → (fixpoint → prune plan → prune) → `analyze`.
//!
//! Stages report to a [`Spans`] recorder. The end-to-end run passes
//! [`NoSpans`], which compiles to the bare calls; the traced run passes
//! a [`SpanLog`].

use crate::workload::{Source, Spec, DELTA};
use slim_analysis::{analyze_network_with, AnalysisOptions};
use slim_automata::prelude::{Expr, Network};
use slim_lint::LintConfig;
use slim_models::{launcher_network, sensor_filter_network, DpuFaultMode};
use slim_models::{LauncherParams, SensorFilterParams};
use slim_stats::Accuracy;
use slimsim_core::prelude::{AnalysisResult, Goal, SimConfig, TimedReach};
use std::collections::BTreeMap;
use std::time::Instant;

/// Receives stage timings and counts.
pub trait Spans {
    /// Runs `f` as the stage `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
    /// Adds `n` to the count `name`.
    fn count(&mut self, name: &'static str, n: f64);
}

/// Records nothing.
#[derive(Debug, Default)]
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn time<T>(&mut self, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn count(&mut self, _: &'static str, _: f64) {}
}

/// Sums stage times (as `<name>_ms`) and counts by name.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    /// Accumulated values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Spans for SpanLog {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        *self.values.entry(format!("{name}_ms")).or_default() += ms;
        out
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.values.entry(name.to_string()).or_default() += n;
    }
}

/// A network ready for `analyze`, with its property and configuration.
#[derive(Debug)]
pub struct Prepared {
    /// The (possibly pruned) network.
    pub net: Network,
    /// `P(◇[0,u] goal)`.
    pub property: TimedReach,
    /// Accuracy, strategy, seed and workers.
    pub config: SimConfig,
}

/// Runs every stage before `analyze`: load, lint preflight, and under
/// `spec.prune` the fixpoint, prune plan and `Network::prune`.
///
/// # Errors
/// Parse, lowering and error-level lint failures, an unknown goal
/// variable, or an invalid accuracy.
pub fn prepare(spec: &Spec, spans: &mut impl Spans) -> Result<Prepared, String> {
    let net = match &spec.source {
        Source::SensorFilter(n) => spans.time("load.build", || {
            sensor_filter_network(&SensorFilterParams { redundancy: *n, ..Default::default() })
        }),
        Source::Launcher { permanent } => spans.time("load.build", || {
            let mut params = LauncherParams::default();
            if *permanent {
                params.dpu_faults = DpuFaultMode::Permanent;
            }
            launcher_network(&params)
        }),
        Source::Slim { name, text, ty, im } => {
            spans.count("lang.source_bytes", text.len() as f64);
            let model = spans
                .time("lang.parse", || slim_lang::parse(text))
                .map_err(|e| format!("{name}: {e}"))?;
            spans
                .time("lang.lower", || slim_lang::lower(&model, ty, im, "root"))
                .map_err(|e| format!("{name}: {e}"))?
                .network
        }
    };

    let diags =
        spans.time("lint.preflight", || slim_lint::preflight(&net, &LintConfig::new())).map_err(
            |d| format!("{}: {} error-level lint(s)", spec.label, slim_lint::error_count(&d)),
        )?;
    spans.count("lint.diagnostics", diags.len() as f64);

    let goal = net
        .var_id(&spec.goal_var)
        .ok_or_else(|| format!("{}: unknown variable `{}`", spec.label, spec.goal_var))?;
    let property = TimedReach::new(Goal::expr(Expr::var(goal)), spec.bound);
    let accuracy = Accuracy::new(spec.epsilon, DELTA).map_err(|e| e.to_string())?;
    let config = SimConfig::default()
        .with_accuracy(accuracy)
        .with_strategy(spec.strategy)
        .with_seed(spec.seed)
        .with_workers(spec.workers);

    // Variable goals survive pruning unchanged (variables are never
    // pruned), so unlike location goals they need no remapping.
    let net = if spec.prune {
        let opts = AnalysisOptions { zones: true, deadline: Some(spec.bound) };
        let fix = spans.time("analysis.fixpoint", || analyze_network_with(&net, &opts));
        let (net, dropped) = spans.time("automata.prune", || {
            let plan = fix.prune_plan(&net);
            if plan.is_noop() {
                (net, 0)
            } else {
                (net.prune(&plan).0, plan.dropped_transitions())
            }
        });
        spans.count("automata.pruned_transitions", dropped as f64);
        net
    } else {
        net
    };
    Ok(Prepared { net, property, config })
}

/// The `analyze` stage: pre-verdict, compile, sample and estimate.
///
/// # Errors
/// Simulation errors, as text.
pub fn analyze(prep: &Prepared) -> Result<AnalysisResult, String> {
    slimsim_core::prelude::analyze(&prep.net, &prep.property, &prep.config)
        .map_err(|e| e.to_string())
}
