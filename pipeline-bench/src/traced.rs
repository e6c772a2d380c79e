//! The traced run: per-layer numbers, timed from outside each crate.
//!
//! It makes three kinds of measurement on a workload:
//!
//! * **paired passes** — an untraced pass (as in the end-to-end run)
//!   alternating with a traced pass, whose stages report to a
//!   [`SpanLog`] and whose `analyze` call carries a [`SimObserver`].
//!   The spans give the static layers' times, the observer the runner's
//!   busy time, and the wall ratio the tracing overhead;
//! * **layer probes** on the first pass's analyses, calling below
//!   `analyze`: `pre_verdict_with`, `PathGenerator::new`, one
//!   `generate_with` per path (the engine without the runner), and
//!   `analyze_profiled` for the kernel's operation counts;
//! * **a scaling probe**: the pass's `analyze` calls on 1 and on 2
//!   workers.
//!
//! Every layer metric is reported on every workload; a layer the
//! workload does not exercise reads 0.

use crate::host::{nproc, HostSample};
use crate::pipeline::{analyze, prepare, NoSpans, Prepared, SpanLog};
use crate::reference::Checker;
use crate::workload::{Inputs, Spec, FIG5_STRATEGIES};
use crate::{median, quantile, Outcome};
use slim_stats::rng::path_rng;
use slimsim_core::prelude::{
    analyze_observed, analyze_profiled, pre_verdict_with, AnalysisResult, PathGenerator,
    SimObserver, SimScratch,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Paired passes a traced run makes at least.
pub const MIN_PAIRS: usize = 1;

/// Span and count metrics of the traced pass, with their units, in
/// report order. Names match the [`SpanLog`] keys `prepare` produces.
const STAGES: [(&str, &str); 9] = [
    ("lang.parse_ms", "ms"),
    ("lang.lower_ms", "ms"),
    ("lang.source_bytes", "bytes"),
    ("load.build_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("analysis.fixpoint_ms", "ms"),
    ("automata.prune_ms", "ms"),
    ("automata.pruned_transitions", "count"),
];

/// Runs the traced measurements of `workload` and reports every
/// per-layer metric.
///
/// # Errors
/// On an unknown workload, or a probe whose set-up fails.
pub fn per_layer(
    inputs: &Inputs,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checker = Checker::default();
    let host0 = HostSample::now();
    let t_run = Instant::now();

    // Paired passes, alternating untraced and traced.
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    // Per-pass values of the span and runner metrics, by name.
    let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first_plain = Vec::new();
    let mut pass = 0;
    while traced_walls.len() < MIN_PAIRS || t_run.elapsed().as_secs_f64() < seconds {
        let specs = inputs.pass(workload, seed, pass)?;

        // Alternate which pass goes first, so a drifting host slows
        // both sides alike.
        let ((plain, plain_wall), (traced, traced_wall, log, pass_runner)) = if pass % 2 == 0 {
            let plain = plain_pass(&specs);
            (plain, traced_pass(&specs))
        } else {
            let traced = traced_pass(&specs);
            (plain_pass(&specs), traced)
        };
        plain_walls.push(plain_wall);
        traced_walls.push(traced_wall);

        for (name, _) in STAGES {
            let v = log.values.get(name).copied().unwrap_or(0.0);
            per_pass.entry(name).or_default().push(v);
        }
        for (name, v) in [
            ("runner.worker_busy_frac", pass_runner.busy_frac()),
            ("runner.overhead_ms", pass_runner.overhead_ms),
            ("stats.samples", pass_runner.samples as f64),
        ] {
            per_pass.entry(name).or_default().push(v);
        }
        for results in [&plain, &traced] {
            for miss in checker.check_pass(&specs, results) {
                out.record(miss);
            }
        }
        if pass == 0 {
            first_plain = plain;
        }
        pass += 1;
    }

    // Layer probes and the scaling probe on the first pass.
    let specs = inputs.pass(workload, seed, 0)?;
    let preps: Vec<Prepared> =
        specs.iter().map(|s| prepare(s, &mut NoSpans)).collect::<Result<_, _>>()?;
    let probes = probe_layers(&specs, &preps, &first_plain, &mut out)?;
    let scaling = scaling_probe(&preps)?;
    let (steal_ms, runq_wait_ms) = HostSample::now().since(&host0);

    for (name, unit) in STAGES {
        out.push(name, median(&per_pass[name]), unit);
    }
    probes.report(&mut out);
    out.push("runner.worker_busy_frac", median(&per_pass["runner.worker_busy_frac"]), "ratio");
    out.push("runner.overhead_ms", median(&per_pass["runner.overhead_ms"]), "ms");
    out.push("runner.scaling_eff", scaling, "ratio");
    out.push("stats.samples", median(&per_pass["stats.samples"]), "count");
    out.push("host.nproc", nproc() as f64, "count");
    out.push("host.steal_ms", steal_ms, "ms");
    out.push("host.runq_wait_ms", runq_wait_ms, "ms");
    out.push("trace.overhead", median(&traced_walls) / median(&plain_walls), "ratio");
    out.push("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    Ok(out)
}

type Answers = Vec<Result<AnalysisResult, String>>;

/// The end-to-end run's pass: answers and wall time in seconds.
fn plain_pass(specs: &[Spec]) -> (Answers, f64) {
    let t0 = Instant::now();
    let answers =
        specs.iter().map(|s| prepare(s, &mut NoSpans).and_then(|p| analyze(&p))).collect();
    (answers, t0.elapsed().as_secs_f64())
}

/// The traced pass: stages into a [`SpanLog`], `analyze` with a
/// [`SimObserver`]. Returns answers, wall time, spans and runner totals.
fn traced_pass(specs: &[Spec]) -> (Answers, f64, SpanLog, RunnerTotals) {
    let mut log = SpanLog::default();
    let mut runner = RunnerTotals::default();
    let t0 = Instant::now();
    let answers = specs
        .iter()
        .map(|s| {
            let prep = prepare(s, &mut log)?;
            let obs = SimObserver::new(prep.config.workers);
            let t = Instant::now();
            let res = analyze_observed(&prep.net, &prep.property, &prep.config, Some(&obs));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let res = res.map_err(|e| e.to_string())?;
            runner.add(&obs, prep.config.workers, ms, res.estimate.samples);
            Ok(res)
        })
        .collect();
    (answers, t0.elapsed().as_secs_f64(), log, runner)
}

/// Runner totals of one traced pass: observer busy time against the
/// `analyze` wall of every analysis that sampled.
#[derive(Debug, Default, Clone, Copy)]
struct RunnerTotals {
    /// Σ over sampled analyses of `workers × analyze wall`, ms.
    capacity_ms: f64,
    /// Σ worker busy time, ms.
    busy_ms: f64,
    /// Σ (analyze wall − busiest worker's busy time), ms.
    overhead_ms: f64,
    /// Σ samples consumed by the estimator.
    samples: u64,
}

impl RunnerTotals {
    fn add(&mut self, obs: &SimObserver, workers: usize, wall_ms: f64, samples: u64) {
        let busy: Vec<f64> = obs.worker_stats().iter().map(|w| w.busy_nanos as f64 / 1e6).collect();
        if samples > 0 {
            self.capacity_ms += workers as f64 * wall_ms;
            self.busy_ms += busy.iter().sum::<f64>();
            self.overhead_ms += wall_ms - busy.iter().copied().fold(0.0, f64::max);
        }
        self.samples += samples;
    }

    fn busy_frac(&self) -> f64 {
        if self.capacity_ms > 0.0 {
            self.busy_ms / self.capacity_ms
        } else {
            0.0
        }
    }
}

/// Totals of the layer probes over one pass's analyses.
#[derive(Debug, Default)]
struct Probes {
    preverdict_ms: f64,
    decided: u64,
    compile_ms: f64,
    automata: usize,
    transitions: usize,
    sample_ms: f64,
    paths: u64,
    steps: u64,
    path_us: Vec<f64>,
    /// `(sample_ms, steps)` by strategy name.
    by_strategy: BTreeMap<String, (f64, u64)>,
    ops: u64,
    guard_evals: u64,
    guard_enabled: u64,
    delay_solves: u64,
    kernel_steps: u64,
}

impl Probes {
    fn report(&self, out: &mut Outcome) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let steps = self.steps as f64;
        out.push("core.preverdict_ms", self.preverdict_ms, "ms");
        out.push("core.preverdict_decided", self.decided as f64, "count");
        out.push("automata.compile_ms", self.compile_ms, "ms");
        out.push("automata.automata", self.automata as f64, "count");
        out.push("automata.transitions", self.transitions as f64, "count");
        out.push("core.sample_ms", self.sample_ms, "ms");
        out.push("core.paths", self.paths as f64, "count");
        out.push("core.steps", steps, "count");
        out.push("core.steps_per_path", ratio(steps, self.paths as f64), "steps");
        out.push("core.ns_per_step", ratio(self.sample_ms * 1e6, steps), "ns");
        out.push("core.path_us_p50", median(&self.path_us), "us");
        out.push("core.path_us_p99", quantile(&self.path_us, 0.99), "us");
        for s in FIG5_STRATEGIES {
            let (ms, st) = self.by_strategy.get(&s.to_string()).copied().unwrap_or_default();
            out.push(format!("core.sample_ms.{s}"), ms, "ms");
            out.push(format!("core.ns_per_step.{s}"), ratio(ms * 1e6, st as f64), "ns");
        }
        let (evals, kernel_steps) = (self.guard_evals as f64, self.kernel_steps as f64);
        out.push("kernel.ops_per_step", ratio(self.ops as f64, kernel_steps), "ops");
        out.push("kernel.guard_evals_per_step", ratio(evals, kernel_steps), "evals");
        out.push("kernel.guard_enabled_ratio", ratio(self.guard_enabled as f64, evals), "ratio");
        let solves = ratio(self.delay_solves as f64, kernel_steps);
        out.push("kernel.delay_solves_per_step", solves, "solves");
    }
}

/// Calls below `analyze` for every analysis of the pass. A probe whose
/// answer disagrees with `analyze`'s is recorded as a failure.
fn probe_layers(
    specs: &[Spec],
    preps: &[Prepared],
    answers: &Answers,
    out: &mut Outcome,
) -> Result<Probes, String> {
    let mut p = Probes::default();
    for ((spec, prep), answer) in specs.iter().zip(preps).zip(answers) {
        let (net, property, config) = (&prep.net, &prep.property, &prep.config);
        let t = Instant::now();
        let verdict = pre_verdict_with(net, property, config.zone_pre_verdicts);
        p.preverdict_ms += t.elapsed().as_secs_f64() * 1e3;
        if verdict.exact_probability().is_some() {
            p.decided += 1;
            continue;
        }

        let t = Instant::now();
        let gen = PathGenerator::new(net, property, config.max_steps);
        p.compile_ms += t.elapsed().as_secs_f64() * 1e3;
        p.automata += net.automata().len();
        p.transitions += net.automata().iter().map(|a| a.transitions.len()).sum::<usize>();

        // The engine alone: the runner's path set (indices 0..target of
        // the fixed-target Chernoff generator), one timed call per path.
        let target = config
            .generator
            .instantiate(config.accuracy)
            .known_target()
            .ok_or("the probes need a fixed-target generator")?;
        let mut scratch = SimScratch::new();
        let mut strategy = config.strategy.instantiate();
        let (mut steps, mut successes) = (0u64, 0u64);
        let t_sample = Instant::now();
        for i in 0..target {
            let mut rng = path_rng(config.seed, i);
            let t = Instant::now();
            let outcome = gen.generate_with(&mut scratch, strategy.as_mut(), &mut rng);
            p.path_us.push(t.elapsed().as_secs_f64() * 1e6);
            let outcome = outcome.map_err(|e| format!("{}: {e}", spec.label))?;
            steps += outcome.steps;
            successes += u64::from(outcome.verdict.is_success());
        }
        let sample_ms = t_sample.elapsed().as_secs_f64() * 1e3;
        p.sample_ms += sample_ms;
        p.paths += target;
        p.steps += steps;
        let by = p.by_strategy.entry(config.strategy.to_string()).or_default();
        by.0 += sample_ms;
        by.1 += steps;

        // The kernel's operation counts, on one worker.
        let (res, profile) = analyze_profiled(net, property, &config.with_workers(1), None)
            .map_err(|e| format!("{}: {e}", spec.label))?;
        p.ops += profile.total_ops();
        for flat in 0..profile.shape().n_trans() {
            let (evals, enabled) = profile.guard_counts(flat);
            p.guard_evals += evals;
            p.guard_enabled += enabled;
        }
        p.delay_solves += profile.delay_solve_count();
        p.kernel_steps += res.stats.total_steps;

        // The decomposition must reproduce `analyze`'s answer.
        let Ok(expected) = answer.as_ref().map(|r| &r.estimate) else { continue };
        let agree = successes == expected.successes
            && target == expected.samples
            && res.estimate.successes == expected.successes;
        out.record((!agree).then(|| {
            format!(
                "{}: probes counted {successes}/{target} (profiled {}), analyze {}/{}",
                spec.label, res.estimate.successes, expected.successes, expected.samples
            )
        }));
    }
    Ok(p)
}

/// `wall(1 worker) / (2 × wall(2 workers))` over the pass's `analyze`
/// calls: 1.0 is perfect scaling on two workers.
fn scaling_probe(preps: &[Prepared]) -> Result<f64, String> {
    let mut walls = [0.0; 2];
    for (slot, workers) in [(0, 1), (1, 2)] {
        let t = Instant::now();
        for prep in preps {
            let config = prep.config.with_workers(workers);
            slimsim_core::prelude::analyze(&prep.net, &prep.property, &config)
                .map_err(|e| e.to_string())?;
        }
        walls[slot] = t.elapsed().as_secs_f64();
    }
    Ok(walls[0] / (2.0 * walls[1]))
}
