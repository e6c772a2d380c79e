//! Analysis orchestration: drives the path generator until the statistical
//! generator is satisfied, sequentially or in parallel (§III-C).
//!
//! Reproducibility: path `i` always consumes RNG stream `derive(seed, i)`.
//! With a sample count known up front (Chernoff–Hoeffding) the path set is
//! `0..N`, folded per worker and consumed in index order, so results are
//! identical for every worker count; with sequential stopping rules the
//! round-robin collector fixes the consumption order, making results
//! deterministic given `(seed, workers)`.
//!
//! The runner is written against a small [`PathSource`] seam rather than
//! the engine directly, so its concurrency protocol — block distribution,
//! round-robin collection, completion, failure propagation — is testable
//! with deterministic mock samplers (panics, locks, slow late paths).

use crate::config::{DeadlockPolicy, SimConfig};
use crate::engine::{PathGenerator, PathHooks, SimScratch};
use crate::error::SimError;
use crate::obs::{PathDetail, SimObserver};
use crate::preverdict::{pre_verdict_with, PreVerdict};
use crate::property::TimedReach;
use crate::strategy::Strategy;
use crate::verdict::{PathOutcome, PathStats};
use crate::witness::WitnessSelector;
use slim_automata::prelude::{profile_shape, Network};
use slim_obs::profile::{KernelProfile, NoopProfile, ProfileHooks};
use slim_obs::report::ConvergencePoint;
use slim_stats::chernoff::Accuracy;
use slim_stats::estimator::{Estimate, Generator};
use slim_stats::parallel::RoundRobinCollector;
use slim_stats::rng::path_rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a statistical analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// The probability estimate with its accuracy.
    pub estimate: Estimate,
    /// Path verdict counters.
    pub stats: PathStats,
    /// Wall-clock duration of the analysis.
    pub wall: Duration,
    /// Approximate peak memory attributable to the analysis (state size +
    /// bookkeeping), in bytes — the simulator's memory column of Table I.
    pub approx_memory_bytes: usize,
    /// Static pre-verdict: [`PreVerdict::Unknown`] when the estimate was
    /// sampled, otherwise the exact short-circuit that produced it (with
    /// `estimate.samples == 0`).
    pub pre_verdict: PreVerdict,
}

impl AnalysisResult {
    /// The estimated probability.
    pub fn probability(&self) -> f64 {
        self.estimate.mean
    }
}

/// Where the runner gets its per-index path samples from.
///
/// Production uses [`EngineSource`] (the simulation engine seeded per
/// index); tests substitute deterministic mocks to pin down the runner's
/// failure and completion semantics without racing real simulations.
pub(crate) trait PathSource: Sync {
    /// Generates the outcome of path `index` on the worker's `scratch`.
    /// With `obs` present the path's detail and wall time are flushed to
    /// it; `prof` receives the kernel's profile hooks.
    fn sample<P: ProfileHooks>(
        &self,
        index: u64,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        obs: Option<&SimObserver>,
        prof: P,
    ) -> Result<PathOutcome, SimError>;

    /// Size of one simulation state in bytes (for the memory estimate).
    fn state_bytes(&self) -> usize;
}

/// The production source: one seeded engine run per path index.
struct EngineSource<'a> {
    gen: PathGenerator<'a>,
    seed: u64,
}

impl<'a> EngineSource<'a> {
    fn new(net: &'a Network, property: &'a TimedReach, config: &SimConfig) -> Self {
        EngineSource { gen: PathGenerator::new(net, property, config.max_steps), seed: config.seed }
    }
}

impl PathSource for EngineSource<'_> {
    fn sample<P: ProfileHooks>(
        &self,
        index: u64,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        obs: Option<&SimObserver>,
        prof: P,
    ) -> Result<PathOutcome, SimError> {
        let mut rng = path_rng(self.seed, index);
        let start = obs.map(|_| Instant::now());
        let mut detail = PathDetail::default();
        let mut hooks =
            PathHooks { tracer: None, detail: obs.map(|_| &mut detail), bias: 1.0, prof };
        let result = self.gen.generate_hooked(scratch, strategy, &mut rng, &mut hooks);
        drop(hooks);
        let outcome = result?.0;
        if let (Some(obs), Some(start)) = (obs, start) {
            detail.nanos = start.elapsed().as_nanos() as u64;
            obs.record_path(&outcome, &detail);
        }
        Ok(outcome)
    }

    fn state_bytes(&self) -> usize {
        self.gen.network().state_size_bytes()
    }
}

/// Runs the statistical analysis described by `config`.
///
/// # Errors
/// * [`SimError::DeadlockDetected`] under [`DeadlockPolicy::Error`];
/// * evaluation errors from ill-formed dynamic behavior;
/// * worker failures in parallel mode.
///
/// A fixed-target run that fails reports the failure at the lowest path
/// index, whatever the worker count.
pub fn analyze(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
) -> Result<AnalysisResult, SimError> {
    analyze_observed(net, property, config, None)
}

/// Runs the statistical analysis with optional instrumentation.
///
/// With `obs == Some`, the runner records per-path and per-worker metrics,
/// `simulate`/`estimate` phase timings, collector depth (round-robin runs
/// only), and drives the observer's progress callback. The observer never
/// feeds back into simulation (it is consulted only after samples are
/// produced and never touches the RNG), so results are bit-identical with
/// and without it.
///
/// # Errors
/// See [`analyze`].
pub fn analyze_observed(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    if config.static_pre_verdicts {
        let start = Instant::now();
        let verdict = pre_verdict_with(net, property, config.zone_pre_verdicts);
        if let Some(p) = verdict.exact_probability() {
            return Ok(exact_result(net, verdict, p, start, obs));
        }
    }
    analyze_source(&EngineSource::new(net, property, config), config, obs)
}

/// Picks the runner the generator calls for: the shared-nothing
/// fixed-target runner when the sample count is known up front, otherwise
/// the sequential loop (one worker) or the round-robin collector.
fn analyze_source<S: PathSource>(
    source: &S,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    let generator = config.generator.instantiate(config.accuracy);
    match generator.known_target() {
        Some(target) => {
            analyze_fixed_impl(source, config, generator, target, obs, || NoopProfile).map(|r| r.0)
        }
        None if config.workers <= 1 => analyze_sequential_impl(source, config, generator, obs),
        None => analyze_round_robin_impl(source, config, generator, obs),
    }
}

/// Runs the statistical analysis with the kernel profiler attached,
/// returning the merged [`KernelProfile`] alongside the analysis result.
///
/// This is the fixed-target runner with per-worker [`KernelProfile`]
/// hooks, merged with wrapping adds in worker-index order. Every counter
/// is a sum over paths, so the profile is a pure function of
/// `(model, property, seed, accuracy)`, whatever the worker count. The static
/// pre-verdict short-circuit is skipped: a decisive pre-verdict samples
/// zero paths, leaving nothing to profile.
///
/// # Errors
/// * [`SimError::InvalidInput`] when `config.generator` has no known
///   sample target (sequential stopping rules consume a
///   worker-count-dependent path set — there is no deterministic profile
///   to report);
/// * everything [`analyze`] can raise.
pub fn analyze_profiled(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<(AnalysisResult, KernelProfile), SimError> {
    let generator = config.generator.instantiate(config.accuracy);
    let Some(target) = generator.known_target() else {
        return Err(SimError::InvalidInput {
            detail: "profiling requires a fixed-target generator (chernoff); sequential \
                     stopping rules sample a worker-count-dependent path set"
                .to_string(),
        });
    };
    let source = EngineSource::new(net, property, config);
    let shape = profile_shape(net);
    let (result, parts) = analyze_fixed_impl(&source, config, generator, target, obs, || {
        KernelProfile::new(shape.clone())
    })?;
    let mut profile = KernelProfile::new(shape);
    for part in &parts {
        profile.merge(part);
    }
    Ok((result, profile))
}

/// Builds the zero-sample result of a decisive static pre-verdict. The
/// estimate is exact (`epsilon = 0`, `confidence = 1`), and the `static`
/// phase records the fixpoint time so instrumented reports stay non-empty.
fn exact_result(
    net: &Network,
    verdict: PreVerdict,
    p: f64,
    start: Instant,
    obs: Option<&SimObserver>,
) -> AnalysisResult {
    let stats = PathStats::default();
    let estimate = Estimate { mean: p, samples: 0, successes: 0, epsilon: 0.0, confidence: 1.0 };
    if let Some(o) = obs {
        o.record_phase("static", start.elapsed());
        o.on_progress(0, Some(0), Some((p, 0.0)));
    }
    AnalysisResult {
        estimate,
        stats,
        wall: start.elapsed(),
        approx_memory_bytes: approx_memory(net.state_size_bytes(), &stats),
        pre_verdict: verdict,
    }
}

fn check_deadlock_policy(config: &SimConfig, outcome: &PathOutcome) -> Result<(), SimError> {
    if config.deadlock_policy == DeadlockPolicy::Error && outcome.verdict.is_lock() {
        return Err(SimError::DeadlockDetected {
            time: outcome.end_time,
            description: format!("{} after {} steps", outcome.verdict, outcome.steps),
        });
    }
    Ok(())
}

/// The live `(p̂, half_width)` pair for progress lines and convergence
/// checkpoints. The half-width is the Hoeffding bound at the current
/// sample count (`Accuracy::epsilon_for_samples`) — a uniform,
/// generator-independent measure of how tight the estimate is so far.
fn current_estimate(generator: &dyn Generator, accuracy: Accuracy) -> Option<(f64, f64)> {
    let n = generator.samples();
    (n > 0).then(|| (generator.estimate().mean, accuracy.epsilon_for_samples(n)))
}

/// Geometric (~×1.25) checkpoint schedule over *accepted* samples.
///
/// Evaluated once per accepted sample — never per drain batch — so the
/// recorded series is identical for every worker count and channel
/// interleaving.
struct ConvergenceSchedule {
    next: u64,
}

impl ConvergenceSchedule {
    fn new() -> ConvergenceSchedule {
        ConvergenceSchedule { next: 1 }
    }

    fn after_sample(&mut self, generator: &dyn Generator, accuracy: Accuracy, obs: &SimObserver) {
        let n = generator.samples();
        if n < self.next {
            return;
        }
        if let Some((mean, half_width)) = current_estimate(generator, accuracy) {
            obs.record_convergence(ConvergencePoint { samples: n, mean, half_width });
        }
        while self.next <= n {
            self.next += (self.next / 4).max(1);
        }
    }
}

fn finish_run(
    start: Instant,
    generator: &dyn Generator,
    accuracy: Accuracy,
    stats: PathStats,
    state_bytes: usize,
    obs: Option<&SimObserver>,
) -> AnalysisResult {
    let sim_wall = start.elapsed();
    let est_start = Instant::now();
    let estimate = generator.estimate();
    if let Some(o) = obs {
        o.record_phase("simulate", sim_wall);
        o.record_phase("estimate", est_start.elapsed());
        let est = current_estimate(generator, accuracy);
        // Close the convergence series at the final sample count (the
        // observer drops it if the last checkpoint already sits there).
        if let Some((mean, half_width)) = est {
            o.record_convergence(ConvergencePoint {
                samples: generator.samples(),
                mean,
                half_width,
            });
        }
        o.on_progress(generator.samples(), generator.known_target(), est);
    }
    AnalysisResult {
        estimate,
        stats,
        wall: start.elapsed(),
        approx_memory_bytes: approx_memory(state_bytes, &stats),
        pre_verdict: PreVerdict::Unknown,
    }
}

/// Paths per fixed-target block: a worker simulates [`BLOCK`]
/// consecutive indices before it moves on to its next block, and the
/// calling thread reports progress between its blocks.
const BLOCK: u64 = 16;

/// How a fixed-target run splits paths `0..target` over its workers:
/// blocks of [`BLOCK`] consecutive indices, block `b` to worker
/// `b mod workers`, where it starts at the worker's local path position
/// `(b / workers) · BLOCK`.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    target: u64,
    workers: u64,
    blocks: u64,
}

impl BlockPlan {
    fn new(target: u64, workers: usize) -> BlockPlan {
        BlockPlan { target, workers: workers.max(1) as u64, blocks: target.div_ceil(BLOCK) }
    }

    /// The path indices of block `b`; only the last block can be short.
    fn block(&self, b: u64) -> std::ops::Range<u64> {
        b * BLOCK..((b + 1) * BLOCK).min(self.target)
    }
}

/// One fixed-target worker's local fold over its blocks.
struct WorkerFold<P> {
    stats: PathStats,
    /// Success bit of the worker's `j`-th path at bit `j % 64` of word
    /// `j / 64` — one bit per path, in the worker's own block order.
    successes: Vec<u64>,
    /// The worker's first goal and lock path indices (witness capture
    /// only); its paths arrive in increasing index order.
    witnesses: Option<WitnessSelector>,
    hooks: P,
}

/// A failed path: its index and its error.
type Failure = (u64, SimError);

/// The fixed-target runner, §III-C's "trivial solution" of splitting a
/// known sample count statically: paths `0..target` are distributed by
/// [`BlockPlan`], and the calling thread runs worker 0 (`k` workers use
/// `k − 1` spawned threads and no channel). Each worker folds its
/// outcomes locally and stops at its first failure. After the join the
/// run reports the lowest-index failure, if any, and otherwise feeds the
/// generator in path-index order, so estimate, stats, witnesses and
/// convergence series are identical for every worker count. `make_hooks`
/// builds each worker's kernel hooks; they are returned in worker order.
fn analyze_fixed_impl<S: PathSource, P: ProfileHooks + Send>(
    source: &S,
    config: &SimConfig,
    mut generator: Box<dyn Generator>,
    target: u64,
    obs: Option<&SimObserver>,
    make_hooks: impl Fn() -> P + Sync,
) -> Result<(AnalysisResult, Vec<P>), SimError> {
    let start = Instant::now();
    let plan = BlockPlan::new(target, config.workers);
    // The lowest failing path index seen so far: workers skip blocks past
    // it, since only the lowest-index failure is reported.
    let first_failure = AtomicU64::new(u64::MAX);
    let work = |w: usize| -> Result<WorkerFold<P>, Failure> {
        // Index of the path in progress, to place a panic.
        let mut at = w as u64 * BLOCK;
        let body = AssertUnwindSafe(|| {
            fold_worker(w, source, config, plan, obs, make_hooks(), &first_failure, &mut at)
        });
        catch_unwind(body).unwrap_or_else(|payload| {
            Err((at, SimError::WorkerFailed { detail: panic_message(payload.as_ref()) }))
        })
    };
    let results: Vec<Result<WorkerFold<P>, Failure>> = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> =
            (1..plan.workers as usize).map(|w| scope.spawn(move || work(w))).collect();
        std::iter::once(work(0))
            .chain(spawned.into_iter().map(|h| {
                h.join().unwrap_or_else(|payload| {
                    Err((0, SimError::WorkerFailed { detail: panic_message(payload.as_ref()) }))
                })
            }))
            .collect()
    });
    let failures = results.iter().filter_map(|r| r.as_ref().err());
    if let Some((_, e)) = failures.min_by_key(|(index, _)| *index) {
        return Err(e.clone());
    }
    let folds: Vec<WorkerFold<P>> = results.into_iter().flatten().collect();

    let mut stats = PathStats::default();
    for fold in &folds {
        stats.merge(&fold.stats);
        if let (Some(o), Some(witnesses)) = (obs, &fold.witnesses) {
            o.merge_witnesses(witnesses);
        }
    }
    let mut convergence = ConvergenceSchedule::new();
    for b in 0..plan.blocks {
        let fold = &folds[(b % plan.workers) as usize];
        let local = (b / plan.workers * BLOCK) as usize;
        for pos in local..local + plan.block(b).count() {
            generator.add(fold.successes[pos / 64] >> (pos % 64) & 1 == 1);
            if let Some(o) = obs {
                convergence.after_sample(generator.as_ref(), config.accuracy, o);
            }
        }
    }
    let result =
        finish_run(start, generator.as_ref(), config.accuracy, stats, source.state_bytes(), obs);
    Ok((result, folds.into_iter().map(|f| f.hooks).collect()))
}

/// Worker `w` of [`analyze_fixed_impl`]: simulates its blocks in order
/// and folds their outcomes, returning at its first failure. `at` tracks
/// the index of the path in progress.
#[allow(clippy::too_many_arguments)]
fn fold_worker<S: PathSource, P: ProfileHooks>(
    w: usize,
    source: &S,
    config: &SimConfig,
    plan: BlockPlan,
    obs: Option<&SimObserver>,
    hooks: P,
    first_failure: &AtomicU64,
    at: &mut u64,
) -> Result<WorkerFold<P>, Failure> {
    let mut fold = WorkerFold {
        stats: PathStats::default(),
        successes: Vec::new(),
        witnesses: obs.and_then(SimObserver::witness_capacity).map(WitnessSelector::new),
        hooks,
    };
    let mut strategy = config.strategy.instantiate();
    let mut scratch = SimScratch::new();
    let mut pos = 0usize;
    let mut b = w as u64;
    while b < plan.blocks && b * BLOCK < first_failure.load(Ordering::Relaxed) {
        for index in plan.block(b) {
            *at = index;
            let sampled_at = obs.map(|_| Instant::now());
            let res = source.sample(index, &mut scratch, strategy.as_mut(), obs, &mut fold.hooks);
            let outcome = match res.and_then(|o| check_deadlock_policy(config, &o).map(|()| o)) {
                Ok(outcome) => outcome,
                Err(e) => {
                    first_failure.fetch_min(index, Ordering::Relaxed);
                    return Err((index, e));
                }
            };
            if let (Some(o), Some(t0)) = (obs, sampled_at) {
                o.record_worker_path(w, &outcome, t0.elapsed());
            }
            fold.stats.record(&outcome);
            if pos.is_multiple_of(64) {
                fold.successes.push(0);
            }
            fold.successes[pos / 64] |= u64::from(outcome.verdict.is_success()) << (pos % 64);
            pos += 1;
            if let Some(witnesses) = &mut fold.witnesses {
                witnesses.offer(index, outcome.verdict);
            }
        }
        // The calling thread reports every worker's progress between its
        // own blocks.
        if let (Some(o), 0) = (obs, w) {
            o.on_worker_progress(plan.target, config.accuracy);
        }
        b += plan.workers;
    }
    Ok(fold)
}

/// One worker, sequential stopping rule: simulates one path at a time and
/// feeds the generator in index order until it completes.
fn analyze_sequential_impl<S: PathSource>(
    source: &S,
    config: &SimConfig,
    mut generator: Box<dyn Generator>,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    let start = Instant::now();
    let mut strategy = config.strategy.instantiate();
    let mut scratch = SimScratch::new();
    let mut stats = PathStats::default();
    let mut convergence = ConvergenceSchedule::new();
    let mut index: u64 = 0;

    while !generator.is_complete() {
        let sampled_at = obs.map(|_| Instant::now());
        let outcome = source.sample(index, &mut scratch, strategy.as_mut(), obs, NoopProfile)?;
        check_deadlock_policy(config, &outcome)?;
        stats.record(&outcome);
        generator.add(outcome.verdict.is_success());
        if let (Some(o), Some(t0)) = (obs, sampled_at) {
            o.record_worker_path(0, &outcome, t0.elapsed());
            o.offer_witness(index, outcome.verdict);
            convergence.after_sample(generator.as_ref(), config.accuracy, o);
            let estimate = current_estimate(generator.as_ref(), config.accuracy);
            o.on_progress(generator.samples(), None, estimate);
        }
        index += 1;
    }

    Ok(finish_run(start, generator.as_ref(), config.accuracy, stats, source.state_bytes(), obs))
}

/// Several workers, sequential stopping rule: workers sample one path at
/// a time until told to stop (completion must be able to react between
/// outcomes), and the round-robin collector removes arrival-order bias.
/// Path statistics and per-worker attribution count consumed samples
/// only, so they are the same from run to run: the in-flight paths that
/// arrive after completion depend on thread timing.
fn analyze_round_robin_impl<S: PathSource>(
    source: &S,
    config: &SimConfig,
    mut generator: Box<dyn Generator>,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    let start = Instant::now();
    let workers = config.workers;
    let stop = AtomicBool::new(false);

    // A sample is `(worker, outcome, the worker's busy time on it)`.
    let mut collector: RoundRobinCollector<(usize, PathOutcome, Duration)> =
        RoundRobinCollector::new(workers);
    let mut stats = PathStats::default();
    // Reused across every drain; the collector appends complete rounds
    // into it instead of allocating a fresh Vec per received sample. It
    // carries whole samples (not just success flags) so witness
    // selection, the path statistics and the per-worker attribution see
    // the deterministic consumption order.
    let mut round_buf: Vec<(usize, PathOutcome, Duration)> = Vec::new();
    let mut last_drain = Instant::now();
    let mut convergence = ConvergenceSchedule::new();
    // Before the stop flag is raised every drained round is complete
    // (worker 0 first), so the j-th consumed sample is exactly path
    // index j — the invariant witness capture builds on.
    let mut consumed: u64 = 0;

    // A panic escaping a worker (or the drain loop) propagates out of
    // `std::thread::scope`; map that to a structured error as a backstop —
    // workers additionally catch their own panics below so the estimate
    // protocol can react *before* the scope unwinds.
    let scoped = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| -> Result<(), SimError> {
            type Sent = (usize, Result<PathOutcome, SimError>, Duration);
            let (tx, rx) = std::sync::mpsc::sync_channel::<Sent>(workers * 64);
            for w in 0..workers {
                let tx = tx.clone();
                let stop = &stop;
                let strategy_kind = config.strategy;
                scope.spawn(move || {
                    let body = AssertUnwindSafe(|| {
                        let mut strategy = strategy_kind.instantiate();
                        let mut scratch = SimScratch::new();
                        // Worker w handles path indices w, w + k, w + 2k, …
                        let mut index = w as u64;
                        while !stop.load(Ordering::Relaxed) {
                            let sampled_at = obs.map(|_| Instant::now());
                            let out = source.sample(
                                index,
                                &mut scratch,
                                strategy.as_mut(),
                                obs,
                                NoopProfile,
                            );
                            let busy = sampled_at.map_or(Duration::ZERO, |t0| t0.elapsed());
                            let failed = out.is_err();
                            if tx.send((w, out, busy)).is_err() || failed {
                                break;
                            }
                            index += workers as u64;
                        }
                    });
                    // A panicking worker reports itself as a structured
                    // failure instead of silently starving the round-robin
                    // protocol (its rounds would otherwise never complete
                    // and sequential generators would spin forever).
                    if let Err(payload) = catch_unwind(body) {
                        let detail = panic_message(payload.as_ref());
                        let _ =
                            tx.send((w, Err(SimError::WorkerFailed { detail }), Duration::ZERO));
                    }
                });
            }
            drop(tx);

            // Once the generator completes, the estimate is finalized:
            // leftover in-flight outcomes are drained so workers can exit,
            // but they can no longer fail the run — neither through the
            // deadlock policy nor through late worker errors.
            let mut complete = false;
            loop {
                let disconnected = match rx.recv() {
                    Ok((w, Ok(outcome), busy)) => {
                        if !complete {
                            check_deadlock_policy(config, &outcome)?;
                        }
                        collector.push(w, (w, outcome, busy));
                        false
                    }
                    Ok((_, Err(e), _)) if !complete => {
                        stop.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                    // Late failure in a path the estimate never needed.
                    Ok((_, Err(_), _)) => continue,
                    // All senders dropped: every worker exited, so their
                    // leftover complete rounds can be consumed.
                    Err(_) => {
                        for w in 0..workers {
                            collector.finish_worker(w);
                        }
                        true
                    }
                };
                round_buf.clear();
                collector.drain_rounds_into(&mut round_buf);
                if !round_buf.is_empty() {
                    if let Some(o) = obs {
                        o.record_drain(round_buf.len(), collector.buffered(), last_drain.elapsed());
                        last_drain = Instant::now();
                    }
                    for (w, outcome, busy) in &round_buf {
                        if !generator.is_complete() {
                            stats.record(outcome);
                            generator.add(outcome.verdict.is_success());
                            if let Some(o) = obs {
                                o.record_worker_path(*w, outcome, *busy);
                                o.offer_witness(consumed, outcome.verdict);
                                convergence.after_sample(generator.as_ref(), config.accuracy, o);
                            }
                        }
                        consumed += 1;
                    }
                    if let Some(o) = obs {
                        let estimate = current_estimate(generator.as_ref(), config.accuracy);
                        o.on_progress(generator.samples(), None, estimate);
                    }
                }
                if disconnected {
                    break;
                }
                if !complete && generator.is_complete() {
                    complete = true;
                    stop.store(true, Ordering::Relaxed);
                }
            }
            Ok(())
        })
    }));
    let result: Result<(), SimError> =
        scoped.map_err(|_| SimError::WorkerFailed { detail: "worker thread panicked".into() })?;
    result?;

    Ok(finish_run(start, generator.as_ref(), config.accuracy, stats, source.state_bytes(), obs))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker thread panicked: {s}")
    } else {
        "worker thread panicked".to_string()
    }
}

/// The simulator's memory story (§IV): the per-state footprint plus the
/// recorded outcomes — it does *not* grow with the reachable state space.
fn approx_memory(state_bytes: usize, stats: &PathStats) -> usize {
    state_bytes * 2 // current + scratch state per worker
        + std::mem::size_of::<PathStats>()
        + stats.total() as usize / 8 // one bit per sample, amortized
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Goal;
    use crate::strategy::StrategyKind;
    use crate::verdict::Verdict;
    use slim_automata::prelude::*;
    use slim_stats::chernoff::Accuracy;
    use slim_stats::sequential::GeneratorKind;

    /// ok --λ--> failed: P(◇[0,t] failed) = 1 − e^{−λt}, analytically.
    fn exp_net(lambda: f64) -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, lambda, [], failed);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        (net, TimedReach::new(goal, 1.0))
    }

    fn loose() -> SimConfig {
        SimConfig::default()
            .with_accuracy(Accuracy::new(0.03, 0.05).unwrap())
            .with_strategy(StrategyKind::Asap)
    }

    #[test]
    fn sequential_matches_analytic_exponential() {
        let (net, prop) = exp_net(1.0);
        let r = analyze(&net, &prop, &loose()).unwrap();
        let exact = 1.0 - (-1.0f64).exp(); // ≈ 0.632
        assert!(
            (r.probability() - exact).abs() < 0.03 + 0.01,
            "estimate {} vs exact {exact}",
            r.probability()
        );
        assert_eq!(r.stats.total(), r.estimate.samples);
    }

    #[test]
    fn profiled_analysis_is_worker_count_invariant() {
        let (net, prop) = guarded_net();
        let base = loose().with_seed(7);
        let (r1, p1) = analyze_profiled(&net, &prop, &base.with_workers(1), None).unwrap();
        let (r4, p4) = analyze_profiled(&net, &prop, &base.with_workers(4), None).unwrap();
        assert_eq!(r1.estimate, r4.estimate);
        assert_eq!(p1.op_counts(), p4.op_counts());
        assert_eq!(p1.digram_counts(), p4.digram_counts());
        assert!(p1.total_ops() > 0);
        assert!(p1.delay_solve_count() > 0);
        // The estimate, stats and observations also match the unprofiled
        // runner on the same config (same path set, same consumption
        // order).
        let observe = |profiled: bool| {
            let obs = SimObserver::new(4).with_witness_capture(2);
            let cfg = base.with_workers(4);
            let r = if profiled {
                analyze_profiled(&net, &prop, &cfg, Some(&obs)).unwrap().0
            } else {
                analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap()
            };
            let satisfied = obs.snapshot().counters["paths.satisfied"];
            (r.estimate, r.stats, obs.witness_selection(), obs.convergence(), satisfied)
        };
        let plain = observe(false);
        assert_eq!(observe(true), plain);
        assert_eq!(r1.estimate, plain.0);
    }

    /// The worker-count test's model: a Markovian race plus a
    /// clock-guarded process, so profiles see solver bytecode.
    fn guarded_net() -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let c = b.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 1.0, [], failed);
        b.add_automaton(a);
        let mut g = AutomatonBuilder::new("g");
        let idle = g.location("idle");
        let done = g.location("done");
        g.guarded(idle, ActionId::TAU, Expr::var(c).ge(Expr::real(0.2)), [], done);
        b.add_automaton(g);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        (net, TimedReach::new(goal, 1.0))
    }

    #[test]
    fn profiled_path_has_exact_golden_counts() {
        // Pins the profiler to exact per-opcode and digram counts for one
        // seeded path: any change to the compiled kernel's instruction
        // stream — reordering, fusion, extra evals — shows up here as a
        // count diff, not as a silent profile drift.
        use crate::engine::{PathGenerator, PathHooks, SimScratch};
        use slim_stats::rng::path_rng;

        // A compound clock guard so the solver executes a multi-op
        // program (comparisons joined by an intersection) and the digram
        // table is non-trivial.
        let mut b = NetworkBuilder::new();
        let c = b.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 1.0, [], failed);
        b.add_automaton(a);
        let mut g = AutomatonBuilder::new("g");
        let idle = g.location("idle");
        let done = g.location("done");
        let guard = Expr::var(c).ge(Expr::real(0.2)).and(Expr::var(c).le(Expr::real(0.8)));
        g.guarded(idle, ActionId::TAU, guard, [], done);
        b.add_automaton(g);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        let prop = TimedReach::new(goal, 1.0);

        let gen = PathGenerator::new(&net, &prop, 10_000);
        let run_one = || {
            let mut strategy = StrategyKind::Asap.instantiate();
            let mut scratch = SimScratch::new();
            let mut prof = KernelProfile::new(profile_shape(&net));
            for path in 0..4 {
                let mut rng = path_rng(7, path);
                let mut hooks = PathHooks::profiled(&mut prof);
                gen.generate_hooked(&mut scratch, strategy.as_mut(), &mut rng, &mut hooks).unwrap();
            }
            prof
        };
        let prof = run_one();
        let ops: Vec<(&str, u64)> = prof
            .op_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (PROFILE_OP_NAMES[i], c))
            .collect();
        assert_eq!(
            ops,
            vec![("solve.cmp_var_const", 4), ("solve.cmp_var_const_and", 4)],
            "opcode counts drifted; update the golden vector deliberately"
        );
        let n_ops = prof.shape().n_ops;
        let digrams: Vec<(String, u64)> = prof
            .digram_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(cell, &c)| {
                (
                    format!(
                        "{} -> {}",
                        PROFILE_OP_NAMES[cell / n_ops],
                        PROFILE_OP_NAMES[cell % n_ops]
                    ),
                    c,
                )
            })
            .collect();
        // The two-atom conjunction fuses to `cmp; cmp_and`, leaving one
        // digram per guard evaluation.
        assert_eq!(
            digrams,
            vec![("solve.cmp_var_const -> solve.cmp_var_const_and".to_string(), 4)]
        );
        // And the counts are a pure function of the seed: a second run
        // reproduces them exactly.
        let again = run_one();
        assert_eq!(prof.op_counts(), again.op_counts());
        assert_eq!(prof.digram_counts(), again.digram_counts());
    }

    #[test]
    fn profiled_analysis_rejects_sequential_generators() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss);
        let err = analyze_profiled(&net, &prop, &cfg, None).unwrap_err();
        assert!(matches!(err, SimError::InvalidInput { .. }));
    }

    #[test]
    fn parallel_agrees_with_analytic() {
        let (net, prop) = exp_net(2.0);
        let cfg = loose().with_workers(4);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        assert!(
            (r.probability() - exact).abs() < 0.03 + 0.01,
            "estimate {} vs exact {exact}",
            r.probability()
        );
        // Exactly the fixed target's samples are consumed.
        assert_eq!(r.estimate.samples, cfg.accuracy.chernoff_samples());
    }

    #[test]
    fn deadlock_policy_error_aborts() {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("sink");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 1.0);
        // A constant-false goal is decided statically; disable pre-verdicts
        // to exercise the dynamic deadlock machinery.
        let cfg =
            loose().with_deadlock_policy(DeadlockPolicy::Error).with_static_pre_verdicts(false);
        assert!(matches!(analyze(&net, &prop, &cfg), Err(SimError::DeadlockDetected { .. })));
        // Falsify counts them as false samples instead.
        let cfg =
            loose().with_deadlock_policy(DeadlockPolicy::Falsify).with_static_pre_verdicts(false);
        let r = analyze(&net, &prop, &cfg).unwrap();
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.stats.deadlocks, r.stats.total());
        // With pre-verdicts on (the default), the same property
        // short-circuits to an exact zero before any path is drawn — even
        // under the Error policy, which a zero-sample run cannot trip.
        let r = analyze(&net, &prop, &loose().with_deadlock_policy(DeadlockPolicy::Error)).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unreachable);
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.estimate.samples, 0);
    }

    #[test]
    fn pre_verdicts_short_circuit_before_sampling() {
        let (net, prop) = exp_net(1.0);
        // Unreachable goal: conjunction with constant false.
        let dead = TimedReach::new(prop.goal.clone().and(Goal::expr(Expr::FALSE)), 1.0);
        let r = analyze(&net, &dead, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unreachable);
        assert_eq!(r.estimate.samples, 0);
        assert_eq!(r.estimate.epsilon, 0.0);
        assert_eq!(r.estimate.confidence, 1.0);
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.stats.total(), 0);
        // Initially-satisfied goal: the `ok` location.
        let init = TimedReach::new(Goal::in_location(&net, "err", "ok").unwrap(), 1.0);
        let r = analyze(&net, &init, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::InitiallySatisfied);
        assert_eq!(r.estimate.samples, 0);
        assert_eq!(r.probability(), 1.0);
        // The sampled path reports Unknown.
        let r = analyze(&net, &prop, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unknown);
        assert!(r.estimate.samples > 0);
        // Observed short-circuits record a non-empty phase list.
        let obs = SimObserver::new(1);
        analyze_observed(&net, &dead, &loose(), Some(&obs)).unwrap();
        let phases = obs.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "static");
    }

    #[test]
    fn seeded_reproducibility_across_worker_counts() {
        // CH bound: the sample *set* is identical for 1 and 3 workers, so
        // the estimate (a count) matches exactly.
        let (net, prop) = exp_net(1.0);
        let acc = Accuracy::new(0.05, 0.1).unwrap();
        let c1 = loose().with_accuracy(acc).with_workers(1).with_seed(7);
        let c3 = loose().with_accuracy(acc).with_workers(3).with_seed(7);
        let r1 = analyze(&net, &prop, &c1).unwrap();
        let r3 = analyze(&net, &prop, &c3).unwrap();
        assert_eq!(r1.estimate.successes, r3.estimate.successes);
        assert_eq!(r1.estimate.samples, r3.estimate.samples);
    }

    #[test]
    fn sequential_generator_stops_early_on_rare_events() {
        let (net, prop) = exp_net(0.01); // p ≈ 0.00995
        let cfg = loose().with_generator(GeneratorKind::ChowRobbins);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let ch = cfg.accuracy.chernoff_samples();
        assert!(r.estimate.samples < ch, "sequential rule used {} >= CH {ch}", r.estimate.samples);
        assert!(r.probability() < 0.05);
    }

    #[test]
    fn parallel_sequential_generator_completes() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss).with_workers(3);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        assert!((r.probability() - exact).abs() < 0.06, "estimate {}", r.probability());
    }

    /// Sequential stopping rules count only the samples the generator
    /// consumed: path statistics match the estimate's sample count and
    /// repeat exactly from run to run and across worker counts, although
    /// which in-flight paths arrive after completion depends on timing.
    #[test]
    fn sequential_path_stats_count_consumed_samples_only() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss).with_seed(42);
        let base = analyze(&net, &prop, &cfg.with_workers(1)).unwrap();
        assert_eq!(base.stats.total(), base.estimate.samples);
        for workers in [1, 2, 3] {
            for _ in 0..3 {
                let obs = SimObserver::new(workers);
                let r =
                    analyze_observed(&net, &prop, &cfg.with_workers(workers), Some(&obs)).unwrap();
                assert_eq!(r.estimate, base.estimate, "workers {workers}");
                assert_eq!(r.stats, base.stats, "workers {workers}");
                // Per-worker attribution counts the same samples, so a
                // run report validates (worker sums == paths.total).
                let ws = obs.worker_stats();
                assert_eq!(ws.iter().map(|w| w.paths).sum::<u64>(), r.stats.total());
                assert_eq!(ws.iter().map(|w| w.satisfied).sum::<u64>(), r.stats.satisfied);
            }
        }
    }

    #[test]
    fn memory_estimate_positive_and_flat() {
        let (net, prop) = exp_net(1.0);
        let r = analyze(&net, &prop, &loose()).unwrap();
        assert!(r.approx_memory_bytes > 0);
        assert!(r.approx_memory_bytes < 1_000_000, "simulator memory should be tiny");
    }

    #[test]
    fn observer_does_not_perturb_results() {
        let (net, prop) = exp_net(1.0);
        for workers in [1usize, 3] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(11);
            let plain = analyze(&net, &prop, &cfg).unwrap();
            let obs = SimObserver::new(workers);
            let observed = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            assert_eq!(plain.estimate, observed.estimate, "workers={workers}");
            assert_eq!(plain.stats, observed.stats, "workers={workers}");
        }
    }

    #[test]
    fn observer_accounts_every_path_and_phase() {
        let (net, prop) = exp_net(1.0);
        let cfg =
            loose().with_accuracy(Accuracy::new(0.05, 0.1).unwrap()).with_workers(2).with_seed(3);
        let obs = SimObserver::new(2);
        let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
        let snap = obs.snapshot();
        let verdict_total: u64 = [
            "paths.satisfied",
            "paths.time_bound_exceeded",
            "paths.hold_violated",
            "paths.deadlock",
            "paths.timelock",
            "paths.step_limit",
        ]
        .iter()
        .map(|k| snap.counters[*k])
        .sum();
        assert_eq!(verdict_total, r.stats.total());
        assert_eq!(snap.counters["paths.satisfied"], r.stats.satisfied);
        assert_eq!(snap.histograms["sim.steps_per_path"].count, r.stats.total());
        // Every produced path is attributed to exactly one worker.
        let ws = obs.worker_stats();
        assert_eq!(ws.iter().map(|w| w.paths).sum::<u64>(), r.stats.total());
        assert_eq!(ws.iter().map(|w| w.satisfied).sum::<u64>(), r.stats.satisfied);
        // A fixed-target run has no round-robin collector to describe.
        assert!(!snap.counters.keys().any(|k| k.starts_with("collector.")), "{snap:?}");
        let phases = obs.phases();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["simulate", "estimate"]);
    }

    #[test]
    fn progress_callback_reaches_target() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_accuracy(Accuracy::new(0.1, 0.1).unwrap()).with_workers(2);
        let last = Arc::new(AtomicU64::new(0));
        let live = Arc::new(AtomicU64::new(0));
        let (last2, live2) = (Arc::clone(&last), Arc::clone(&live));
        let obs = SimObserver::new(2).with_progress(Box::new(move |done, target, estimate| {
            assert!(target.is_some(), "CH bound has a known target");
            if done > 0 {
                let (mean, half_width) = estimate.expect("estimate available once sampled");
                assert!((0.0..=1.0).contains(&mean));
                assert!(half_width > 0.0);
            }
            if done < target.unwrap() {
                live2.fetch_add(1, Ordering::Relaxed);
            }
            last2.store(done, Ordering::Relaxed);
        }));
        let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
        assert_eq!(last.load(Ordering::Relaxed), r.estimate.samples);
        // Worker 0 reports the workers' counters while they still run.
        assert!(live.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn witness_selection_identical_across_worker_counts() {
        let (net, prop) = exp_net(1.0);
        let mut selections = Vec::new();
        for workers in [1usize, 4] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(7);
            let obs = SimObserver::new(workers).with_witness_capture(3);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            selections.push(obs.witness_selection().unwrap());
        }
        assert_eq!(selections[0], selections[1], "witness indices depend on worker count");
        assert!(!selections[0].goal().is_empty(), "λ=1 run should hit the goal");
    }

    #[test]
    fn witness_selection_deterministic_with_sequential_generator() {
        // Sequential stopping rules accept a worker-count-independent
        // prefix of the consumption order, so witnesses still agree.
        let (net, prop) = exp_net(1.0);
        let mut selections = Vec::new();
        for workers in [1usize, 3] {
            let cfg =
                loose().with_generator(GeneratorKind::Gauss).with_workers(workers).with_seed(13);
            let obs = SimObserver::new(workers).with_witness_capture(2);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            selections.push(obs.witness_selection().unwrap());
        }
        assert_eq!(selections[0], selections[1]);
    }

    #[test]
    fn convergence_series_recorded_and_well_formed() {
        let (net, prop) = exp_net(1.0);
        for workers in [1usize, 2] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(5);
            let obs = SimObserver::new(workers);
            let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            let series = obs.convergence();
            assert!(series.len() >= 2, "workers={workers}: series too short");
            assert!(series.windows(2).all(|w| w[0].samples < w[1].samples));
            assert!(series.windows(2).all(|w| w[0].half_width >= w[1].half_width));
            let last = series.last().unwrap();
            assert_eq!(last.samples, r.estimate.samples);
            assert!((last.mean - r.estimate.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn convergence_checkpoints_independent_of_worker_count() {
        let (net, prop) = exp_net(1.0);
        let mut all = Vec::new();
        for workers in [1usize, 4] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(7);
            let obs = SimObserver::new(workers);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            all.push(obs.convergence());
        }
        assert_eq!(all[0], all[1], "convergence series depends on worker count");
    }

    // --- PathSource mocks: deterministic runner-protocol tests ---------

    fn sat(steps: u64) -> PathOutcome {
        PathOutcome { verdict: Verdict::Satisfied, steps, end_time: 0.5 }
    }

    /// Mock whose behavior is a pure function of the path index.
    struct FnSource<F: Fn(u64) -> Result<PathOutcome, SimError> + Sync>(F);

    impl<F: Fn(u64) -> Result<PathOutcome, SimError> + Sync> PathSource for FnSource<F> {
        fn sample<P: ProfileHooks>(
            &self,
            index: u64,
            _scratch: &mut SimScratch,
            _strategy: &mut dyn Strategy,
            _obs: Option<&SimObserver>,
            _prof: P,
        ) -> Result<PathOutcome, SimError> {
            self.0(index)
        }

        fn state_bytes(&self) -> usize {
            64
        }
    }

    #[test]
    fn worker_panic_with_sequential_generator_does_not_hang() {
        // The livelock case the structured self-report prevents: a
        // sequential generator can only complete through full rounds, and
        // a silently dead worker would stall rounds forever.
        let source = FnSource(|index| {
            if index % 2 == 1 {
                panic!("boom");
            }
            Ok(sat(1))
        });
        let cfg = SimConfig::default()
            .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
            .with_generator(GeneratorKind::Gauss)
            .with_workers(2);
        assert!(matches!(analyze_source(&source, &cfg, None), Err(SimError::WorkerFailed { .. })));
    }

    #[test]
    fn worker_panic_maps_to_worker_failed() {
        // Paths 2 and 25 panic. The runner must surface a structured error
        // with the lowest panicking path's message — not hang or unwind.
        // Path 2 lies in block 0, which worker 0, the calling thread,
        // simulates; path 25 lies in block 1, another worker's block
        // whenever there are several.
        let caller = std::thread::current().id();
        let source = FnSource(|index| {
            if index == 2 {
                assert_eq!(std::thread::current().id(), caller);
            }
            if index == 2 || index == 25 {
                panic!("injected failure on path {index}");
            }
            Ok(sat(1))
        });
        for workers in 1..=4 {
            match analyze_source(&source, &fixed_config(workers), None) {
                Err(SimError::WorkerFailed { detail }) => {
                    assert!(detail.contains("injected failure on path 2"), "detail: {detail}");
                }
                other => panic!("workers={workers}: expected WorkerFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_deadlock_policy_error_aborts() {
        // Locks at paths 13 (block 0) and 20 (block 1); the lower one is
        // slow, so under first-to-arrive semantics path 20's lock would be
        // reported.
        let lock_at = |index: u64| PathOutcome {
            verdict: Verdict::Deadlock,
            steps: 1,
            end_time: index as f64,
        };
        let source = FnSource(|index| match index {
            13 => {
                std::thread::sleep(Duration::from_millis(50));
                Ok(lock_at(13))
            }
            20 => Ok(lock_at(20)),
            _ => Ok(sat(1)),
        });
        for workers in 1..=4 {
            let cfg = fixed_config(workers).with_deadlock_policy(DeadlockPolicy::Error);
            match analyze_source(&source, &cfg, None) {
                Err(SimError::DeadlockDetected { time, .. }) => {
                    assert_eq!(time, 13.0, "workers={workers}");
                }
                other => panic!("workers={workers}: expected DeadlockDetected, got {other:?}"),
            }
        }
    }

    /// Gauss at (ε, δ) = (0.1, 0.1) completes after exactly 50 uniform
    /// samples (the MIN_SAMPLES floor dominates), i.e. 25 per worker with
    /// 2 workers. Calls past each worker's 25th sleep long enough that
    /// their outcome arrives well after the estimate has completed.
    fn late_outcome_config() -> SimConfig {
        SimConfig::default()
            .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
            .with_generator(GeneratorKind::Gauss)
            .with_workers(2)
    }

    fn late_source(
        late: impl Fn(u64) -> Result<PathOutcome, SimError> + Sync,
    ) -> FnSource<impl Fn(u64) -> Result<PathOutcome, SimError> + Sync> {
        FnSource(move |index| {
            if index / 2 < 25 {
                Ok(sat(1))
            } else {
                // In flight when the generator completes; deliver late.
                std::thread::sleep(Duration::from_millis(400));
                late(index)
            }
        })
    }

    #[test]
    fn late_worker_error_after_completion_is_ignored() {
        let source = late_source(|index| {
            Err(SimError::WorkerFailed { detail: format!("late failure on path {index}") })
        });
        let r = analyze_source(&source, &late_outcome_config(), None)
            .expect("completed estimate must survive late worker errors");
        assert_eq!(r.estimate.samples, 50);
        assert_eq!(r.estimate.mean, 1.0);
    }

    #[test]
    fn late_lock_verdict_after_completion_does_not_abort() {
        let source = late_source(|_| {
            Ok(PathOutcome { verdict: Verdict::Deadlock, steps: 3, end_time: 0.75 })
        });
        let cfg = late_outcome_config().with_deadlock_policy(DeadlockPolicy::Error);
        let r = analyze_source(&source, &cfg, None)
            .expect("completed estimate must survive late lock verdicts");
        assert_eq!(r.estimate.samples, 50);
        assert_eq!(r.estimate.mean, 1.0);
        // The late deadlocks are still *counted* (they happened), they
        // just cannot fail the already-final estimate.
        assert!(r.stats.deadlocks <= 2);
    }

    // --- Fixed-target runner: shared-nothing folds, index-order merge ---

    /// Chernoff at (0.1, 0.1): 150 paths, in ten blocks of 16.
    fn fixed_config(workers: usize) -> SimConfig {
        SimConfig::default().with_accuracy(Accuracy::new(0.1, 0.1).unwrap()).with_workers(workers)
    }

    #[test]
    fn fixed_target_blocks_hold_sixteen_paths() {
        // Target 40 on 2 workers: blocks 0..16 and 32..40 go to worker 0,
        // block 16..32 to worker 1.
        let source = FnSource(|_| Ok(sat(1)));
        let cfg = fixed_config(2);
        let generator = cfg.generator.instantiate(cfg.accuracy);
        let obs = SimObserver::new(2);
        let (r, _) =
            analyze_fixed_impl(&source, &cfg, generator, 40, Some(&obs), || NoopProfile).unwrap();
        assert_eq!(r.stats.total(), 40);
        let paths: Vec<u64> = obs.worker_stats().iter().map(|w| w.paths).collect();
        assert_eq!(paths, vec![24, 16]);
    }

    #[test]
    fn fixed_target_reports_lowest_index_error_at_any_worker_count() {
        // Errors at paths 21 (block 1) and 37 (block 2); the lower one is
        // slow, so under first-to-arrive semantics path 37's error would
        // win.
        let source = FnSource(|index| match index {
            21 => {
                std::thread::sleep(Duration::from_millis(50));
                Err(SimError::StepLimitExceeded { limit: 21 })
            }
            37 => Err(SimError::StepLimitExceeded { limit: 37 }),
            _ => Ok(sat(1)),
        });
        for workers in 1..=4 {
            let err = analyze_source(&source, &fixed_config(workers), None).unwrap_err();
            assert_eq!(err, SimError::StepLimitExceeded { limit: 21 }, "workers={workers}");
        }
    }

    #[test]
    fn fixed_target_runs_worker_zero_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        for workers in 1..=4 {
            let threads = Mutex::new(HashSet::new());
            let source = FnSource(|_| {
                threads.lock().unwrap().insert(std::thread::current().id());
                Ok(sat(1))
            });
            analyze_source(&source, &fixed_config(workers), None).unwrap();
            let threads = threads.into_inner().unwrap();
            // k workers on k threads: the caller plus k − 1 spawned ones.
            assert_eq!(threads.len(), workers, "workers={workers}");
            assert!(threads.contains(&caller), "workers={workers}");
        }
    }

    #[test]
    fn fixed_target_observations_identical_across_worker_counts() {
        // A verdict mix with goals and locks scattered over the blocks.
        let source = FnSource(|index| {
            let verdict = match index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 {
                0..=2 => Verdict::Satisfied,
                3 => Verdict::Deadlock,
                4 => Verdict::Timelock,
                _ => Verdict::TimeBoundExceeded,
            };
            Ok(PathOutcome { verdict, steps: index % 7, end_time: (index % 5) as f64 * 0.1 })
        });
        let observe = |workers: usize| {
            let obs = SimObserver::new(workers).with_witness_capture(3);
            let r = analyze_source(&source, &fixed_config(workers), Some(&obs)).unwrap();
            (r.estimate, r.stats, obs.witness_selection().unwrap(), obs.convergence())
        };
        let reference = observe(1);
        assert_eq!(reference.0.samples, 150);
        assert_eq!(reference.2.goal().len(), 3);
        assert_eq!(reference.2.lock().len(), 3);
        for workers in 2..=4 {
            assert_eq!(observe(workers), reference, "workers={workers}");
        }
        // The selection is the first three of each category by index.
        let mut expected = WitnessSelector::new(3);
        for index in 0..150 {
            expected.offer(index, source.0(index).unwrap().verdict);
        }
        assert_eq!(reference.2, expected);
    }

    #[test]
    fn round_robin_runs_report_collector_metrics() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss).with_workers(2).with_seed(3);
        let obs = SimObserver::new(2);
        let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
        let snap = obs.snapshot();
        assert!(snap.counters["collector.rounds_drained"] > 0);
        assert!(snap.counters["collector.samples_consumed"] >= r.estimate.samples);
    }
}
