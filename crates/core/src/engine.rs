//! The discrete-event path generation engine (§III-A of the paper).
//!
//! A path alternates timed and discrete transitions. Guarded transitions
//! are scheduled by the configured [`Strategy`]; Markovian transitions race
//! against that schedule with exponentially sampled firing times; the
//! invariants bound how far time may pass. Paths end when
//!
//! * the goal holds (also *during* a delay — timed goals are checked
//!   against the exact goal window, not just at discrete instants),
//! * the property's time bound elapses,
//! * a deadlock or timelock is reached (§III-D), or
//! * the per-path step limit trips (Zeno guard).

use crate::error::SimError;
use crate::obs::{PathDetail, SimObserver};
use crate::property::{CompiledGoal, GoalPool, TimedReach};
use crate::strategy::{Decision, ScheduledCandidate, StepView, Strategy};
use crate::trace::PathTracer;
use crate::verdict::{PathOutcome, Verdict};
use slim_automata::automaton::{ActionId, ProcId, TransId};
use slim_automata::error::EvalError;
use slim_automata::interval::IntervalSet;
use slim_automata::network::GlobalTransition;
use slim_automata::prelude::{
    CompileOptions, NetState, Network, StepScratch, StepTables, Valuation,
};
use slim_obs::profile::{NoopProfile, ProfileHooks};
use slim_stats::rng::{exponential_from_uniform, path_rng, StdRng};

/// Generates sample paths for one (network, property) pair.
///
/// Construction compiles the network into [`StepTables`] and the property
/// into [`CompiledGoal`]s once; every generated path then runs on the
/// allocation-free stepping kernel. Pass a reusable [`SimScratch`] to the
/// `*_with` variants to make steady-state path generation heap-allocation
/// free; the plain variants allocate a fresh scratch per call.
#[derive(Debug, Clone)]
pub struct PathGenerator<'a> {
    net: &'a Network,
    property: &'a TimedReach,
    max_steps: u64,
    tables: StepTables,
    goal: CompiledGoal,
    hold: Option<CompiledGoal>,
    initial: Result<NetState, EvalError>,
}

/// Reusable per-worker workspace for the engine loop: the network-level
/// [`StepScratch`] plus every engine-owned buffer (goal/invariant windows,
/// scheduled candidates, temporaries). Allocated once, recycled across
/// paths — after warm-up, generating a path performs no heap allocation.
#[derive(Debug)]
pub struct SimScratch {
    step: StepScratch,
    pool: GoalPool,
    state: NetState,
    goal_win: IntervalSet,
    viol_win: IntervalSet,
    hold_win: IntervalSet,
    inv_window: IntervalSet,
    window: IntervalSet,
    schedulable: IntervalSet,
    capped: IntervalSet,
    tmp: IntervalSet,
    tmp2: IntervalSet,
    sched: Vec<ScheduledCandidate>,
    n_sched: usize,
}

impl SimScratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> SimScratch {
        SimScratch {
            step: StepScratch::new(),
            pool: GoalPool::new(),
            state: NetState::new(Vec::new(), Valuation::new(Vec::new())),
            goal_win: IntervalSet::empty(),
            viol_win: IntervalSet::empty(),
            hold_win: IntervalSet::empty(),
            inv_window: IntervalSet::empty(),
            window: IntervalSet::empty(),
            schedulable: IntervalSet::empty(),
            capped: IntervalSet::empty(),
            tmp: IntervalSet::empty(),
            tmp2: IntervalSet::empty(),
            sched: Vec::new(),
            n_sched: 0,
        }
    }
}

impl Default for SimScratch {
    fn default() -> SimScratch {
        SimScratch::new()
    }
}

/// Acquires the next scheduled-candidate slot, reusing retired buffers
/// (their `parts` and `window` capacity survives across steps).
fn next_sched<'a>(
    pool: &'a mut Vec<ScheduledCandidate>,
    used: &mut usize,
) -> &'a mut ScheduledCandidate {
    if *used == pool.len() {
        pool.push(ScheduledCandidate {
            transition: GlobalTransition { action: ActionId::TAU, parts: Vec::new() },
            window: IntervalSet::empty(),
        });
    }
    let slot = &mut pool[*used];
    *used += 1;
    slot
}

/// Which transition a resolved step fires.
enum FireSrc {
    /// Index into the scheduled-candidate pool.
    Guarded(usize),
    /// The winning Markovian transition.
    Markov((ProcId, TransId)),
}

/// How a step resolved after racing the strategy's schedule against the
/// Markovian transitions.
enum Resolved {
    Fire {
        delay: f64,
        src: FireSrc,
        /// Winner's own rate and the total race exit rate (Markovian only).
        rates: Option<(f64, f64)>,
    },
    Wait {
        delay: f64,
    },
    Lock {
        verdict: Verdict,
        horizon: f64,
    },
}

impl<'a> PathGenerator<'a> {
    /// Creates a generator, compiling the network and property onto the
    /// allocation-free stepping kernel.
    pub fn new(net: &'a Network, property: &'a TimedReach, max_steps: u64) -> Self {
        Self::with_compile_options(net, property, max_steps, &CompileOptions::default())
    }

    /// [`PathGenerator::new`] under explicit [`CompileOptions`]: the
    /// fusion-equivalence harnesses pin [`CompileOptions::reference`] to
    /// get the unfused, unspecialized kernel for differential comparison.
    pub fn with_compile_options(
        net: &'a Network,
        property: &'a TimedReach,
        max_steps: u64,
        opts: &CompileOptions,
    ) -> Self {
        let tables = net.compile_with(opts);
        let goal = property.goal.compile_with(net, opts);
        let hold = property.hold.as_ref().map(|h| h.compile_with(net, opts));
        let initial = net.initial_state();
        PathGenerator { net, property, max_steps, tables, goal, hold, initial }
    }

    /// The compiled step tables driving this generator.
    pub fn tables(&self) -> &StepTables {
        &self.tables
    }

    /// The network under simulation.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The property being checked.
    pub fn property(&self) -> &TimedReach {
        self.property
    }

    /// Generates one path.
    ///
    /// # Errors
    /// Evaluation errors (invariant already violated, non-linear guards)
    /// and input-strategy errors.
    pub fn generate(
        &self,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
    ) -> Result<PathOutcome, SimError> {
        self.generate_with(&mut SimScratch::new(), strategy, rng)
    }

    /// [`Self::generate`] on a caller-supplied scratch: reusing the same
    /// scratch across paths keeps the hot loop allocation-free.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_with(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
    ) -> Result<PathOutcome, SimError> {
        self.run(scratch, strategy, rng, None, 1.0, None, &mut NoopProfile)
            .map(|(outcome, _)| outcome)
    }

    /// Generates one path, flushing per-path metrics (steps, firings,
    /// strategy decisions, wall time) to `obs` when present. With
    /// `obs == None` this is exactly [`Self::generate`]: the observer is
    /// consulted only after the path ends and never touches the RNG, so
    /// instrumentation cannot perturb seeded reproducibility.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_observed(
        &self,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        obs: Option<&SimObserver>,
    ) -> Result<PathOutcome, SimError> {
        self.generate_observed_with(&mut SimScratch::new(), strategy, rng, obs)
    }

    /// [`Self::generate_observed`] on a caller-supplied scratch.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_observed_with(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        obs: Option<&SimObserver>,
    ) -> Result<PathOutcome, SimError> {
        let Some(obs) = obs else {
            return self.generate_with(scratch, strategy, rng);
        };
        let start = std::time::Instant::now();
        let mut detail = PathDetail::default();
        let result =
            self.run(scratch, strategy, rng, None, 1.0, Some(&mut detail), &mut NoopProfile);
        if let Ok((outcome, _)) = &result {
            detail.nanos = start.elapsed().as_nanos() as u64;
            obs.record_path(outcome, &detail);
        }
        result.map(|(outcome, _)| outcome)
    }

    /// Generates one path, recording structured events on the tracer:
    /// strategy decisions, delays, firings (with Markovian race rates),
    /// valuation snapshots per [`crate::trace::TraceOptions`], and the
    /// final verdict.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_traced(
        &self,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        tracer: &mut PathTracer<'_>,
    ) -> Result<PathOutcome, SimError> {
        self.generate_traced_with(&mut SimScratch::new(), strategy, rng, tracer)
    }

    /// [`Self::generate_traced`] on a caller-supplied scratch.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_traced_with(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        tracer: &mut PathTracer<'_>,
    ) -> Result<PathOutcome, SimError> {
        let outcome =
            self.run(scratch, strategy, rng, Some(&mut *tracer), 1.0, None, &mut NoopProfile)?.0;
        tracer.verdict(&outcome);
        Ok(outcome)
    }

    /// Generates one path under an **importance-sampling bias**: every
    /// Markovian rate is multiplied by `bias` during simulation, and the
    /// returned weight is the likelihood ratio of the generated
    /// trajectory (true measure over biased measure). With `bias > 1`
    /// rare fault-driven events become frequent; the weighted indicator
    /// `w·1[success]` remains an unbiased estimate of the true
    /// probability (see `rare_event`).
    ///
    /// # Errors
    /// See [`Self::generate`].
    ///
    /// # Panics
    /// Panics unless `bias > 0`.
    pub fn generate_biased(
        &self,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        bias: f64,
    ) -> Result<(PathOutcome, f64), SimError> {
        self.generate_biased_with(&mut SimScratch::new(), strategy, rng, bias)
    }

    /// [`Self::generate_biased`] on a caller-supplied scratch.
    ///
    /// # Errors
    /// See [`Self::generate`].
    ///
    /// # Panics
    /// Panics unless `bias > 0`.
    pub fn generate_biased_with(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        bias: f64,
    ) -> Result<(PathOutcome, f64), SimError> {
        assert!(bias > 0.0 && bias.is_finite(), "bias must be positive, got {bias}");
        self.run(scratch, strategy, rng, None, bias, None, &mut NoopProfile)
    }

    /// [`Self::generate_with`] under a profiling sink: the generated path
    /// is bit-identical to the unprofiled one (hooks never touch the RNG
    /// or the step logic), with every kernel counter — opcodes, digrams,
    /// guard outcomes, firings, location occupancy, delay solves —
    /// recorded into `prof`.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_profiled_with<P: ProfileHooks>(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        prof: &mut P,
    ) -> Result<PathOutcome, SimError> {
        self.run(scratch, strategy, rng, None, 1.0, None, prof).map(|(outcome, _)| outcome)
    }

    /// The common engine loop; returns the outcome and the likelihood
    /// ratio `exp(log_weight)` of the path under rate bias `bias`.
    ///
    /// Runs entirely on the compiled kernel: per-step windows, candidate
    /// sets and state updates live in `s` and are recycled across steps
    /// and paths, so steady-state execution performs no heap allocation.
    #[allow(clippy::too_many_arguments)]
    fn run<P: ProfileHooks>(
        &self,
        s: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        mut tracer: Option<&mut PathTracer<'_>>,
        bias: f64,
        mut detail: Option<&mut PathDetail>,
        prof: &mut P,
    ) -> Result<(PathOutcome, f64), SimError> {
        // Lend the scratch-owned state buffer to the shared step function,
        // which borrows the state and the scratch separately so the
        // batched kernel can drive it lane by lane. `NetState::new` on
        // empty vectors does not allocate, and the buffer (with its grown
        // capacity) is handed back before returning.
        let mut state =
            std::mem::replace(&mut s.state, NetState::new(Vec::new(), Valuation::new(Vec::new())));
        let mut log_weight = 0.0f64;
        let mut steps: u64 = 0;
        let result = match &self.initial {
            Ok(init) => {
                self.load_initial(s, &mut state, init);
                let margin = step_margin(self.property);
                loop {
                    match self.step_path(
                        s,
                        &mut state,
                        strategy,
                        rng,
                        &mut tracer,
                        bias,
                        &mut detail,
                        &mut steps,
                        &mut log_weight,
                        margin,
                        prof,
                    ) {
                        Ok(None) => {}
                        Ok(Some(outcome)) => break Ok((outcome, log_weight.exp())),
                        Err(e) => break Err(e),
                    }
                }
            }
            Err(e) => Err(SimError::Eval(e.clone())),
        };
        s.state = state;
        result
    }

    /// Loads the initial state into `state` and begins the path on the
    /// scratch — the one point every path starts from. It runs with
    /// incremental enabling wherever that can pay (see
    /// [`StepTables::incremental_pays`] and [`StepScratch::begin_path`]).
    fn load_initial(&self, s: &mut SimScratch, state: &mut NetState, init: &NetState) {
        state.copy_from(init);
        if self.tables.incremental_pays() {
            s.step.begin_path(&self.tables);
        } else {
            s.step.begin_full_path();
        }
    }

    /// Advances one path by **one engine step** on the compiled kernel:
    /// refreshes the flow rates once, computes the goal/hold windows and
    /// the candidate sets against that shared rate buffer, races the
    /// strategy's schedule against the Markovian transitions, and applies
    /// the resolved delay/firing to `state`.
    ///
    /// Returns `Ok(None)` while the path continues and `Ok(Some(..))`
    /// when it ends. Both the scalar `generate*` family and the batched
    /// [`Self::generate_batch_with`] kernel drive this exact function,
    /// which is what makes batched generation bit-identical to scalar
    /// generation lane by lane.
    #[allow(clippy::too_many_arguments)]
    fn step_path<P: ProfileHooks>(
        &self,
        s: &mut SimScratch,
        state: &mut NetState,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        tracer: &mut Option<&mut PathTracer<'_>>,
        bias: f64,
        detail: &mut Option<&mut PathDetail>,
        steps: &mut u64,
        log_weight: &mut f64,
        margin: f64,
        prof: &mut P,
    ) -> Result<Option<PathOutcome>, SimError> {
        if *steps >= self.max_steps {
            return Ok(Some(PathOutcome {
                verdict: Verdict::StepLimit,
                steps: *steps,
                end_time: state.time,
            }));
        }
        *steps += 1;
        let steps_now = *steps;

        // Location occupancy: one tick per (process, current location)
        // per engine step. The `ENABLED` guard keeps the unprofiled
        // instantiation free of the per-process loop entirely.
        if P::ENABLED {
            for (p, loc) in state.locs.iter().enumerate() {
                prof.loc_step(p, loc.0);
            }
        }

        // One rate refresh serves the whole step: rates depend only on
        // the locations, which no delay changes (see
        // `Network::rates_refresh`), so every `*_rated` call below
        // reuses this buffer bit-identically to a per-call refresh.
        self.net.rates_refresh(&self.tables, &mut s.step, state);

        let remaining = self.property.remaining(state);
        self.goal
            .window_rated_prof(self.net, &mut s.step, &mut s.pool, state, &mut s.goal_win, prof)
            .map_err(SimError::Eval)?;
        // For bounded until: the set of delays at which `hold` is
        // violated (empty for plain reachability).
        match &self.hold {
            None => s.viol_win.clear(),
            Some(h) => {
                h.window_rated_prof(
                    self.net,
                    &mut s.step,
                    &mut s.pool,
                    state,
                    &mut s.hold_win,
                    prof,
                )
                .map_err(SimError::Eval)?;
                s.hold_win.complement_into(&mut s.viol_win);
            }
        }
        if s.goal_win.contains(0.0) {
            return Ok(Some(PathOutcome {
                verdict: Verdict::Satisfied,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }
        if s.viol_win.contains(0.0) {
            return Ok(Some(PathOutcome {
                verdict: Verdict::HoldViolated,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }
        if remaining <= 0.0 {
            return Ok(Some(PathOutcome {
                verdict: Verdict::TimeBoundExceeded,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }

        self.net
            .delay_window_rated_prof(&self.tables, &mut s.step, state, &mut s.inv_window, prof)
            .map_err(SimError::Eval)?;
        let cap = remaining + margin;

        self.net
            .guarded_candidates_rated_prof(&self.tables, &mut s.step, state, prof)
            .map_err(SimError::Eval)?;

        // Urgency (AADL-eager transitions): time may not pass beyond
        // the first instant an urgent candidate becomes enabled.
        let mut urgency_cutoff = f64::INFINITY;
        for c in s.step.candidates() {
            if c.urgent {
                c.window.intersect_into(&s.inv_window, &mut s.tmp);
                if let Some(inf) = s.tmp.inf() {
                    urgency_cutoff = urgency_cutoff.min(inf);
                }
            }
        }
        if urgency_cutoff.is_finite() {
            s.inv_window.truncate_into(urgency_cutoff, &mut s.window);
        } else {
            s.window.copy_from(&s.inv_window);
        }

        // Guarded candidates: windows ∩ effective delay window,
        // infinite tails capped at the horizon. Slots are recycled
        // from the pool; only `..n_sched` is live this step.
        s.n_sched = 0;
        for c in s.step.candidates() {
            c.window.intersect_into(&s.window, &mut s.tmp);
            cap_infinite_into(&s.tmp, cap, &mut s.tmp2);
            if !s.tmp2.is_empty() {
                let slot = next_sched(&mut s.sched, &mut s.n_sched);
                slot.transition.action = c.action;
                slot.transition.parts.clear();
                slot.transition.parts.extend_from_slice(&c.parts);
                slot.window.copy_from(&s.tmp2);
            }
        }
        self.net.markovian_candidates_into(&self.tables, &mut s.step, state);

        // Precomputed strategy views: the schedulable union (left fold
        // in candidate order, as Progressive computed it) and the
        // horizon-capped delay window (Local/MaxTime).
        s.schedulable.clear();
        for i in 0..s.n_sched {
            s.schedulable.union_into(&s.sched[i].window, &mut s.tmp);
            std::mem::swap(&mut s.schedulable, &mut s.tmp);
        }
        cap_infinite_into(&s.window, cap, &mut s.capped);

        let decision = strategy.decide(
            &StepView {
                net: self.net,
                state,
                window: &s.window,
                guarded: &s.sched[..s.n_sched],
                cap,
                schedulable: Some(&s.schedulable),
                capped: Some(&s.capped),
            },
            rng,
        )?;
        if let Some(t) = tracer.as_deref_mut() {
            t.decision(steps_now, state, &decision, &s.sched[..s.n_sched]);
        }
        if let Some(d) = detail.as_deref_mut() {
            match &decision {
                Decision::Fire { .. } => d.decisions_fire += 1,
                Decision::Wait { .. } => d.decisions_wait += 1,
                Decision::Stuck => d.decisions_stuck += 1,
                Decision::Abort => {}
            }
        }

        // Markovian race: total-rate exponential + categorical winner.
        // Under importance sampling all rates are scaled by `bias`
        // (the winner distribution is unchanged — scaling is uniform).
        let m_sample: Option<(f64, (ProcId, TransId), f64, f64)> = {
            let markovian = s.step.markovian();
            if markovian.is_empty() {
                None
            } else {
                let total = s.step.markovian_total();
                let t = exponential_from_uniform(rng.gen::<f64>(), total * bias);
                let mut pick = rng.gen::<f64>() * total;
                let (lp, lt, lr) = markovian[markovian.len() - 1];
                let mut winner = ((lp, lt), lr);
                for &(p, t_id, r) in markovian {
                    if pick < r {
                        winner = ((p, t_id), r);
                        break;
                    }
                    pick -= r;
                }
                Some((t, winner.0, total, winner.1))
            }
        };

        // Likelihood-ratio bookkeeping for importance sampling:
        // a Markovian firing at t contributes (1/bias)·e^{(bias−1)Λt};
        // observing *no* Markovian event up to a delay d (censoring)
        // contributes e^{(bias−1)Λd}.
        let lr_fire = |t: f64, total: f64| -bias.ln() + (bias - 1.0) * total * t;
        let lr_censor = |d: f64, total: f64| (bias - 1.0) * total * d;

        let resolved = match decision {
            Decision::Abort => return Err(SimError::InputAborted),
            Decision::Fire { delay, candidate } => match m_sample {
                Some((t, mt, total, rate)) if t < delay => {
                    *log_weight += lr_fire(t, total);
                    Resolved::Fire {
                        delay: t,
                        src: FireSrc::Markov(mt),
                        rates: Some((rate, total)),
                    }
                }
                m => {
                    if let Some((_, _, total, _)) = m {
                        *log_weight += lr_censor(delay, total);
                    }
                    Resolved::Fire { delay, src: FireSrc::Guarded(candidate), rates: None }
                }
            },
            Decision::Wait { delay } => match m_sample {
                Some((t, mt, total, rate)) if t < delay => {
                    *log_weight += lr_fire(t, total);
                    Resolved::Fire {
                        delay: t,
                        src: FireSrc::Markov(mt),
                        rates: Some((rate, total)),
                    }
                }
                m => {
                    if let Some((_, _, total, _)) = m {
                        *log_weight += lr_censor(delay, total);
                    }
                    Resolved::Wait { delay }
                }
            },
            Decision::Stuck => match m_sample {
                Some((t, mt, total, rate)) if s.window.contains(t) => {
                    *log_weight += lr_fire(t, total);
                    Resolved::Fire {
                        delay: t,
                        src: FireSrc::Markov(mt),
                        rates: Some((rate, total)),
                    }
                }
                Some((_, _, total, _)) => {
                    let horizon = s.window.sup().unwrap_or(0.0);
                    *log_weight += lr_censor(horizon, total);
                    Resolved::Lock { verdict: Verdict::Timelock, horizon }
                }
                None => {
                    let bounded = s.window.sup().is_none_or(f64::is_finite);
                    if bounded {
                        Resolved::Lock {
                            verdict: Verdict::Timelock,
                            horizon: s.window.sup().unwrap_or(0.0),
                        }
                    } else {
                        Resolved::Lock { verdict: Verdict::Deadlock, horizon: remaining }
                    }
                }
            },
        };

        match resolved {
            Resolved::Fire { delay, src, rates } => {
                match scan_delay(&s.goal_win, &s.viol_win, delay.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                if delay > remaining {
                    return Ok(Some(PathOutcome {
                        verdict: Verdict::TimeBoundExceeded,
                        steps: steps_now,
                        end_time: self.property.bound,
                    }));
                }
                if delay > 0.0 {
                    if let Some(t) = tracer.as_deref_mut() {
                        t.delay(steps_now, state, delay);
                    }
                    self.net
                        .advance_rated_prof(
                            &self.tables,
                            &mut s.step,
                            state,
                            delay,
                            &s.inv_window,
                            prof,
                        )
                        .map_err(SimError::Eval)?;
                }
                let is_markov = matches!(src, FireSrc::Markov(_));
                if let Some(t) = tracer.as_deref_mut() {
                    // Cold path: materialize the transition only when
                    // a tracer asks for it.
                    let gt = match &src {
                        FireSrc::Guarded(i) => s.sched[*i].transition.clone(),
                        FireSrc::Markov((p, t_id)) => {
                            GlobalTransition { action: ActionId::TAU, parts: vec![(*p, *t_id)] }
                        }
                    };
                    let (rate, rate_total) = match rates {
                        Some((r, total)) => (Some(r), Some(total)),
                        None => (None, None),
                    };
                    t.fire(steps_now, state, &gt, is_markov, rate, rate_total);
                }
                match src {
                    FireSrc::Guarded(i) => self
                        .net
                        .apply_mut_prof(
                            &self.tables,
                            &mut s.step,
                            state,
                            &s.sched[i].transition.parts,
                            prof,
                        )
                        .map_err(SimError::Eval)?,
                    FireSrc::Markov((p, t_id)) => {
                        let parts = [(p, t_id)];
                        self.net
                            .apply_mut_prof(&self.tables, &mut s.step, state, &parts, prof)
                            .map_err(SimError::Eval)?;
                    }
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.snapshot(steps_now, state);
                }
                if let Some(d) = detail.as_deref_mut() {
                    if is_markov {
                        d.fires_markovian += 1;
                    } else {
                        d.fires_guarded += 1;
                    }
                }
            }
            Resolved::Wait { delay } => {
                match scan_delay(&s.goal_win, &s.viol_win, delay.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                if delay > remaining {
                    return Ok(Some(PathOutcome {
                        verdict: Verdict::TimeBoundExceeded,
                        steps: steps_now,
                        end_time: self.property.bound,
                    }));
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.delay(steps_now, state, delay);
                }
                self.net
                    .advance_rated_prof(
                        &self.tables,
                        &mut s.step,
                        state,
                        delay,
                        &s.inv_window,
                        prof,
                    )
                    .map_err(SimError::Eval)?;
                if let Some(t) = tracer.as_deref_mut() {
                    t.snapshot(steps_now, state);
                }
                if let Some(d) = detail.as_deref_mut() {
                    d.waits += 1;
                }
            }
            Resolved::Lock { verdict, horizon } => {
                match scan_delay(&s.goal_win, &s.viol_win, horizon.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                return Ok(Some(PathOutcome { verdict, steps: steps_now, end_time: state.time }));
            }
        }
        Ok(None)
    }

    /// Generates `count` paths with indices `start`, `start + stride`,
    /// `start + 2·stride`, … on the **batched structure-of-arrays
    /// kernel**, clearing `out` and pushing one result per path in index
    /// order.
    ///
    /// Lane `j` consumes exactly the RNG stream `path_rng(seed, start +
    /// stride·j)` and is advanced by the same step function the scalar
    /// `generate*` family uses, so every lane's outcome is bit-identical
    /// to `generate_with` on that stream — independent of the lane count
    /// and of how the other lanes terminate. The lane-exactness contract
    /// assumes a memoryless `strategy` (all built-in
    /// [`crate::strategy::StrategyKind`]s are); traced paths must use the
    /// scalar [`Self::generate_traced_with`], since a trace follows a
    /// single path.
    ///
    /// A lane hitting a simulation error records `Err` in its slot
    /// without disturbing the other lanes. With `obs` present, per-path
    /// metrics are flushed for every successful lane; wall time is
    /// attributed as the batch's elapsed time divided evenly across its
    /// lanes.
    ///
    /// # Panics
    /// Panics when `stride == 0` while `count > 1` (the lanes would alias
    /// one RNG stream).
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_with(
        &self,
        scratch: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        obs: Option<&SimObserver>,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    ) {
        self.generate_batch_profiled_with(
            scratch,
            strategy,
            seed,
            start,
            stride,
            count,
            obs,
            &mut NoopProfile,
            out,
        );
    }

    /// [`Self::generate_batch_with`] with a kernel profiler attached: every
    /// lane records opcode, guard, firing and occupancy counts into `prof`,
    /// and the batch as a whole contributes one lane-utilization sample
    /// (see [`slim_obs::profile::ProfileHooks::batch`]). Lane outcomes stay
    /// bit-identical to the unprofiled batch on the same streams.
    ///
    /// # Panics
    /// Panics when `stride == 0` while `count > 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_profiled_with<P: ProfileHooks>(
        &self,
        scratch: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        obs: Option<&SimObserver>,
        prof: &mut P,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    ) {
        let t0 = obs.map(|_| std::time::Instant::now());
        self.run_batch(scratch, strategy, seed, start, stride, count, 1.0, obs.is_some(), prof);
        scratch.record_batch(count, obs, t0);
        out.clear();
        out.extend(
            scratch.results[..count]
                .iter_mut()
                .map(|slot| slot.take().expect("lane finished").map(|(o, _)| o)),
        );
    }

    /// [`Self::generate_batch_with`] under an importance-sampling `bias`
    /// (see [`Self::generate_biased`]): each result additionally carries
    /// the likelihood ratio of its trajectory.
    ///
    /// # Panics
    /// Panics unless `bias > 0`, and when `stride == 0` while
    /// `count > 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_biased_with(
        &self,
        scratch: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        bias: f64,
        out: &mut Vec<Result<(PathOutcome, f64), SimError>>,
    ) {
        assert!(bias > 0.0 && bias.is_finite(), "bias must be positive, got {bias}");
        self.run_batch(
            scratch,
            strategy,
            seed,
            start,
            stride,
            count,
            bias,
            false,
            &mut NoopProfile,
        );
        out.clear();
        out.extend(
            scratch.results[..count].iter_mut().map(|slot| slot.take().expect("lane finished")),
        );
    }

    /// The batched engine core: initializes `count` lanes, then runs each
    /// lane to completion in index order with the scalar step function.
    /// Results land in `scratch.results`.
    #[allow(clippy::too_many_arguments)]
    fn run_batch<P: ProfileHooks>(
        &self,
        b: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        bias: f64,
        observed: bool,
        prof: &mut P,
    ) {
        assert!(stride > 0 || count <= 1, "stride must be positive for multi-lane batches");
        b.ensure_lanes(count);
        let init = match &self.initial {
            Ok(init) => init,
            Err(e) => {
                for slot in &mut b.results[..count] {
                    *slot = Some(Err(SimError::Eval(e.clone())));
                }
                return;
            }
        };
        let margin = step_margin(self.property);
        // Each lane is swept to completion in index order. Lanes consume
        // disjoint RNG streams and never read each other's state, so the
        // sweep order is unobservable — and completion order keeps the
        // lane's state hot in cache and the interpreter's branch history
        // coherent, which measures noticeably faster than a round-robin
        // sweep on the zoo models. It also lets the shared scratch carry
        // one lane's incremental-enabling state at a time.
        for j in 0..count {
            self.load_initial(&mut b.sim, &mut b.states[j], init);
            b.rngs[j] = path_rng(seed, start + stride * j as u64);
            b.steps[j] = 0;
            b.log_weights[j] = 0.0;
            if observed {
                b.details[j] = PathDetail::default();
            }
            let mut no_tracer: Option<&mut PathTracer<'_>> = None;
            let result = loop {
                let mut detail = if observed { b.details.get_mut(j) } else { None };
                match self.step_path(
                    &mut b.sim,
                    &mut b.states[j],
                    strategy,
                    &mut b.rngs[j],
                    &mut no_tracer,
                    bias,
                    &mut detail,
                    &mut b.steps[j],
                    &mut b.log_weights[j],
                    margin,
                    prof,
                ) {
                    Ok(None) => {}
                    Ok(Some(outcome)) => break Ok((outcome, b.log_weights[j].exp())),
                    Err(e) => break Err(e),
                }
            };
            b.results[j] = Some(result);
        }
        if P::ENABLED && count > 0 {
            prof.batch(&b.steps[..count]);
        }
    }
}

/// Reusable workspace for [`PathGenerator::generate_batch_with`]: one
/// shared [`SimScratch`] (per-step windows, candidate pools and solver
/// buffers are recomputed from scratch each step, so every lane can reuse
/// them; its incremental-enabling state belongs to the lane being swept
/// and is reset when the next lane begins) plus structure-of-arrays
/// per-lane columns — states, RNG streams, step counters, likelihood
/// weights, outcome slots and observer counters. Allocated once and recycled across batches; after warm-up a
/// batch performs no heap allocation.
#[derive(Debug)]
pub struct BatchScratch {
    sim: SimScratch,
    states: Vec<NetState>,
    rngs: Vec<StdRng>,
    steps: Vec<u64>,
    log_weights: Vec<f64>,
    results: Vec<Option<Result<(PathOutcome, f64), SimError>>>,
    details: Vec<PathDetail>,
    lane_sort: Vec<u64>,
}

impl BatchScratch {
    /// Creates an empty workspace (lane columns grow on first use).
    pub fn new() -> BatchScratch {
        BatchScratch {
            sim: SimScratch::new(),
            states: Vec::new(),
            rngs: Vec::new(),
            steps: Vec::new(),
            log_weights: Vec::new(),
            results: Vec::new(),
            details: Vec::new(),
            lane_sort: Vec::new(),
        }
    }

    /// The underlying scalar scratch — the escape hatch for paths that
    /// must run on the scalar kernel (traced generation, witness replay).
    pub fn sim_mut(&mut self) -> &mut SimScratch {
        &mut self.sim
    }

    /// Grows every lane column to at least `count` entries. Columns only
    /// grow (a short tail batch never sheds the capacity the full-width
    /// batches warmed up) and stay in lockstep.
    fn ensure_lanes(&mut self, count: usize) {
        if self.states.len() < count {
            self.states
                .resize_with(count, || NetState::new(Vec::new(), Valuation::new(Vec::new())));
            self.rngs.resize_with(count, || StdRng::seed_from_u64(0));
            self.steps.resize(count, 0);
            self.log_weights.resize(count, 0.0);
            self.results.resize_with(count, || None);
            self.details.resize_with(count, PathDetail::default);
        }
    }

    /// Flushes per-path metrics of the batch's successful lanes to `obs`,
    /// attributing the batch's wall time evenly across its lanes.
    fn record_batch(
        &mut self,
        count: usize,
        obs: Option<&SimObserver>,
        t0: Option<std::time::Instant>,
    ) {
        let (Some(obs), Some(t0)) = (obs, t0) else { return };
        self.lane_sort.clear();
        self.lane_sort.extend_from_slice(&self.steps[..count]);
        self.lane_sort.sort_unstable_by(|a, b| b.cmp(a));
        obs.record_batch_lanes(&self.lane_sort);
        let per_lane = (t0.elapsed().as_nanos() as u64) / count.max(1) as u64;
        for d in self.details.iter_mut().take(count) {
            d.nanos = per_lane;
        }
        let paths =
            self.results.iter().take(count).zip(&self.details).filter_map(|(r, d)| match r {
                Some(Ok((outcome, _))) => Some((outcome, d)),
                _ => None,
            });
        obs.record_path_batch(paths, per_lane / 1_000);
    }
}

impl Default for BatchScratch {
    fn default() -> BatchScratch {
        BatchScratch::new()
    }
}

/// Margin past the horizon for truncating unbounded enabling windows: any
/// delay beyond the remaining bound is verdict-equivalent, so the exact
/// cap does not affect outcomes (see docs/semantics.md).
fn step_margin(property: &TimedReach) -> f64 {
    (0.1 * property.bound).max(1.0)
}

/// What happens first along a delay of length `up_to`.
enum Scan {
    /// The goal is hit (first) at this delay.
    Goal(f64),
    /// The hold predicate is violated (strictly first) at this delay.
    Violated(f64),
    /// Neither occurs within the scanned prefix.
    Clear,
}

/// Scans `[0, up_to]` for the first goal hit and the first hold
/// violation; a tie counts as satisfaction (at the goal instant `hold`
/// need not hold any more — standard until semantics).
fn scan_delay(
    goal_win: &IntervalSet,
    viol_win: &IntervalSet,
    up_to: f64,
    tmp: &mut IntervalSet,
) -> Scan {
    goal_win.truncate_into(up_to, tmp);
    let goal_at = tmp.inf();
    viol_win.truncate_into(up_to, tmp);
    let viol_at = tmp.inf();
    match (goal_at, viol_at) {
        (Some(g), Some(v)) if g <= v => Scan::Goal(g),
        (Some(g), None) => Scan::Goal(g),
        (_, Some(v)) => Scan::Violated(v),
        (None, None) => Scan::Clear,
    }
}

/// Replaces an infinite tail by a bounded one ending at `cap`,
/// writing the result into `out` without allocating.
fn cap_infinite_into(set: &IntervalSet, cap: f64, out: &mut IntervalSet) {
    match set.sup() {
        Some(s) if s.is_finite() => out.copy_from(set),
        Some(_) => set.truncate_into(cap.max(set.inf().unwrap_or(0.0)), out),
        None => out.clear(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Goal;
    use crate::strategy::{Asap, MaxTime, Progressive, StrategyKind};
    use crate::trace::{MemorySink, TraceEvent};
    use slim_automata::prelude::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Clock-driven one-shot: fires between 2 and 4, sets `done`.
    fn window_net() -> (Network, Expr) {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let done = b.var("done", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("wait", Expr::var(x).le(Expr::real(4.0)), []);
        let l1 = a.location("done");
        let g = Expr::var(x).ge(Expr::real(2.0)).and(Expr::var(x).le(Expr::real(4.0)));
        a.guarded(l0, ActionId::TAU, g, [Effect::assign(done, Expr::bool(true))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Expr::var(net.var_id("done").unwrap());
        (net, goal)
    }

    #[test]
    fn asap_hits_earliest_instant() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn maxtime_hits_boundary_instant() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut MaxTime, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 4.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn progressive_hits_inside_window() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for seed in 0..20 {
            let out = gen.generate(&mut Progressive, &mut rng(seed)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied);
            assert!((2.0 - 1e-9..=4.0 + 1e-9).contains(&out.end_time), "end {}", out.end_time);
        }
    }

    #[test]
    fn bound_too_small_fails() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 1.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::TimeBoundExceeded);
    }

    #[test]
    fn goal_at_exact_bound_satisfied() {
        let (net, goal) = window_net();
        // Goal becomes reachable exactly at t = 2 with bound 2 (inclusive).
        let prop = TimedReach::new(Goal::expr(goal), 2.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
    }

    #[test]
    fn timed_goal_detected_mid_delay() {
        // Goal is a pure clock condition hit during a long delay, with no
        // discrete transition at that instant.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("only", Expr::var(x).le(Expr::real(100.0)), []);
        let _ = l0;
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(net.var_id("x").unwrap()).ge(Expr::real(7.0)));
        let prop = TimedReach::new(goal, 50.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        // MaxTime would delay to 100 — the goal is hit at 7 on the way.
        let out = gen.generate(&mut MaxTime, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 7.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn deadlock_classified() {
        // Single location, no transitions, no invariant: time diverges.
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("sink");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Deadlock);
        assert!(!out.verdict.is_success());
    }

    #[test]
    fn timelock_classified() {
        // Invariant x <= 3 but the only transition needs x >= 5.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("trap", Expr::var(x).le(Expr::real(3.0)), []);
        let l1 = a.location("free");
        a.guarded(l0, ActionId::TAU, Expr::var(x).ge(Expr::real(5.0)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Timelock);
    }

    #[test]
    fn goal_during_lock_window_still_satisfied() {
        // Timelock at x = 3, but the goal (x >= 2) is hit on the way.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location_with("trap", Expr::var(x).le(Expr::real(3.0)), []);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(net.var_id("x").unwrap()).ge(Expr::real(2.0)));
        let prop = TimedReach::new(goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn markovian_transition_fires() {
        // ok --(λ=2)--> failed; goal = failed location.
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 2.0, [], failed);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        let prop = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut times = Vec::new();
        for seed in 0..200 {
            let out = gen.generate(&mut Asap, &mut rng(seed)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied);
            times.push(out.end_time);
        }
        let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
        assert!((mean - 0.5).abs() < 0.12, "mean exp delay {mean} (expect 1/λ = 0.5)");
    }

    #[test]
    fn markovian_race_preempts_guarded_schedule() {
        // Guarded transition at exactly x = 10 vs a fast fault (λ = 10):
        // the fault almost always wins.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut p = AutomatonBuilder::new("worker");
        let w0 = p.location("w0");
        let w1 = p.location("w1");
        p.guarded(w0, ActionId::TAU, Expr::var(x).ge(Expr::real(10.0)), [], w1);
        b.add_automaton(p);
        let mut e = AutomatonBuilder::new("fault");
        let ok = e.location("ok");
        let dead = e.location("dead");
        e.markovian(ok, 10.0, [], dead);
        b.add_automaton(e);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "fault", "dead").unwrap();
        let prop = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut fault_first = 0;
        for seed in 0..100 {
            let out = gen.generate(&mut Asap, &mut rng(seed)).unwrap();
            if out.verdict == Verdict::Satisfied && out.end_time < 10.0 {
                fault_first += 1;
            }
        }
        assert!(fault_first >= 95, "fault won only {fault_first}/100 races");
    }

    #[test]
    fn step_limit_trips_on_zeno() {
        // Self-loop always enabled at delay 0 (ASAP fires it forever).
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("zeno");
        let l0 = a.location("l");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [], l0);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 50);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::StepLimit);
        assert_eq!(out.steps, 50);
    }

    #[test]
    fn trace_records_structured_events() {
        let (net, goal) = window_net();
        // Use a goal that requires the discrete transition to fire.
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut sink = MemorySink::default();
        let out = {
            let mut tracer = PathTracer::new(&net, &mut sink);
            gen.generate_traced(&mut Asap, &mut rng(1), &mut tracer).unwrap()
        };
        assert_eq!(out.verdict, Verdict::Satisfied);
        // Goal is hit exactly when firing; the trace contains the delay.
        assert!(sink.events.iter().any(
            |e| matches!(e, TraceEvent::Delay { duration, .. } if (*duration - 2.0).abs() < 1e-9)
        ));
        // The strategy's decision is recorded with its candidate set.
        assert!(sink.events.iter().any(|e| matches!(
            e,
            TraceEvent::Decision { kind, candidates, chosen: Some(0), .. }
                if kind == "fire" && candidates.len() == 1
        )));
        // Snapshots carry the post-step valuation.
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Snapshot { locations, .. } if !locations.is_empty())));
        // The final event is the verdict.
        match sink.events.last().unwrap() {
            TraceEvent::Verdict { verdict, steps, .. } => {
                assert_eq!(verdict, "satisfied");
                assert_eq!(*steps, out.steps);
            }
            other => panic!("expected verdict last, got {other}"),
        }
    }

    #[test]
    fn until_hold_violation_fails_path() {
        // Clock model: goal at x >= 5, hold requires x <= 3 — the hold is
        // violated (strictly) before the goal can be reached.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(5.0)));
        let hold = Goal::expr(Expr::var(x).le(Expr::real(3.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::HoldViolated);
        assert!((out.end_time - 3.0).abs() < 1e-9, "violated at {}", out.end_time);
    }

    #[test]
    fn until_goal_before_violation_succeeds() {
        // Goal at x >= 2, hold until x <= 4: goal wins.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(2.0)));
        let hold = Goal::expr(Expr::var(x).le(Expr::real(4.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn until_tie_counts_as_satisfaction() {
        // Goal and violation at the same instant x = 2: satisfied.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(2.0)));
        let hold = Goal::expr(Expr::var(x).lt(Expr::real(2.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
    }

    #[test]
    fn until_hold_violated_by_discrete_effect() {
        // A Markovian fault flips `ok` to false before the (late) goal.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let ok = b.var("ok", VarType::Bool, Value::Bool(true));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("up");
        let l1 = a.location("down");
        a.markovian(l0, 100.0, [Effect::assign(ok, Expr::bool(false))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(50.0)));
        let hold = Goal::expr(Expr::var(ok));
        let prop = TimedReach::until(hold, goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(7)).unwrap();
        assert_eq!(out.verdict, Verdict::HoldViolated);
        assert!(out.end_time < 1.0, "fault should hit quickly, got {}", out.end_time);
    }

    #[test]
    fn urgent_transition_forces_immediate_firing() {
        // An urgent always-enabled transition: even MaxTime must fire it
        // at delay 0 rather than drifting to the horizon.
        let mut b = NetworkBuilder::new();
        let hit = b.var("hit", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded_urgent(
            l0,
            ActionId::TAU,
            Expr::TRUE,
            [Effect::assign(hit, Expr::bool(true))],
            l1,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(hit)), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            let out = gen.generate(kind.instantiate().as_mut(), &mut rng(3)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied, "{kind}");
            assert_eq!(out.end_time, 0.0, "{kind} delayed an urgent transition");
        }
    }

    #[test]
    fn urgent_cutoff_bounds_other_candidates() {
        // A non-urgent transition enabled from 1.0 and an urgent one
        // enabled from 2.0: no strategy may fire the non-urgent one later
        // than 2.0.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let late = b.var("late", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(x).ge(Expr::real(1.0)),
            [Effect::assign(late, Expr::var(x).gt(Expr::real(2.0)))],
            l1,
        );
        let mut w = AutomatonBuilder::new("watchdog");
        let w0 = w.location("armed");
        let w1 = w.location("tripped");
        w.guarded_urgent(w0, ActionId::TAU, Expr::var(x).ge(Expr::real(2.0)), [], w1);
        b.add_automaton(a);
        b.add_automaton(w);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "p", "l1").unwrap();
        let prop = TimedReach::new(goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            for seed in 0..10 {
                let mut r = rng(seed);
                let mut strategy = kind.instantiate();
                let mut sink = MemorySink::default();
                {
                    let mut tracer = PathTracer::new(&net, &mut sink);
                    let _ = gen.generate_traced(strategy.as_mut(), &mut r, &mut tracer).unwrap();
                }
                // Until the urgent watchdog has fired, time must not pass
                // its 2.0 enabling instant — so the FIRST discrete event
                // of every path happens no later than 2.0.
                let first_fire_at = sink
                    .events
                    .iter()
                    .find_map(|e| match e {
                        TraceEvent::Fire { at, .. } => Some(*at),
                        _ => None,
                    })
                    .expect("some transition fires");
                assert!(
                    first_fire_at <= 2.0 + 1e-9,
                    "{kind}/{seed}: first event at {first_fire_at} past the urgency cutoff"
                );
            }
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            let a = gen.generate(kind.instantiate().as_mut(), &mut rng(42)).unwrap();
            let b = gen.generate(kind.instantiate().as_mut(), &mut rng(42)).unwrap();
            assert_eq!(a, b, "strategy {kind} not reproducible");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // One SimScratch carried across many paths and strategies must
        // yield exactly the outcomes of per-path fresh scratches: leftover
        // pool contents and stale buffer lengths may never leak between
        // paths.
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut shared = SimScratch::new();
        for kind in StrategyKind::ALL {
            for seed in 0..25 {
                let a = gen
                    .generate_with(&mut shared, kind.instantiate().as_mut(), &mut rng(seed))
                    .unwrap();
                let b = gen.generate(kind.instantiate().as_mut(), &mut rng(seed)).unwrap();
                assert_eq!(a, b, "strategy {kind}, seed {seed}");
            }
        }
    }
}
