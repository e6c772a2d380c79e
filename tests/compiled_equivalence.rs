//! Differential tests pinning the compiled step-table kernel to the
//! legacy allocating network API on every model-zoo system.
//!
//! The compiled kernel ([`StepTables`] + [`StepScratch`]) is the hot path
//! of the simulator; the legacy per-call methods (`delay_window`,
//! `guarded_candidates`, `markovian_candidates`, `advance`, `apply`)
//! remain as the reference semantics. These tests drive long seeded
//! pseudo-random walks over the real paper models and require both APIs
//! to agree *exactly* at every step — windows, candidate order, rates,
//! and successor states — and additionally require the engine to produce
//! identical path outcomes whether its scratch workspace is fresh per
//! path or reused (dirty) across paths, strategies, and models.

use slim_analysis::analyze_network;
use slim_models::{
    gps_network, power_system_network, repair_network, sensor_filter_network, voting_network,
    GpsParams, PowerSystemParams, RepairParams, SensorFilterParams, VotingParams,
};
use slimsim::prelude::*;

/// Deterministic linear-congruential driver for the differential walks
/// (no RNG dependency: the walk itself is part of the test's identity).
fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 33
}

/// Every paper model, by name, with its goal variable where one exists.
fn model_zoo() -> Vec<(&'static str, Network, Option<&'static str>)> {
    vec![
        (
            "sensor_filter",
            sensor_filter_network(&SensorFilterParams::default()),
            Some(slim_models::GOAL_VAR),
        ),
        ("voting", voting_network(&VotingParams::default()), Some(slim_models::VOTING_GOAL_VAR)),
        ("repair", repair_network(&RepairParams::default()), Some(slim_models::REPAIR_GOAL_VAR)),
        ("gps", gps_network(&GpsParams::default()), None),
        (
            "power_system",
            power_system_network(&PowerSystemParams::default()),
            Some(slim_models::POWER_FAILED_VAR),
        ),
    ]
}

fn assert_cands_eq(name: &str, legacy: &[GuardedCandidate], compiled: &[CandidateBuf]) {
    assert_eq!(legacy.len(), compiled.len(), "{name}: candidate count diverged");
    for (l, c) in legacy.iter().zip(compiled) {
        assert_eq!(l.transition.action, c.action, "{name}: action diverged");
        assert_eq!(l.transition.parts, c.parts, "{name}: participants diverged");
        assert_eq!(l.window, c.window, "{name}: enabling window diverged");
        assert_eq!(l.urgent, c.urgent, "{name}: urgency flag diverged");
    }
}

/// A long pseudo-random walk over each zoo model where every step
/// compares the compiled kernel against the legacy API: delay windows,
/// guarded candidates (order included — the order feeds the RNG),
/// Markovian rates, and the `advance`/`apply` successor states.
#[test]
fn model_zoo_compiled_kernel_matches_legacy() {
    for (name, net, _) in model_zoo() {
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut seed = 0x5eed_0001_u64 ^ name.len() as u64;
        let mut window = IntervalSet::empty();

        for path in 0..8u64 {
            seed ^= (path + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut st = net.initial_state().unwrap();
            let mut st_c = st.clone();
            // Scan incrementally, as the engine does: every candidate set
            // and Markovian list below comes from the reused state.
            s.begin_path(&tables);
            for _ in 0..80 {
                assert_eq!(st, st_c, "{name}: states diverged");
                let w = net.delay_window(&st).unwrap();
                net.delay_window_into(&tables, &mut s, &st_c, &mut window).unwrap();
                assert_eq!(w, window, "{name}: delay windows diverged");

                let cands = net.guarded_candidates(&st).unwrap();
                net.guarded_candidates_into(&tables, &mut s, &st_c).unwrap();
                assert_cands_eq(name, &cands, s.candidates());

                let markov = net.markovian_candidates(&st);
                net.markovian_candidates_into(&tables, &mut s, &st_c);
                assert_eq!(markov.len(), s.markovian().len(), "{name}: Markovian count");
                for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                    assert_eq!(l.transition.parts, vec![(p, t)], "{name}: Markovian parts");
                    assert_eq!(l.rate, rate, "{name}: Markovian rate");
                }
                let total: f64 = markov.iter().map(|m| m.rate).sum();
                assert_eq!(total.to_bits(), s.markovian_total().to_bits(), "{name}: total rate");

                // Drive: a guarded candidate enabled inside the delay
                // window if one exists, else a Markovian jump, else stop.
                let pick = lcg(&mut seed) as usize;
                let fired = cands
                    .iter()
                    .cycle()
                    .skip(pick % cands.len().max(1))
                    .take(cands.len())
                    .find(|cand| !cand.window.intersect(&w).is_empty());
                if let Some(cand) = fired {
                    let joint = cand.window.intersect(&w);
                    let lo = joint.earliest_point().unwrap();
                    let frac = (lcg(&mut seed) % 101) as f64 / 100.0;
                    let d = match joint.sup().filter(|sup| sup.is_finite()) {
                        Some(sup) => lo + (sup - lo).max(0.0) * frac * 0.5,
                        None => lo,
                    };
                    let d = if joint.contains(d) { d } else { lo };
                    st = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    assert_eq!(st, st_c, "{name}: advance diverged");
                    st = net.apply(&st, &cand.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &cand.transition.parts).unwrap();
                } else if !markov.is_empty() {
                    let sup = w.sup().unwrap_or(0.0);
                    let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                    st = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    assert_eq!(st, st_c, "{name}: advance diverged");
                    let m = &markov[lcg(&mut seed) as usize % markov.len()];
                    st = net.apply(&st, &m.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &m.transition.parts).unwrap();
                } else {
                    break;
                }
            }
        }
    }
}

/// One `SimScratch` reused — dirty — across models, strategies, and
/// seeds must yield exactly the outcomes of a fresh scratch per path.
#[test]
fn model_zoo_outcomes_identical_with_reused_scratch() {
    let mut shared = SimScratch::new();
    for (name, net, goal_var) in model_zoo() {
        let goal = match goal_var {
            Some(v) => Goal::expr(Expr::var(net.var_id(v).unwrap())),
            None => Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap(),
        };
        let property = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&net, &property, 10_000);
        for kind in [StrategyKind::Asap, StrategyKind::Progressive, StrategyKind::MaxTime] {
            for seed in 0..20u64 {
                let mut rng_a = slimsim::stats::rng::path_rng(7, seed);
                let mut rng_b = slimsim::stats::rng::path_rng(7, seed);
                let a = gen
                    .generate_with(&mut shared, kind.instantiate().as_mut(), &mut rng_a)
                    .unwrap();
                let b = gen.generate(kind.instantiate().as_mut(), &mut rng_b).unwrap();
                assert_eq!(a, b, "{name}/{kind}/seed {seed}: reused scratch diverged");
            }
        }
    }
}

/// The goal property used by the batched differential walks, mirroring
/// [`model_zoo_outcomes_identical_with_reused_scratch`].
fn zoo_property(net: &Network, goal_var: Option<&str>) -> TimedReach {
    let goal = match goal_var {
        Some(v) => Goal::expr(Expr::var(net.var_id(v).unwrap())),
        None => Goal::in_location(net, "gps.error_GpsError", "permanent").unwrap(),
    };
    TimedReach::new(goal, 100.0)
}

/// The scalar reference stream: path `i` generated one at a time on a
/// fresh RNG derived from `(seed, i)`.
fn scalar_outcomes(gen: &PathGenerator<'_>, kind: StrategyKind, n: u64) -> Vec<PathOutcome> {
    let mut sim = SimScratch::new();
    (0..n)
        .map(|i| {
            let mut rng = slimsim::stats::rng::path_rng(7, i);
            gen.generate_with(&mut sim, kind.instantiate().as_mut(), &mut rng).unwrap()
        })
        .collect()
}

/// The same `n` paths through the batched SoA kernel at lane width
/// `lanes`, on a (possibly dirty) shared [`BatchScratch`].
fn batched_outcomes(
    gen: &PathGenerator<'_>,
    kind: StrategyKind,
    n: u64,
    lanes: usize,
    scratch: &mut BatchScratch,
) -> Vec<PathOutcome> {
    let mut batch = Vec::new();
    let mut out = Vec::new();
    let mut i = 0u64;
    while i < n {
        let count = ((n - i) as usize).min(lanes);
        gen.generate_batch_with(
            scratch,
            kind.instantiate().as_mut(),
            7,
            i,
            1,
            count,
            None,
            &mut batch,
        );
        out.extend(batch.drain(..).map(|r| r.unwrap()));
        i += count as u64;
    }
    out
}

/// The batched kernel must reproduce the scalar per-path outcome stream
/// *lane-exactly* on every zoo model: identical verdicts, step counts
/// and end times at every lane width, because lane `j` of a batch
/// starting at path `i` consumes exactly the RNG stream of path `i + j`.
/// One `BatchScratch` is deliberately reused — dirty — across models,
/// strategies and widths (including shrinking from 32 lanes back to 1),
/// so stale lane state from a previous batch can never leak.
#[test]
fn model_zoo_batched_matches_scalar_lane_exact() {
    let mut scratch = BatchScratch::new();
    for (name, net, goal_var) in model_zoo() {
        let property = zoo_property(&net, goal_var);
        let gen = PathGenerator::new(&net, &property, 10_000);
        for kind in [StrategyKind::Asap, StrategyKind::Progressive] {
            let scalar = scalar_outcomes(&gen, kind, 64);
            for lanes in [1usize, 4, 8, 32] {
                let batched = batched_outcomes(&gen, kind, 64, lanes, &mut scratch);
                assert_eq!(
                    batched, scalar,
                    "{name}/{kind}: batched kernel diverged at lane width {lanes}"
                );
            }
        }
    }
}

/// Lane-exact equivalence must also hold on *pruned* networks: the
/// fixpoint's prune plan renumbers locations and transitions, and the
/// batched kernel runs the pruned step tables through exactly the same
/// RNG draws as the scalar path.
///
/// The zoo models are prune-tight (their plans are no-ops), so the test
/// additionally builds a stochastic model with a provably dead guard —
/// `n ≥ 5` on a never-written `n = 0` — whose plan drops a transition
/// and a location, guaranteeing a genuinely renumbered network runs.
#[test]
fn pruned_batched_matches_scalar_lane_exact() {
    let mut b = NetworkBuilder::new();
    let n = b.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
    let fail = b.var("fail", VarType::Bool, Value::Bool(false));
    let mut a = AutomatonBuilder::new("m");
    let up = a.location("up");
    let down = a.location("down");
    a.markovian(up, 0.8, [Effect::assign(fail, Expr::bool(true))], down);
    a.markovian(down, 2.0, [Effect::assign(fail, Expr::bool(false))], up);
    b.add_automaton(a);
    let mut g = AutomatonBuilder::new("g");
    let g0 = g.location("wait");
    let dead = g.location("dead");
    g.guarded(g0, ActionId::TAU, Expr::var(n).ge(Expr::int(5)), [], dead);
    b.add_automaton(g);
    let net = b.build().unwrap();

    let mut scratch = BatchScratch::new();
    let mut nets: Vec<(&str, Network, &str)> = vec![("synthetic", net, "fail")];
    for (name, net, goal_var) in model_zoo() {
        // Location goals do not survive renumbering without a remap;
        // variable goals are untouched by pruning.
        if let Some(var) = goal_var {
            nets.push((name, net, var));
        }
    }
    let mut pruned_any = false;
    for (name, net, var) in nets {
        let plan = analyze_network(&net).prune_plan(&net);
        if plan.is_noop() {
            continue;
        }
        pruned_any = true;
        let (pruned, _maps) = net.prune(&plan);
        let goal = Goal::expr(Expr::var(pruned.var_id(var).unwrap()));
        let property = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&pruned, &property, 10_000);
        let scalar = scalar_outcomes(&gen, StrategyKind::Asap, 48);
        for lanes in [4usize, 32] {
            let batched = batched_outcomes(&gen, StrategyKind::Asap, 48, lanes, &mut scratch);
            assert_eq!(batched, scalar, "{name}: pruned batched kernel diverged at width {lanes}");
        }
    }
    assert!(pruned_any, "prune plans were all no-ops; the pruned leg never ran");
}

/// End-to-end lane-count independence: `analyze` must return the exact
/// same estimate (mean, samples, successes) whatever `batch_lanes` is
/// set to, including `1` (batching disabled). This is the user-visible
/// face of the lane determinism contract.
#[test]
fn runner_estimates_independent_of_batch_lanes() {
    let net = voting_network(&VotingParams::default());
    let goal = Goal::expr(Expr::var(net.var_id(slim_models::VOTING_GOAL_VAR).unwrap()));
    let property = TimedReach::new(goal, 100.0);
    let base = SimConfig::default()
        .with_accuracy(Accuracy::new(0.05, 0.05).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(41);
    let reference = analyze(&net, &property, &base.with_batch_lanes(1)).unwrap();
    for lanes in [4usize, 16, 64] {
        let r = analyze(&net, &property, &base.with_batch_lanes(lanes)).unwrap();
        assert_eq!(
            r.estimate.mean.to_bits(),
            reference.estimate.mean.to_bits(),
            "estimate changed at batch_lanes {lanes}"
        );
        assert_eq!(r.estimate.samples, reference.estimate.samples, "samples at lanes {lanes}");
        assert_eq!(
            r.estimate.successes, reference.estimate.successes,
            "successes at lanes {lanes}"
        );
    }
}

/// The committed golden trace re-captures byte-identically through the
/// compiled kernel even on a *reused* scratch that previously ran other
/// models — the strongest form of the process-restart determinism
/// contract under the allocation-free engine.
#[test]
fn golden_trace_reproduced_on_reused_scratch() {
    let text = include_str!("golden/witness-goal.jsonl");
    let events = parse_trace(text).expect("golden trace parses");
    let TraceEvent::Start { model, path_index, seed, strategy, bound, max_steps, args, .. } =
        events.first().expect("golden trace is nonempty").clone()
    else {
        panic!("golden trace must begin with a Start header");
    };
    assert_eq!(model, "voting");
    let net = voting_network(&VotingParams::default());
    let goal_var = args.iter().find(|(k, _)| k == "goal-var").map(|(_, v)| v.as_str()).unwrap();
    let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
    let property = TimedReach::new(goal, bound);
    let gen = PathGenerator::new(&net, &property, max_steps);
    let kind = StrategyKind::parse(&strategy).unwrap();

    // Dirty the scratch with unrelated paths first.
    let mut scratch = SimScratch::new();
    for warm in 0..8 {
        let mut rng = slimsim::stats::rng::path_rng(seed ^ 0xdead, warm);
        gen.generate_with(&mut scratch, kind.instantiate().as_mut(), &mut rng).unwrap();
    }

    let mut rng = slimsim::stats::rng::path_rng(seed, path_index);
    let mut sink = MemorySink::default();
    {
        let mut tracer = PathTracer::new(&net, &mut sink);
        gen.generate_traced_with(&mut scratch, kind.instantiate().as_mut(), &mut rng, &mut tracer)
            .expect("golden path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "compiled kernel broke golden byte-identity");
}

/// Batching must not perturb trace capture: traced paths fall back to
/// the scalar engine on the batch scratch's embedded `SimScratch`, and
/// the committed golden trace must re-capture byte-identically even
/// after batched (untraced) generation has dirtied every lane of that
/// scratch.
#[test]
fn golden_trace_byte_identical_with_batched_generation_active() {
    let text = include_str!("golden/witness-goal.jsonl");
    let events = parse_trace(text).expect("golden trace parses");
    let TraceEvent::Start { model, path_index, seed, strategy, bound, max_steps, args, .. } =
        events.first().expect("golden trace is nonempty").clone()
    else {
        panic!("golden trace must begin with a Start header");
    };
    assert_eq!(model, "voting");
    let net = voting_network(&VotingParams::default());
    let goal_var = args.iter().find(|(k, _)| k == "goal-var").map(|(_, v)| v.as_str()).unwrap();
    let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
    let property = TimedReach::new(goal, bound);
    let gen = PathGenerator::new(&net, &property, max_steps);
    let kind = StrategyKind::parse(&strategy).unwrap();

    // Dirty every lane with batched, untraced generation first.
    let mut scratch = BatchScratch::new();
    let mut batch = Vec::new();
    gen.generate_batch_with(
        &mut scratch,
        kind.instantiate().as_mut(),
        seed ^ 0xdead,
        0,
        1,
        16,
        None,
        &mut batch,
    );
    for r in batch.drain(..) {
        r.expect("warm-up batch paths succeed");
    }

    // The traced path runs through the scalar fallback on the same
    // (dirty) scratch.
    let mut rng = slimsim::stats::rng::path_rng(seed, path_index);
    let mut sink = MemorySink::default();
    {
        let mut tracer = PathTracer::new(&net, &mut sink);
        gen.generate_traced_with(
            scratch.sim_mut(),
            kind.instantiate().as_mut(),
            &mut rng,
            &mut tracer,
        )
        .expect("golden path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "batched generation perturbed the golden trace");
}

/// Batching must not perturb witness capture: the selector records path
/// *indices* in consumption order, and consumption order is path-index
/// order at every lane width, so the selected indices — and the
/// re-generated witness traces, byte for byte — must be identical
/// whether batching is disabled or running 64 lanes wide.
#[test]
fn witness_capture_unperturbed_by_batching() {
    let net = voting_network(&VotingParams::default());
    let goal = Goal::expr(Expr::var(net.var_id(slim_models::VOTING_GOAL_VAR).unwrap()));
    let property = TimedReach::new(goal, 100.0);
    let base = SimConfig::default()
        .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(23);
    let run = |lanes: usize| {
        let config = base.with_batch_lanes(lanes);
        let obs = SimObserver::new(1).with_witness_capture(2);
        analyze_observed(&net, &property, &config, Some(&obs)).unwrap();
        let selector = obs.witness_selection().unwrap();
        let witnesses =
            capture_witnesses(&net, &property, &config, &selector, TraceOptions::default())
                .unwrap();
        let rendered: Vec<(u64, String)> =
            witnesses.iter().map(|w| (w.index, events_to_json_lines(&w.events))).collect();
        (selector, rendered)
    };
    let reference = run(1);
    assert!(!reference.1.is_empty(), "the run selected no witnesses; the guard is vacuous");
    for lanes in [16usize, 64] {
        assert_eq!(run(lanes), reference, "witness capture diverged at batch_lanes {lanes}");
    }
}
