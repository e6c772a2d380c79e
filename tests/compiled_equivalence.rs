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
            // and Markovian list below comes from the reused state. Odd
            // paths begin without guard reuse, as the engine begins them
            // where it does not pay; the Markovian list is patched either
            // way.
            if path % 2 == 0 {
                s.begin_path(&tables);
            } else {
                s.begin_full_path(&tables);
            }
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
                    assert_eq!(st, st_c, "{name}: apply diverged");
                } else if !markov.is_empty() {
                    let sup = w.sup().unwrap_or(0.0);
                    let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                    st = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    assert_eq!(st, st_c, "{name}: advance diverged");
                    let m = &markov[lcg(&mut seed) as usize % markov.len()];
                    st = net.apply(&st, &m.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &m.transition.parts).unwrap();
                    assert_eq!(st, st_c, "{name}: apply diverged");
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
                let b = gen
                    .generate_with(&mut SimScratch::new(), kind.instantiate().as_mut(), &mut rng_b)
                    .unwrap();
                assert_eq!(a, b, "{name}/{kind}/seed {seed}: reused scratch diverged");
            }
        }
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
        let mut hooks = PathHooks { tracer: Some(&mut tracer), ..PathHooks::default() };
        gen.generate_hooked(&mut scratch, kind.instantiate().as_mut(), &mut rng, &mut hooks)
            .expect("golden path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "compiled kernel broke golden byte-identity");
}
