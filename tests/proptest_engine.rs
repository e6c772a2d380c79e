//! Randomized tests of the simulation engine over generated (but
//! well-formed) networks: every strategy must produce verdicts that
//! respect the path invariants, deterministically under a fixed seed.

mod common;

use common::*;
use slimsim::prelude::*;
use slimsim::stats::rng::path_rng;

#[derive(Debug, Clone)]
enum UnitKind {
    /// Clock-guarded window [a, b] with invariant x ≤ b.
    Timed { lo: f64, hi: f64 },
    /// Exponential fault with rate λ.
    Markovian { rate: f64 },
    /// Clock window that can also escalate to a second location.
    TwoStep { lo: f64, hi: f64, split: f64 },
}

fn unit(rng: &mut StdRng) -> UnitKind {
    match rng.gen_range(0..3) {
        0 => {
            let a = f64_in(rng, 0.1, 3.0);
            UnitKind::Timed { lo: a, hi: a + f64_in(rng, 0.1, 3.0) }
        }
        1 => UnitKind::Markovian { rate: f64_in(rng, 0.05, 5.0) },
        _ => {
            let a = f64_in(rng, 0.1, 2.0);
            let len = f64_in(rng, 0.2, 2.0);
            let frac = f64_in(rng, 0.0, 1.0).clamp(0.05, 0.95);
            UnitKind::TwoStep { lo: a, hi: a + len, split: a + len * frac }
        }
    }
}

/// Builds a network from unit descriptions; every unit sets its own flag.
fn build(units: &[UnitKind]) -> Network {
    let mut b = NetworkBuilder::new();
    let flags: Vec<VarId> = (0..units.len())
        .map(|i| b.var(format!("flag{i}"), VarType::Bool, Value::Bool(false)))
        .collect();
    for (i, u) in units.iter().enumerate() {
        let mut a = AutomatonBuilder::new(format!("u{i}"));
        match u {
            UnitKind::Timed { lo, hi } => {
                let x = b.var(format!("x{i}"), VarType::Clock, Value::Real(0.0));
                let l0 = a.location_with("wait", Expr::var(x).le(Expr::real(*hi)), []);
                let l1 = a.location("done");
                a.guarded(
                    l0,
                    ActionId::TAU,
                    Expr::var(x).ge(Expr::real(*lo)).and(Expr::var(x).le(Expr::real(*hi))),
                    [Effect::assign(flags[i], Expr::bool(true))],
                    l1,
                );
            }
            UnitKind::Markovian { rate } => {
                let l0 = a.location("ok");
                let l1 = a.location("dead");
                a.markovian(l0, *rate, [Effect::assign(flags[i], Expr::bool(true))], l1);
            }
            UnitKind::TwoStep { lo, hi, split } => {
                let x = b.var(format!("x{i}"), VarType::Clock, Value::Real(0.0));
                let l0 = a.location_with("wait", Expr::var(x).le(Expr::real(*hi)), []);
                let l1 = a.location("early");
                let l2 = a.location("late");
                a.guarded(
                    l0,
                    ActionId::TAU,
                    Expr::var(x).ge(Expr::real(*lo)).and(Expr::var(x).lt(Expr::real(*split))),
                    [Effect::assign(flags[i], Expr::bool(true))],
                    l1,
                );
                a.guarded(
                    l0,
                    ActionId::TAU,
                    Expr::var(x).ge(Expr::real(*split)).and(Expr::var(x).le(Expr::real(*hi))),
                    [Effect::assign(flags[i], Expr::bool(true))],
                    l2,
                );
            }
        }
        b.add_automaton(a);
    }
    b.build().expect("generated network is well-formed")
}

#[test]
fn paths_respect_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5eed_e061e);
    for case in 0..48 {
        let units = vec_of(&mut rng, 1, 4, unit);
        let bound = f64_in(&mut rng, 0.5, 8.0);
        let want_all = rng.gen::<bool>();
        let seed = rng.gen::<u64>() % 1000;

        let net = build(&units);
        let flags: Vec<Expr> =
            (0..units.len()).map(|i| Expr::var(net.var_id(&format!("flag{i}")).unwrap())).collect();
        let goal_expr = if want_all {
            Expr::all(flags.iter().cloned())
        } else {
            Expr::any(flags.iter().cloned())
        };
        let prop = TimedReach::new(Goal::expr(goal_expr), bound);
        let gen = PathGenerator::new(&net, &prop, 20_000);

        for kind in StrategyKind::ALL_EXTENDED {
            let mut s1 = kind.instantiate();
            let mut rng1 = path_rng(seed, 0);
            let out1 = gen
                .generate_with(&mut SimScratch::new(), s1.as_mut(), &mut rng1)
                .unwrap_or_else(|e| panic!("case {case}: {kind} failed: {e}"));
            assert!(out1.end_time >= -1e-12, "case {case}: {kind}: negative end time");
            assert!(out1.steps <= 20_000);
            if out1.verdict == Verdict::Satisfied {
                assert!(
                    out1.end_time <= bound + 1e-9,
                    "case {case}: {kind}: satisfied at {} past bound {bound}",
                    out1.end_time
                );
            }
            // Deterministic replay.
            let mut s2 = kind.instantiate();
            let mut rng2 = path_rng(seed, 0);
            let out2 = gen.generate_with(&mut SimScratch::new(), s2.as_mut(), &mut rng2).unwrap();
            assert_eq!(out1, out2, "case {case}: {kind} not deterministic");
        }
    }
}

#[test]
fn estimates_are_probabilities_and_asap_dominates_for_any_goal() {
    // For an "any flag" goal on independent units, ASAP fires the earliest
    // enabled transition, so it reaches SOME flag no later than MaxTime
    // does on every path prefix — its estimate must not be (statistically
    // significantly) lower.
    let mut rng = StdRng::seed_from_u64(0x5eed_a5a9);
    for case in 0..24 {
        let units = vec_of(&mut rng, 1, 3, unit);
        let bound = f64_in(&mut rng, 0.5, 5.0);

        let net = build(&units);
        let flags: Vec<Expr> =
            (0..units.len()).map(|i| Expr::var(net.var_id(&format!("flag{i}")).unwrap())).collect();
        let prop = TimedReach::new(Goal::expr(Expr::any(flags.iter().cloned())), bound);
        let acc = Accuracy::new(0.05, 0.1).unwrap();
        let mut probs = Vec::new();
        for kind in StrategyKind::ALL_EXTENDED {
            let cfg = SimConfig::default().with_accuracy(acc).with_strategy(kind).with_seed(7);
            let r = analyze(&net, &prop, &cfg).unwrap();
            assert!(
                (0.0..=1.0).contains(&r.probability()),
                "case {case}: {}: {}",
                kind,
                r.probability()
            );
            assert_eq!(r.stats.total(), r.estimate.samples);
            probs.push((kind, r.probability()));
        }
        let asap = probs.iter().find(|(k, _)| *k == StrategyKind::Asap).unwrap().1;
        let maxtime = probs.iter().find(|(k, _)| *k == StrategyKind::MaxTime).unwrap().1;
        assert!(
            asap >= maxtime - 3.0 * 0.05,
            "case {case}: ASAP {asap} should dominate MaxTime {maxtime} for an any-flag goal"
        );
    }
}
