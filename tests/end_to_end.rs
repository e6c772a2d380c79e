//! End-to-end integration tests spanning the whole workspace: SLIM text →
//! parse → extend → lower → simulate, cross-checked against the CTMC
//! pipeline and analytic results.

use slim_ctmc::analysis::{check_timed_reachability, PipelineConfig};
use slim_lang::{lower, parse};
use slim_models::gps::{gps_network, GpsParams};
use slim_models::sensor_filter::{
    analytic_failure_probability, sensor_filter_network, SensorFilterParams, GOAL_VAR,
};
use slimsim::prelude::*;

/// SLIM source → both engines → same probability (within ε).
#[test]
fn slim_source_agrees_across_engines() {
    let src = r#"
        device Machine
          features
            broken: out data port bool := false;
        end Machine;
        device implementation Machine.Impl
          modes
            up: initial mode;
            down: mode;
          transitions
            up -[ rate 2.0 then broken := true ]-> down;
            down -[ rate 1.0 then broken := false ]-> up;
        end Machine.Impl;
    "#;
    let model = parse(src).expect("parses");
    let net = lower(&model, "Machine", "Impl", "m").expect("lowers").network;
    let broken = net.var_id("m.broken").unwrap();

    let horizon = 1.0;
    let goal_fn = move |s: &NetState| s.nu.get(broken).map(|v| v.as_bool().unwrap_or(false));
    let exact = check_timed_reachability(&net, &goal_fn, horizon, &PipelineConfig::default())
        .expect("CTMC pipeline")
        .probability;
    // Analytic: first passage of a 2-state chain = first fault: 1 − e^{−2t}.
    assert!((exact - (1.0 - (-2.0f64).exp())).abs() < 1e-8);

    let prop = TimedReach::new(Goal::expr(Expr::var(broken)), horizon);
    let cfg = SimConfig::default()
        .with_accuracy(Accuracy::new(0.02, 0.05).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_workers(2);
    let sim = analyze(&net, &prop, &cfg).expect("simulation");
    assert!(
        (sim.probability() - exact).abs() < 0.03,
        "simulator {} vs CTMC {exact}",
        sim.probability()
    );
}

/// The sensor–filter benchmark: simulator, CTMC pipeline and closed form
/// agree for several sizes and horizons.
#[test]
fn sensor_filter_three_way_agreement() {
    for redundancy in [1, 2, 3] {
        for horizon in [0.5, 2.0] {
            let params = SensorFilterParams { redundancy, ..Default::default() };
            let net = sensor_filter_network(&params);
            let failed = net.var_id(GOAL_VAR).unwrap();
            let goal_fn =
                move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
            let ctmc =
                check_timed_reachability(&net, &goal_fn, horizon, &PipelineConfig::default())
                    .unwrap();
            let analytic = analytic_failure_probability(&params, horizon);
            assert!(
                (ctmc.probability - analytic).abs() < 1e-6,
                "n={redundancy} t={horizon}: ctmc {} vs analytic {analytic}",
                ctmc.probability
            );

            let prop = TimedReach::new(Goal::expr(Expr::var(failed)), horizon);
            let cfg = SimConfig::default()
                .with_accuracy(Accuracy::new(0.03, 0.1).unwrap())
                .with_strategy(StrategyKind::Progressive);
            let sim = analyze(&net, &prop, &cfg).unwrap();
            assert!(
                (sim.probability() - analytic).abs() < 0.04,
                "n={redundancy} t={horizon}: sim {} vs analytic {analytic}",
                sim.probability()
            );
        }
    }
}

/// Lumping never changes the CTMC pipeline's answer.
#[test]
fn lumping_is_transparent() {
    let params = SensorFilterParams { redundancy: 3, ..Default::default() };
    let net = sensor_filter_network(&params);
    let failed = net.var_id(GOAL_VAR).unwrap();
    let goal_fn = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
    let with = check_timed_reachability(&net, &goal_fn, 1.5, &PipelineConfig::default()).unwrap();
    let without = check_timed_reachability(
        &net,
        &goal_fn,
        1.5,
        &PipelineConfig { skip_lumping: true, ..Default::default() },
    )
    .unwrap();
    assert!((with.probability - without.probability).abs() < 1e-9);
    assert!(
        with.lumped_states < without.lumped_states,
        "lumping should shrink the chain ({} !< {})",
        with.lumped_states,
        without.lumped_states
    );
}

/// The GPS SLIM model: the §III-B strategy semantics, end to end.
#[test]
fn gps_strategy_semantics_end_to_end() {
    let p = GpsParams {
        lambda_transient: 0.001,
        lambda_hot: 20.0,
        lambda_permanent: 0.001,
        ..GpsParams::default()
    };
    let net = gps_network(&p);
    let goal = Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap();
    let prop = TimedReach::new(goal, 0.4);
    let acc = Accuracy::new(0.05, 0.1).unwrap();

    let prob = |kind: StrategyKind| {
        let cfg = SimConfig::default().with_accuracy(acc).with_strategy(kind).with_seed(17);
        analyze(&net, &prop, &cfg).unwrap().probability()
    };
    let asap = prob(StrategyKind::Asap);
    let maxtime = prob(StrategyKind::MaxTime);
    let progressive = prob(StrategyKind::Progressive);
    assert!(asap > 0.8, "ASAP should almost always escalate, got {asap}");
    assert!(maxtime < 0.1, "MaxTime should almost never escalate, got {maxtime}");
    assert!(
        progressive > maxtime && progressive < asap,
        "Progressive {progressive} should sit between {maxtime} and {asap}"
    );
}

/// Deadlock handling end to end (§III-D): falsify vs error.
#[test]
fn deadlock_policy_end_to_end() {
    let src = r#"
        device Stuck end Stuck;
        device implementation Stuck.Impl
          modes
            only: initial mode;
        end Stuck.Impl;
    "#;
    let model = parse(src).unwrap();
    let net = lower(&model, "Stuck", "Impl", "s").unwrap().network;
    let prop = TimedReach::new(Goal::expr(Expr::FALSE), 1.0);

    // `false` is statically unreachable, so the fixpoint pre-verdict
    // would answer P = 0 without sampling; disable it — this test is
    // about what the *paths* do when they deadlock.
    let falsify = SimConfig::default()
        .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
        .with_static_pre_verdicts(false)
        .with_deadlock_policy(DeadlockPolicy::Falsify);
    let r = analyze(&net, &prop, &falsify).unwrap();
    assert_eq!(r.probability(), 0.0);
    assert_eq!(r.stats.deadlocks, r.stats.total());

    let error = falsify.with_deadlock_policy(DeadlockPolicy::Error);
    assert!(matches!(analyze(&net, &prop, &error), Err(SimError::DeadlockDetected { .. })));
}

/// Full determinism: same seed ⇒ identical results, across strategies and
/// generators.
#[test]
fn seeded_determinism_end_to_end() {
    let net = sensor_filter_network(&SensorFilterParams::default());
    let failed = net.var_id(GOAL_VAR).unwrap();
    let prop = TimedReach::new(Goal::expr(Expr::var(failed)), 1.0);
    for kind in StrategyKind::ALL {
        for generator in GeneratorKind::ALL {
            let cfg = SimConfig::default()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_strategy(kind)
                .with_generator(generator)
                .with_seed(99);
            let a = analyze(&net, &prop, &cfg).unwrap();
            let b = analyze(&net, &prop, &cfg).unwrap();
            assert_eq!(a.estimate, b.estimate, "{kind}/{generator} not deterministic");
        }
    }
}

/// The interactive Input strategy drives a path end to end.
#[test]
fn input_strategy_scripted_path() {
    let src = r#"
        device Timer
          features
            expired: out data port bool := false;
        end Timer;
        device implementation Timer.Impl
          subcomponents
            t: data clock;
          modes
            running: initial mode while t <= 10.0;
            done: mode;
          transitions
            running -[ when t >= 2.0 then expired := true ]-> done;
        end Timer.Impl;
    "#;
    let model = parse(src).unwrap();
    let net = lower(&model, "Timer", "Impl", "timer").unwrap().network;
    let expired = net.var_id("timer.expired").unwrap();
    let prop = TimedReach::new(Goal::expr(Expr::var(expired)), 10.0);
    let gen = PathGenerator::new(&net, &prop, 1000);

    // Wait 1.5 (nothing enabled yet), then fire candidate 0 at 3.0.
    let mut strategy = Input::new(ScriptedOracle::new([
        InputChoice::Wait { delay: 1.5 },
        InputChoice::Fire { candidate: 0, delay: 1.5 },
    ]));
    let mut rng = slim_stats::rng::StdRng::seed_from_u64(0);
    let out = gen.generate_with(&mut SimScratch::new(), &mut strategy, &mut rng).unwrap();
    assert_eq!(out.verdict, Verdict::Satisfied);
    assert!((out.end_time - 3.0).abs() < 1e-9, "fired at {}", out.end_time);

    // An aborted script surfaces as an error.
    let mut aborting = Input::new(ScriptedOracle::new([]));
    let mut rng = slim_stats::rng::StdRng::seed_from_u64(0);
    let aborted = gen.generate_with(&mut SimScratch::new(), &mut aborting, &mut rng);
    assert!(matches!(aborted, Err(SimError::InputAborted)));
}

/// Parallel analysis gives exactly the same sample set as sequential for
/// CH (known N), on a full model.
#[test]
fn parallel_equivalence_on_model() {
    let net = sensor_filter_network(&SensorFilterParams::default());
    let failed = net.var_id(GOAL_VAR).unwrap();
    let prop = TimedReach::new(Goal::expr(Expr::var(failed)), 1.0);
    let acc = Accuracy::new(0.05, 0.1).unwrap();
    let seq = SimConfig::default().with_accuracy(acc).with_seed(5).with_workers(1);
    let par = SimConfig::default().with_accuracy(acc).with_seed(5).with_workers(4);
    let a = analyze(&net, &prop, &seq).unwrap();
    let b = analyze(&net, &prop, &par).unwrap();
    assert_eq!(a.estimate.successes, b.estimate.successes);
    assert_eq!(a.estimate.samples, b.estimate.samples);
}
