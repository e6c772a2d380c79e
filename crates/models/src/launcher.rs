//! The industrial launcher case study of §V (Fig. 4), reconstructed from
//! the paper's prose.
//!
//! Architecture (Fig. 4): two PCDUs (each a battery with linear energy
//! dynamics and a permanent failure mode), two GPS units and three gyros
//! for navigation, two DPU *triplexes* (2-out-of-3 voting processors)
//! computing thruster commands, and the thruster block which needs a
//! command from at least one triplex. All output signals are abstracted
//! to Booleans indicating whether a correct signal is available (§V-a),
//! wired with data flows. Failure rates are scaled up unrealistically so
//! strategy effects show with moderate sample counts (§V-c).
//!
//! The §V-d experiment compares two variants:
//! * **permanent** DPU faults — the model has only probabilistic and
//!   deterministic transitions, so all strategies coincide (Fig. 5 left);
//! * **recoverable** (hot) DPU faults — recovery happens in a
//!   non-deterministic window `[0.2, 0.3]` h and restarting *before* the
//!   `0.25` h cool-down bricks the unit, so the strategies diverge: ASAP
//!   always restarts too early (worst), MaxTime never does (best), Local
//!   and Progressive land in between (Fig. 5 right).
//!
//! The failure property is the paper's probabilistic existence pattern
//! `P(◇[0,u] failure)` with `failure` = neither triplex can send a
//! thruster command while in flight.

use slim_automata::automaton::Effect;
use slim_automata::prelude::*;

/// DPU fault model variant (the Fig. 5 left/right knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpuFaultMode {
    /// Permanent DPU faults: no recovery.
    Permanent,
    /// Hot (recoverable) DPU faults with a non-deterministic restart
    /// window and a cool-down before which restarting escalates.
    Recoverable,
    /// All three fault classes of §V-c: transient faults that self-heal
    /// within the repair window, hot faults that need a restart (with the
    /// cool-down escalation), and directly permanent faults. Transient
    /// faults dominate, hot follow, permanent are rare (the usual
    /// ordering of the classes).
    ThreeClass,
}

/// Parameters of the launcher model (time unit: hours).
#[derive(Debug, Clone, Copy)]
pub struct LauncherParams {
    /// DPU fault variant.
    pub dpu_faults: DpuFaultMode,
    /// DPU fault rate (scaled up, §V-c).
    pub lambda_dpu: f64,
    /// GPS permanent fault rate.
    pub lambda_gps: f64,
    /// Gyro permanent fault rate.
    pub lambda_gyro: f64,
    /// Battery permanent fault rate.
    pub lambda_battery: f64,
    /// Battery drain (energy units per hour; batteries start at 100).
    pub battery_drain: f64,
    /// DPU restart window start (after fault occurrence).
    pub repair_earliest: f64,
    /// Cool-down instant; restarts before it brick the DPU.
    pub cooldown: f64,
    /// DPU restart window end.
    pub repair_latest: f64,
    /// End of the boost phase (deterministic mission timing).
    pub boost_end: f64,
}

impl Default for LauncherParams {
    fn default() -> Self {
        LauncherParams {
            dpu_faults: DpuFaultMode::Recoverable,
            lambda_dpu: 0.3,
            lambda_gps: 0.02,
            lambda_gyro: 0.02,
            lambda_battery: 0.005,
            battery_drain: 2.0,
            repair_earliest: 0.2,
            cooldown: 0.25,
            repair_latest: 0.3,
            boost_end: 0.1,
        }
    }
}

/// Builds the launcher network.
///
/// Key variables: `failure` (the goal flag, a flow), `triplex_a.cmd`,
/// `triplex_b.cmd`, `nav.ok`, per-unit `*.ok` health flags.
///
/// # Panics
/// Panics if the internally constructed model fails validation — a bug,
/// covered by tests.
pub fn launcher_network(p: &LauncherParams) -> Network {
    let mut b = NetworkBuilder::new();

    // ---- power: two PCDUs with battery dynamics ------------------------
    let mut power_ok = Vec::new();
    for name in ["pcdu_a", "pcdu_b"] {
        let energy = b.var(format!("{name}.energy"), VarType::Continuous, Value::Real(100.0));
        let ok = b.var(format!("{name}.ok"), VarType::Bool, Value::Bool(true));
        power_ok.push(ok);
        // Battery dynamics: linear energy drain with an urgent depletion
        // transition at the invariant boundary. (Markovian transitions
        // may not share a location with guards or invariants in SLIM, so
        // the permanent battery fault lives in a sibling automaton.)
        let mut a = AutomatonBuilder::new(format!("{name}.battery"));
        let on = a.location_with(
            "on",
            Expr::var(energy).ge(Expr::real(0.0)),
            [(energy, -p.battery_drain)],
        );
        let empty = a.location("empty");
        a.guarded_urgent(
            on,
            ActionId::TAU,
            Expr::var(energy).le(Expr::real(0.0)),
            [Effect::assign(ok, Expr::bool(false))],
            empty,
        );
        b.add_automaton(a);
        // Permanent battery fault (§V-b: a single permanent failure mode).
        let mut f = AutomatonBuilder::new(format!("{name}.fault"));
        let nominal = f.location("ok");
        let dead = f.location("dead");
        f.markovian(nominal, p.lambda_battery, [Effect::assign(ok, Expr::bool(false))], dead);
        b.add_automaton(f);
    }

    // ---- navigation sensors -------------------------------------------
    let mut gps_ok = Vec::new();
    for name in ["gps1", "gps2"] {
        let ok = b.var(format!("{name}.ok"), VarType::Bool, Value::Bool(true));
        gps_ok.push(ok);
        let mut a = AutomatonBuilder::new(name);
        let acq = a.location("acquisition");
        let dead = a.location("failed");
        a.markovian(acq, p.lambda_gps, [Effect::assign(ok, Expr::bool(false))], dead);
        b.add_automaton(a);
    }
    let mut gyro_ok = Vec::new();
    for name in ["gyro1", "gyro2", "gyro3"] {
        let ok = b.var(format!("{name}.ok"), VarType::Bool, Value::Bool(true));
        gyro_ok.push(ok);
        let mut a = AutomatonBuilder::new(name);
        let run = a.location("running");
        let dead = a.location("failed");
        a.markovian(run, p.lambda_gyro, [Effect::assign(ok, Expr::bool(false))], dead);
        b.add_automaton(a);
    }

    // ---- DPU triplexes --------------------------------------------------
    let mut triplex_units: Vec<Vec<VarId>> = Vec::new();
    for triplex in ["triplex_a", "triplex_b"] {
        let mut units = Vec::new();
        for i in 0..3 {
            let name = format!("{triplex}.dpu{i}");
            let ok = b.var(format!("{name}.ok"), VarType::Bool, Value::Bool(true));
            units.push(ok);
            let mut a = AutomatonBuilder::new(name.clone());
            match p.dpu_faults {
                DpuFaultMode::Permanent => {
                    let run = a.location("ok");
                    let dead = a.location("permanent");
                    a.markovian(run, p.lambda_dpu, [Effect::assign(ok, Expr::bool(false))], dead);
                }
                DpuFaultMode::ThreeClass => {
                    // §V-c: transient (self-healing), hot (restartable)
                    // and permanent faults, rates split 70/25/5.
                    let c = b.var(format!("{name}.c"), VarType::Clock, Value::Real(0.0));
                    let run = a.location("ok");
                    let transient = a.location_with(
                        "transient",
                        Expr::var(c).le(Expr::real(p.repair_latest)),
                        [],
                    );
                    let hot =
                        a.location_with("hot", Expr::var(c).le(Expr::real(p.repair_latest)), []);
                    let bricked = a.location("permanent");
                    let fault_effects =
                        [Effect::assign(ok, Expr::bool(false)), Effect::assign(c, Expr::real(0.0))];
                    a.markovian(run, 0.70 * p.lambda_dpu, fault_effects.clone(), transient);
                    a.markovian(run, 0.25 * p.lambda_dpu, fault_effects.clone(), hot);
                    a.markovian(
                        run,
                        0.05 * p.lambda_dpu,
                        [Effect::assign(ok, Expr::bool(false))],
                        bricked,
                    );
                    // Transient faults self-heal anywhere in the window.
                    a.guarded(
                        transient,
                        ActionId::TAU,
                        Expr::var(c)
                            .ge(Expr::real(p.repair_earliest))
                            .and(Expr::var(c).le(Expr::real(p.repair_latest))),
                        [Effect::assign(ok, Expr::bool(true)), Effect::assign(c, Expr::real(0.0))],
                        run,
                    );
                    // Hot faults: restart too early bricks, later recovers.
                    a.guarded(
                        hot,
                        ActionId::TAU,
                        Expr::var(c)
                            .ge(Expr::real(p.repair_earliest))
                            .and(Expr::var(c).lt(Expr::real(p.cooldown))),
                        [],
                        bricked,
                    );
                    a.guarded(
                        hot,
                        ActionId::TAU,
                        Expr::var(c)
                            .ge(Expr::real(p.cooldown))
                            .and(Expr::var(c).le(Expr::real(p.repair_latest))),
                        [Effect::assign(ok, Expr::bool(true)), Effect::assign(c, Expr::real(0.0))],
                        run,
                    );
                }
                DpuFaultMode::Recoverable => {
                    let c = b.var(format!("{name}.c"), VarType::Clock, Value::Real(0.0));
                    let run = a.location("ok");
                    let hot =
                        a.location_with("hot", Expr::var(c).le(Expr::real(p.repair_latest)), []);
                    let bricked = a.location("permanent");
                    a.markovian(
                        run,
                        p.lambda_dpu,
                        [Effect::assign(ok, Expr::bool(false)), Effect::assign(c, Expr::real(0.0))],
                        hot,
                    );
                    // Restart too early (before cool-down): bricks.
                    a.guarded(
                        hot,
                        ActionId::TAU,
                        Expr::var(c)
                            .ge(Expr::real(p.repair_earliest))
                            .and(Expr::var(c).lt(Expr::real(p.cooldown))),
                        [],
                        bricked,
                    );
                    // Restart after cool-down: recovers.
                    a.guarded(
                        hot,
                        ActionId::TAU,
                        Expr::var(c)
                            .ge(Expr::real(p.cooldown))
                            .and(Expr::var(c).le(Expr::real(p.repair_latest))),
                        [Effect::assign(ok, Expr::bool(true))],
                        run,
                    );
                }
            }
            b.add_automaton(a);
        }
        triplex_units.push(units);
    }

    // ---- mission phases (deterministic timing) -------------------------
    let t = b.var("mission.t", VarType::Clock, Value::Real(0.0));
    let in_flight = b.var("mission.in_flight", VarType::Bool, Value::Bool(true));
    let mut mission = AutomatonBuilder::new("mission");
    let boost = mission.location_with("boost", Expr::var(t).le(Expr::real(p.boost_end)), []);
    let flight = mission.location("flight");
    mission.guarded_urgent(
        boost,
        ActionId::TAU,
        Expr::var(t).ge(Expr::real(p.boost_end)),
        [],
        flight,
    );
    b.add_automaton(mission);

    // ---- signal flows (Boolean health abstraction, §V-a) ---------------
    let nav = b.var("nav.ok", VarType::Bool, Value::Bool(true));
    let two_of_three = |u: &[VarId]| {
        Expr::var(u[0])
            .and(Expr::var(u[1]))
            .or(Expr::var(u[0]).and(Expr::var(u[2])))
            .or(Expr::var(u[1]).and(Expr::var(u[2])))
    };
    b.flow(nav, Expr::var(gps_ok[0]).or(Expr::var(gps_ok[1])).and(two_of_three(&gyro_ok)));
    let cmd_a = b.var("triplex_a.cmd", VarType::Bool, Value::Bool(true));
    let cmd_b = b.var("triplex_b.cmd", VarType::Bool, Value::Bool(true));
    b.flow(cmd_a, two_of_three(&triplex_units[0]).and(Expr::var(power_ok[0])).and(Expr::var(nav)));
    b.flow(cmd_b, two_of_three(&triplex_units[1]).and(Expr::var(power_ok[1])).and(Expr::var(nav)));
    // Thruster block: loss of control = no command from either triplex.
    let failure = b.var("failure", VarType::Bool, Value::Bool(false));
    b.flow(failure, Expr::var(cmd_a).not().and(Expr::var(cmd_b).not()).and(Expr::var(in_flight)));

    b.build().expect("launcher model is well-formed")
}

/// The goal variable name (`P(◇[0,u] failure)`, §V-d).
pub const FAILURE_VAR: &str = "failure";

#[cfg(test)]
mod tests {
    use super::*;
    use slim_stats::chernoff::Accuracy;
    use slimsim_core::prelude::*;

    fn goal(net: &Network) -> Goal {
        Goal::expr(Expr::var(net.var_id(FAILURE_VAR).unwrap()))
    }

    fn quick(strategy: StrategyKind, seed: u64) -> SimConfig {
        SimConfig::default()
            .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
            .with_strategy(strategy)
            .with_seed(seed)
    }

    #[test]
    fn architecture_shape() {
        let net = launcher_network(&LauncherParams::default());
        // 2 batteries + 2 depletion watchdogs + 2 gps + 3 gyros + 6 DPUs + mission = 16.
        assert_eq!(net.automata().len(), 16);
        assert!(net.var_id("triplex_a.dpu0.ok").is_some());
        assert!(net.var_id("nav.ok").is_some());
        assert!(net.var_id(FAILURE_VAR).is_some());
        let s0 = net.initial_state().unwrap();
        assert_eq!(s0.nu.get(net.var_id(FAILURE_VAR).unwrap()).unwrap(), Value::Bool(false));
        assert_eq!(s0.nu.get(net.var_id("triplex_a.cmd").unwrap()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn permanent_variant_strategy_invariant() {
        // Fig. 5 left: only probabilistic/deterministic transitions — all
        // strategies produce (statistically) the same probability.
        let p = LauncherParams { dpu_faults: DpuFaultMode::Permanent, ..Default::default() };
        let net = launcher_network(&p);
        let prop = TimedReach::new(goal(&net), 2.0);
        let mut probs = Vec::new();
        for kind in StrategyKind::ALL {
            let r = analyze(&net, &prop, &quick(kind, 1)).unwrap();
            probs.push(r.probability());
        }
        let min = probs.iter().cloned().fold(1.0, f64::min);
        let max = probs.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 0.08, "permanent variant diverges: {probs:?}");
        assert!(min > 0.0, "failures do occur at these rates");
    }

    #[test]
    fn recoverable_variant_strategy_ordering() {
        // Fig. 5 right: ASAP (always restarts too early) worst, MaxTime
        // (never too early) best, Progressive/Local in between.
        let p = LauncherParams { dpu_faults: DpuFaultMode::Recoverable, ..Default::default() };
        let net = launcher_network(&p);
        let prop = TimedReach::new(goal(&net), 3.0);
        let prob = |kind| analyze(&net, &prop, &quick(kind, 2)).unwrap().probability();
        let asap = prob(StrategyKind::Asap);
        let progressive = prob(StrategyKind::Progressive);
        let local = prob(StrategyKind::Local);
        let maxtime = prob(StrategyKind::MaxTime);
        assert!(asap > progressive + 0.02, "ASAP {asap} should exceed Progressive {progressive}");
        assert!(
            progressive > maxtime + 0.02,
            "Progressive {progressive} should exceed MaxTime {maxtime}"
        );
        assert!(
            local > maxtime && local < asap,
            "Local {local} should sit between MaxTime {maxtime} and ASAP {asap}"
        );
    }

    #[test]
    fn asap_recoverable_close_to_permanent() {
        // ASAP bricks every hot fault, so the recoverable variant under
        // ASAP behaves like the permanent variant.
        let rec = LauncherParams { dpu_faults: DpuFaultMode::Recoverable, ..Default::default() };
        let perm = LauncherParams { dpu_faults: DpuFaultMode::Permanent, ..Default::default() };
        let prop_for = |net: &Network| TimedReach::new(goal(net), 2.0);
        let nr = launcher_network(&rec);
        let np = launcher_network(&perm);
        let pr = analyze(&nr, &prop_for(&nr), &quick(StrategyKind::Asap, 3)).unwrap();
        let pp = analyze(&np, &prop_for(&np), &quick(StrategyKind::Asap, 3)).unwrap();
        assert!(
            (pr.probability() - pp.probability()).abs() < 0.08,
            "recoverable+ASAP {} vs permanent {}",
            pr.probability(),
            pp.probability()
        );
    }

    #[test]
    fn three_class_variant_sits_between() {
        // Transient faults dominate and self-heal, so the three-class
        // variant fails less often than pure-permanent under any strategy,
        // and the ASAP-vs-MaxTime ordering still holds (hot faults brick
        // under ASAP).
        let p3 = LauncherParams { dpu_faults: DpuFaultMode::ThreeClass, ..Default::default() };
        let pp = LauncherParams { dpu_faults: DpuFaultMode::Permanent, ..Default::default() };
        let n3 = launcher_network(&p3);
        let np = launcher_network(&pp);
        let prop3 = TimedReach::new(goal(&n3), 3.0);
        let propp = TimedReach::new(goal(&np), 3.0);
        let asap3 = analyze(&n3, &prop3, &quick(StrategyKind::Asap, 4)).unwrap().probability();
        let asapp = analyze(&np, &propp, &quick(StrategyKind::Asap, 4)).unwrap().probability();
        let max3 = analyze(&n3, &prop3, &quick(StrategyKind::MaxTime, 4)).unwrap().probability();
        assert!(asap3 < asapp, "self-healing transients lower failure: {asap3} !< {asapp}");
        assert!(max3 < asap3, "MaxTime still beats ASAP: {max3} !< {asap3}");
    }

    #[test]
    fn mission_phase_changes_deterministically() {
        let net = launcher_network(&LauncherParams::default());
        let prop = TimedReach::new(Goal::in_location(&net, "mission", "flight").unwrap(), 1.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        for kind in StrategyKind::ALL {
            let mut rng = slim_stats::rng::StdRng::seed_from_u64(5);
            let out = gen
                .generate_with(&mut SimScratch::new(), kind.instantiate().as_mut(), &mut rng)
                .unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied, "{kind}");
            assert!((out.end_time - 0.1).abs() < 1e-9, "{kind} boosts until {}", out.end_time);
        }
    }

    #[test]
    fn battery_depletion_fails_system_eventually() {
        // Rapid drain, negligible fault rates: both batteries deplete at
        // a deterministic instant and the system fails.
        let p = LauncherParams {
            dpu_faults: DpuFaultMode::Permanent,
            lambda_dpu: 1e-9,
            lambda_gps: 1e-9,
            lambda_gyro: 1e-9,
            lambda_battery: 1e-9,
            battery_drain: 100.0, // empty at t = 1
            ..Default::default()
        };
        let net = launcher_network(&p);
        let prop = TimedReach::new(goal(&net), 2.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        let mut rng = slim_stats::rng::StdRng::seed_from_u64(9);
        let out = gen.generate_with(&mut SimScratch::new(), &mut Asap, &mut rng).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 1.0).abs() < 1e-6, "depletion at {}", out.end_time);
    }
}
