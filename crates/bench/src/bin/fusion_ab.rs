//! In-process A/B: the optimized kernel vs `CompileOptions::reference()`.
//!
//! The reference arm runs without superinstruction fusion, whole-program
//! specialization, flow masking and incremental enabling, so each row
//! shows the whole gain of the optimizing tiers on that model.
//!
//! Cross-invocation throughput on shared hosts drifts by up to ~1.7×,
//! which swamps any real kernel delta when two `bench_report` artifacts
//! are compared. This harness removes the host from the comparison: it
//! compiles both kernels for each zoo model, interleaves timed rounds of
//! identical path batches (same per-path RNG streams) between them so
//! scheduler noise hits both sides equally, and reports the per-model
//! median speedup. Use this — not artifact diffs — to judge whether a
//! kernel change actually pays.

use slim_automata::prelude::{CompileOptions, Expr};
use slim_models::{
    gps_network, repair_network, sensor_filter_network, voting_network, GpsParams, RepairParams,
    SensorFilterParams, VotingParams,
};
use slim_stats::rng::path_rng;
use slimsim_core::prelude::*;
use std::time::Instant;

fn main() {
    // (name, network, goal variable, bound, paths per round)
    let cases: Vec<(&str, slim_automata::prelude::Network, &str, f64, u64)> = vec![
        (
            "sensor_filter",
            sensor_filter_network(&SensorFilterParams::default()),
            slim_models::GOAL_VAR,
            1.0,
            20_000,
        ),
        (
            "sensor_filter_14",
            sensor_filter_network(&SensorFilterParams {
                redundancy: 14,
                ..SensorFilterParams::default()
            }),
            slim_models::GOAL_VAR,
            2.0,
            2_000,
        ),
        (
            "voting",
            voting_network(&VotingParams::default()),
            slim_models::VOTING_GOAL_VAR,
            1.0,
            20_000,
        ),
        (
            "repair",
            repair_network(&RepairParams::default()),
            slim_models::REPAIR_GOAL_VAR,
            2.0,
            20_000,
        ),
        ("gps", gps_network(&GpsParams::default()), "gps.measurement", 10.0, 20_000),
    ];
    const ROUNDS: usize = 7;
    for &(name, ref net, goal_var, bound, paths) in &cases {
        let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
        let prop = TimedReach::new(goal, bound);
        let fused = PathGenerator::new(net, &prop, 100_000);
        let reference =
            PathGenerator::with_compile_options(net, &prop, 100_000, &CompileOptions::reference());
        let mut scratch = SimScratch::new();
        let mut strategy = Asap;
        let run = |gen: &PathGenerator, scratch: &mut SimScratch, strategy: &mut Asap| {
            let start = Instant::now();
            let mut steps = 0u64;
            for i in 0..paths {
                let mut rng = path_rng(7, i);
                steps += gen.generate_with(scratch, strategy, &mut rng).unwrap().steps;
            }
            (start.elapsed().as_secs_f64(), steps)
        };
        // Warm both.
        run(&fused, &mut scratch, &mut strategy);
        run(&reference, &mut scratch, &mut strategy);
        let mut fused_t = Vec::new();
        let mut ref_t = Vec::new();
        let mut steps = 0;
        // Interleave rounds so host-noise drift hits both sides equally.
        // Both arms generate the same paths, so their step counts agree.
        for _ in 0..ROUNDS {
            let (t, s) = run(&fused, &mut scratch, &mut strategy);
            fused_t.push(t);
            steps = s;
            ref_t.push(run(&reference, &mut scratch, &mut strategy).0);
        }
        fused_t.sort_by(f64::total_cmp);
        ref_t.sort_by(f64::total_cmp);
        let f = fused_t[ROUNDS / 2];
        let r = ref_t[ROUNDS / 2];
        println!(
            "{name:>16}: fused {:>9.0} paths/s {:>6.0} ns/step | reference {:>9.0} paths/s \
             {:>6.0} ns/step | speedup {:.3}x",
            paths as f64 / f,
            f * 1e9 / steps as f64,
            paths as f64 / r,
            r * 1e9 / steps as f64,
            r / f,
        );
    }
}
