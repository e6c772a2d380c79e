//! Proves the simulator's zero-allocation steady-state contract.
//!
//! ```text
//! cargo run -p slimsim-bench --release --bin alloc_check
//! ```
//!
//! For each model the check builds a [`PathGenerator`] and one
//! [`SimScratch`], runs warm-up paths so every pooled buffer reaches its
//! steady-state capacity, resets the global allocation counter, runs the
//! measured paths, and requires the counter delta to be **exactly zero**.
//! Any regression that sneaks an allocation into the hot loop — a
//! `clone`, a `Vec` literal, a formatted error on the happy path — fails
//! the process with a nonzero exit code, which CI treats as a hard error.

use slim_automata::prelude::{Expr, Network};
use slim_models::{
    gps_network, repair_network, sensor_filter_network, voting_network, GpsParams, RepairParams,
    SensorFilterParams, VotingParams,
};
use slim_stats::rng::path_rng;
use slimsim_bench::alloc::{self, CountingAllocator};
use slimsim_core::prelude::*;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const WARM_PATHS: u64 = 512;
const MEASURED_PATHS: u64 = 512;

struct Case {
    name: &'static str,
    net: Network,
    goal_var: &'static str,
    bound: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "sensor_filter",
            net: sensor_filter_network(&SensorFilterParams::default()),
            goal_var: slim_models::GOAL_VAR,
            bound: 1.0,
        },
        // Large enough that incremental enabling skips most guard scans
        // and patches the Markovian list in place on most steps.
        Case {
            name: "sensor_filter_14",
            net: sensor_filter_network(&SensorFilterParams {
                redundancy: 14,
                ..SensorFilterParams::default()
            }),
            goal_var: slim_models::GOAL_VAR,
            bound: 2.0,
        },
        Case {
            name: "voting",
            net: voting_network(&VotingParams::default()),
            goal_var: slim_models::VOTING_GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "repair",
            net: repair_network(&RepairParams::default()),
            goal_var: slim_models::REPAIR_GOAL_VAR,
            bound: 2.0,
        },
        Case {
            name: "gps",
            net: gps_network(&GpsParams::default()),
            goal_var: "gps.measurement",
            bound: 10.0,
        },
    ]
}

fn main() {
    let mut failures = 0usize;
    let mut gated = 0usize;
    for case in cases() {
        let goal = Goal::expr(Expr::var(case.net.var_id(case.goal_var).expect("goal variable")));
        let property = TimedReach::new(goal, case.bound);
        let gen = PathGenerator::new(&case.net, &property, 100_000);
        // Every well-typed guard compiles to solver bytecode; any AST
        // fallback in a zoo model is a compiler regression and fails the
        // gate outright.
        let fallbacks = gen.tables().fallback_guards();
        let mut strategy = Asap;
        let mut scratch = SimScratch::new();

        for i in 0..WARM_PATHS {
            let mut rng = path_rng(1, i);
            black_box(gen.generate_with(&mut scratch, &mut strategy, &mut rng).unwrap());
        }

        alloc::reset();
        let mut steps = 0u64;
        for i in WARM_PATHS..WARM_PATHS + MEASURED_PATHS {
            let mut rng = path_rng(1, i);
            let out = gen.generate_with(&mut scratch, &mut strategy, &mut rng).unwrap();
            steps += out.steps;
            black_box(out);
        }
        let (calls, bytes) = alloc::counts();

        let verdict = if fallbacks > 0 {
            failures += 1;
            format!("FAIL ({fallbacks} AST-fallback guards)")
        } else if calls == 0 {
            gated += 1;
            "OK".to_string()
        } else {
            failures += 1;
            "FAIL".to_string()
        };
        println!(
            "{:>16}: {MEASURED_PATHS} paths, {steps} steps — {calls} allocations \
             ({bytes} bytes) [{verdict}]",
            case.name
        );
    }

    if failures > 0 {
        eprintln!("alloc_check: {failures} model(s) allocated in the steady-state hot path");
        std::process::exit(1);
    }
    if gated == 0 {
        eprintln!("alloc_check: no fully-compiled model exercised the zero-allocation gate");
        std::process::exit(1);
    }
    println!("alloc_check: steady-state hot path is allocation-free ({gated} model(s) gated)");
}
