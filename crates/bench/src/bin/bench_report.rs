//! Emits the machine-readable simulator bench artifact
//! (`BENCH_simulator.json`) used to track throughput across commits.
//!
//! ```text
//! cargo run -p slimsim-bench --release --bin bench_report \
//!     [-- <out-dir> [--workers N] [--repeat K]]
//! ```
//!
//! `--workers N` pins the worker-thread count (default: available
//! parallelism capped at 4). The committed baseline is recorded at
//! `--workers 1` so throughput deltas measure per-core work, not the
//! host's core count. `--repeat K` (default 1) runs each model's timed
//! pass `K` times and records the **median** pass (by wall time): each
//! pass takes only a few milliseconds, so on shared hosts a single pass
//! measures scheduler luck as much as the simulator. The median is
//! robust against a slow scheduler window in either direction — unlike
//! best-of-`K`, one anomalously *fast* pass cannot skew the artifact —
//! and the per-pass spread is recorded alongside
//! (`<model>.paths_per_sec_min` / `_max`) so `bench_compare` can report
//! how noisy the host was.
//!
//! Runs the instrumented simulator on the three untimed conformance
//! models (sensor–filter, voting, repairable pair) plus the timed GPS
//! model, and records per-model throughput, sample counts and estimates
//! through a [`slim_obs::BenchReport`]. The artifact lands in `<out-dir>`
//! (default: the current directory).

use slim_models::{
    gps_network, repair_network, sensor_filter_network, voting_network, GpsParams, RepairParams,
    SensorFilterParams, VotingParams,
};
use slim_obs::BenchReport;
use slim_stats::Accuracy;
use slimsim_core::prelude::*;

struct Case {
    name: &'static str,
    net: slim_automata::prelude::Network,
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
    let mut out_dir = ".".to_string();
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
    let mut repeat = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workers" || arg == "--repeat" {
            let n = args.next().and_then(|v| v.parse::<usize>().ok());
            match n {
                Some(n) if n >= 1 => {
                    if arg == "--workers" {
                        workers = n;
                    } else {
                        repeat = n;
                    }
                }
                _ => {
                    eprintln!("bench_report: {arg} expects a positive integer");
                    std::process::exit(2);
                }
            }
        } else {
            out_dir = arg;
        }
    }
    let config = SimConfig::default()
        .with_accuracy(Accuracy::new(0.02, 0.05).expect("valid accuracy"))
        .with_strategy(StrategyKind::Asap)
        .with_workers(workers);

    let mut report = BenchReport::new("simulator");
    report.push("config.epsilon", config.accuracy.epsilon(), "1");
    report.push("config.delta", config.accuracy.delta(), "1");
    report.push("config.workers", config.workers as f64, "threads");
    report.push("config.repeat", repeat as f64, "passes");

    for case in cases() {
        let goal =
            Goal::expr(slim_automata::prelude::Expr::var(case.net.var_id(case.goal_var).unwrap()));
        let property = TimedReach::new(goal, case.bound);
        // Untimed warm-up pass: faults in the binary's pages, grows the
        // per-worker scratch to steady-state capacity and settles branch
        // predictors, so the timed pass below measures sustained
        // throughput rather than process cold-start.
        analyze_observed(&case.net, &property, &config, None).expect("bench warm-up succeeds");
        // Median-of-`repeat`: run every timed pass, keep the pass with
        // the median wall time (lower median for even `K`). The passes
        // are identical work — same seed, same sample count — so the
        // spread between them is host noise; the median is what CI
        // should compare, and the min/max entries record the spread.
        let mut passes: Vec<(AnalysisResult, SimObserver)> = Vec::with_capacity(repeat);
        for _ in 0..repeat {
            let obs = SimObserver::new(config.workers);
            let result = analyze_observed(&case.net, &property, &config, Some(&obs))
                .expect("bench analysis succeeds");
            passes.push((result, obs));
        }
        passes.sort_by_key(|(a, _)| a.wall);
        let pps = |r: &AnalysisResult| {
            let secs = r.wall.as_secs_f64();
            if secs > 0.0 {
                r.estimate.samples as f64 / secs
            } else {
                0.0
            }
        };
        // Fastest pass = max paths/s; slowest = min.
        let pps_max = pps(&passes.first().expect("repeat >= 1").0);
        let pps_min = pps(&passes.last().expect("repeat >= 1").0);
        let (result, obs) = passes.remove((passes.len() - 1) / 2);
        let wall_secs = result.wall.as_secs_f64();
        let samples = result.estimate.samples;
        let prefix = case.name;
        report.push(format!("{prefix}.paths"), samples as f64, "paths");
        report.push(format!("{prefix}.wall_ms"), wall_secs * 1e3, "ms");
        report.push(format!("{prefix}.paths_per_sec"), pps(&result), "paths/s");
        report.push(format!("{prefix}.paths_per_sec_min"), pps_min, "paths/s");
        report.push(format!("{prefix}.paths_per_sec_max"), pps_max, "paths/s");
        report.push(format!("{prefix}.probability"), result.estimate.mean, "1");
        report.push(format!("{prefix}.mean_steps_per_path"), result.stats.mean_steps(), "steps");
        report.push(
            format!("{prefix}.approx_memory_kib"),
            result.approx_memory_bytes as f64 / 1024.0,
            "KiB",
        );
        let snap = obs.snapshot();
        report.push(
            format!("{prefix}.path_micros_p99"),
            snap.histograms["sim.path_micros"].p99,
            "us",
        );
        eprintln!(
            "{prefix:>14}: {samples} paths in {:.1} ms ({:.0} paths/s median, \
             spread {:.0}..{:.0} over {repeat} pass(es)), P = {:.5}",
            wall_secs * 1e3,
            samples as f64 / wall_secs.max(1e-9),
            pps_min,
            pps_max,
            result.estimate.mean,
        );
    }

    let path = std::path::Path::new(&out_dir).join(report.filename());
    std::fs::write(&path, report.to_json().to_pretty() + "\n").expect("write bench artifact");
    eprintln!("wrote {}", path.display());
}
