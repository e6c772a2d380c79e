//! `slimsim-pipeline-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use slimsim_pipeline_bench::workload::Inputs;
use slimsim_pipeline_bench::{run, traced};
use std::path::Path;
use std::process::ExitCode;

/// Committed example models, read by the `slim-screen` workload.
const EXAMPLES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/models");

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{key} {value}: {e}");
        match key.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option `{key}`")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|o| {
        let inputs = Inputs::load(Path::new(EXAMPLES_DIR))?;
        if o.trace {
            traced::per_layer(&inputs, &o.workload, o.seed, o.seconds)
        } else {
            run::end_to_end(&inputs, &o.workload, o.seed, o.seconds)
        }
    });
    match result {
        Ok(outcome) => {
            for reason in &outcome.failures {
                eprintln!("failed: {reason}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
