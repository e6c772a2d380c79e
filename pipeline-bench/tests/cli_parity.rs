//! The in-process pipeline is the user's path: for one analysis per
//! workload, its estimate equals what the `slimsim analyze` binary
//! prints at the same seed and worker count.
//!
//! The binary is built from the repository into this test's scratch
//! directory, unless `SLIMSIM_BIN` names one already built.

use slim_obs::Json;
use slimsim_pipeline_bench::pipeline::{analyze, prepare, NoSpans};
use slimsim_pipeline_bench::workload::{Inputs, Source, Spec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXAMPLES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/models");
const SCRATCH: &str = env!("CARGO_TARGET_TMPDIR");

fn slimsim_bin() -> PathBuf {
    if let Some(bin) = std::env::var_os("SLIMSIM_BIN") {
        return bin.into();
    }
    let target = Path::new(SCRATCH).join("cli");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "-p", "slimsim-cli"])
        .args(["--manifest-path", concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")])
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building slimsim-cli failed");
    target.join("release").join("slimsim")
}

/// The `slimsim analyze` arguments equivalent to `spec`.
fn cli_args(spec: &Spec) -> Vec<String> {
    let mut args = vec!["analyze".to_string()];
    match &spec.source {
        Source::SensorFilter(n) => {
            args.extend(["sensor-filter".into(), "--size".into(), n.to_string()])
        }
        Source::Launcher { permanent } => {
            args.push(if *permanent { "launcher-permanent" } else { "launcher" }.into());
        }
        Source::Slim { name, text, ty, im } => {
            let path = Path::new(SCRATCH).join(name);
            std::fs::write(&path, text.as_bytes()).expect("write model");
            args.extend([path.display().to_string(), "--root".into(), format!("{ty}.{im}")]);
        }
    }
    for (k, v) in [
        ("--bound", spec.bound.to_string()),
        ("--goal-var", spec.goal_var.clone()),
        ("--strategy", spec.strategy.to_string()),
        ("--epsilon", spec.epsilon.to_string()),
        ("--delta", "0.05".to_string()),
        ("--seed", spec.seed.to_string()),
        ("--workers", spec.workers.to_string()),
    ] {
        args.extend([k.to_string(), v]);
    }
    if spec.prune {
        args.push("--prune".into());
    }
    args
}

/// One analysis per workload; `slim-screen` contributes a generated
/// sensor–filter model and the committed model that actually prunes.
fn parity_specs(inputs: &Inputs) -> Vec<Spec> {
    let mut picked = Vec::new();
    for workload in WORKLOADS {
        let specs = inputs.pass(workload, 20_251_017, 0).expect("known workload");
        let wanted: &[&str] = match workload {
            "launcher-fig5" => &["launcher/max-time"],
            "slim-screen" => &["sensor-filter-6.slim/u=2", "prunable.slim/u=1"],
            _ => &[],
        };
        if wanted.is_empty() {
            picked.push(specs[0].clone());
        }
        for label in wanted {
            let spec = specs.iter().find(|s| s.label == *label).expect("label exists");
            picked.push(spec.clone());
        }
    }
    picked
}

#[test]
fn in_process_estimate_matches_cli() {
    let bin = slimsim_bin();
    let inputs = Inputs::load(Path::new(EXAMPLES_DIR)).expect("inputs load");
    for (i, spec) in parity_specs(&inputs).iter().enumerate() {
        let expected = analyze(&prepare(spec, &mut NoSpans).expect("prepare")).expect("analyze");
        assert!(expected.estimate.samples > 0, "{}: parity needs a sampled answer", spec.label);

        let report = Path::new(SCRATCH).join(format!("parity-{i}.json"));
        let output = Command::new(&bin)
            .args(cli_args(spec))
            .arg("--report")
            .arg(&report)
            .output()
            .expect("slimsim runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{}: {stdout}", spec.label);

        // The printed estimate line, and the exact figures of the report.
        let printed = stdout.lines().last().unwrap_or_default();
        assert_eq!(printed, expected.estimate.to_string(), "{}", spec.label);
        // Read the estimate fields directly: `RunReport::from_json`
        // refuses seeds above 2^53, which the derived seeds exceed.
        let text = std::fs::read_to_string(&report).expect("report written");
        let json = Json::parse(&text).expect("report parses");
        let field = |k: &str| json.get("estimate").and_then(|e| e.get(k)).expect("estimate field");
        let mean = field("mean").as_f64().expect("mean");
        assert_eq!(mean.to_bits(), expected.estimate.mean.to_bits(), "{}", spec.label);
        assert_eq!(field("samples").as_u64(), Some(expected.estimate.samples), "{}", spec.label);
        assert_eq!(
            field("successes").as_u64(),
            Some(expected.estimate.successes),
            "{}",
            spec.label
        );
        let workers = json.get("config").and_then(|c| c.get("workers")).and_then(Json::as_u64);
        assert_eq!(workers, Some(spec.workers as u64), "{}", spec.label);
    }
}
