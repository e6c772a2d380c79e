//! The traced run's work counts repeat exactly: two traced runs at one
//! seed agree on `core.paths`, `core.steps` and every `kernel.*` count.

use slimsim_pipeline_bench::traced::per_layer;
use slimsim_pipeline_bench::workload::{Inputs, WORKLOADS};
use std::path::Path;

const EXAMPLES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/models");

fn is_count(name: &str) -> bool {
    name == "core.paths" || name == "core.steps" || name.starts_with("kernel.")
}

#[test]
fn traced_counts_repeat_at_one_seed() {
    let inputs = Inputs::load(Path::new(EXAMPLES_DIR)).expect("inputs load");
    for workload in WORKLOADS {
        let runs: Vec<_> =
            (0..2).map(|_| per_layer(&inputs, workload, 7, 0.1).expect("traced run")).collect();
        for run in &runs {
            assert_eq!(run.failed, 0, "{workload}: {:?}", run.failures);
        }
        let counts = |i: usize| -> Vec<(String, u64)> {
            runs[i]
                .metrics
                .iter()
                .filter(|m| is_count(&m.name))
                .map(|m| (m.name.clone(), m.value.to_bits()))
                .collect()
        };
        assert_eq!(counts(0).len(), 6, "{workload}: paths, steps and four kernel counts");
        assert_eq!(counts(0), counts(1), "{workload}: counts differ between traced runs");
        assert!(runs[0].get("core.steps").unwrap_or(0.0) > 0.0, "{workload}: nothing sampled");
    }
}
