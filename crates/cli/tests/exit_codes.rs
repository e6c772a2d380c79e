//! The `slimsim` binary's exit contract on bad input: a diagnostic on
//! stderr and exit code 1, never a panic.

use std::process::Command;

/// Runs `slimsim` with `args`, returning the exit code and stderr.
fn slimsim(args: &str) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_slimsim"))
        .args(args.split_whitespace())
        .output()
        .expect("slimsim runs");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn sensor_filter_size_zero_is_rejected() {
    for command in ["analyze", "ctmc", "info"] {
        let (code, stderr) = slimsim(&format!("{command} sensor-filter --size 0 --bound 1.0"));
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert!(stderr.starts_with("error: --size must be at least 1"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
}

#[test]
fn sensor_filter_size_one_runs() {
    let (code, stderr) =
        slimsim("analyze sensor-filter --size 1 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet");
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn rare_rejects_invalid_numbers() {
    for bad in ["--boost 0", "--boost -1", "--boost nan", "--rel-err 0", "--delta 0"] {
        let (code, stderr) = slimsim(&format!("rare voting --bound 1.0 {bad}"));
        assert_eq!(code, Some(1), "{bad}: {stderr}");
        assert!(stderr.starts_with("error: invalid input: "), "{bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad}: {stderr}");
    }
}
