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

/// `examples/models/heartbeat.slim` with the guard of its `check → alert`
/// transition (line 22, column 19) replaced by `guard`, written to a
/// scratch file; returns its path.
fn heartbeat_with_guard(name: &str, guard: &str) -> String {
    let src = include_str!("../../../examples/models/heartbeat.slim");
    let old = "check -[ when beats >= 3 then";
    assert!(src.contains(old), "heartbeat.slim changed shape");
    let path = format!("{}/{name}.slim", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, src.replace(old, &format!("check -[ when {guard} then"))).unwrap();
    path
}

#[test]
fn deeply_nested_expressions_are_parse_errors() {
    let n = 50_000;
    let shapes = [
        ("nested-parens", format!("{}beats >= 3{}", "(".repeat(n), ")".repeat(n))),
        ("prefix-nots", format!("{}(beats >= 3)", "not ".repeat(n))),
        ("sum-chain", format!("{} >= 3", vec!["beats"; n].join(" + "))),
    ];
    for (name, guard) in shapes {
        let path = heartbeat_with_guard(name, &guard);
        let (code, stderr) = slimsim(&format!("lint {path} --root Monitor.Main"));
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {path}:22:")), "{name}: {stderr}");
        assert!(stderr.contains("nested more than"), "{name}: {stderr}");
        assert!(!stderr.contains("overflow"), "{name}: {stderr}");
    }
}

#[test]
fn expressions_just_under_the_depth_cap_run() {
    // A 128-operand sum nests 127 levels, one under the parser's cap: a
    // tree about as deep as the parser accepts, walked by every later
    // pass.
    let guard = format!("{} >= 3", vec!["beats"; 128].join(" + "));
    let path = heartbeat_with_guard("sum-chain-128", &guard);
    let (code, stderr) = slimsim(&format!("lint {path} --root Monitor.Main --deny-lints"));
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = slimsim(&format!(
        "analyze {path} --root Monitor.Main --bound 2.0 --goal-var root.alarm \
         --epsilon 0.2 --delta 0.2 --quiet"
    ));
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn lowering_errors_point_at_the_declaration() {
    let path = heartbeat_with_guard("unknown-name", "nosuchvar >= 3");
    let (code, stderr) = slimsim(&format!("lint {path} --root Monitor.Main"));
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some(
            format!("error: {path}:22:5: unknown name `nosuchvar` (resolved `root.nosuchvar`)")
                .as_str()
        ),
        "{stderr}"
    );
}
