//! `slimsim report` keeps validating documents written before profile
//! schema 2 dropped the batch-lane section: a version 1 kernel profile,
//! and a version 4 run report that embeds one next to `batch.*` metrics.

use std::process::Command;

/// Runs `slimsim report` on a committed fixture, returning the exit code
/// and stdout.
fn report(fixture: &str) -> (Option<i32>, String) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_slimsim"))
        .args(["report", &path])
        .output()
        .expect("slimsim runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.is_empty(), "{fixture}: {stderr}");
    (output.status.code(), String::from_utf8_lossy(&output.stdout).into_owned())
}

#[test]
fn version_one_profile_validates() {
    let (code, stdout) = report("profile-v1.json");
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("valid kernel profile (schema v1)"), "{stdout}");
}

#[test]
fn run_report_with_version_one_profile_and_batch_metrics_validates() {
    let (code, stdout) = report("run-report-v4-profile-v1.json");
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("valid run report (schema v4)"), "{stdout}");
    assert!(stdout.contains("embedded kernel profile (schema v1)"), "{stdout}");
}
