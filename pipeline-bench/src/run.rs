//! The end-to-end run: whole passes of a workload through the user's
//! path with tracing off, in a closed loop (one analysis at a time).

use crate::host::{nproc, peak_rss_mb, process_cpu, HostSample};
use crate::pipeline::{analyze, prepare, NoSpans};
use crate::reference::Checker;
use crate::workload::Inputs;
use crate::{median, quantile, Outcome};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Passes a run makes at least, however long they take.
pub const MIN_PASSES: usize = 3;

/// Set-up samples a run aims for; passes short of it are topped up
/// with set-up-only repetitions of the first pass, for at most a tenth
/// of the run's measured time.
pub const SETUP_SAMPLES: usize = 51;

/// Runs passes of `workload` for about `seconds` of measured time and
/// reports the end-to-end metrics:
///
/// * `wall_s`, `cpu_s`: wall time and process CPU time per pass, the
///   run's totals divided by its number of passes;
/// * `setup_s`: median over passes of the time spent in the calls
///   before `analyze`;
/// * `analysis_ms_p50`, `analysis_ms_p95`: quantiles of per-analysis
///   latency (load through estimate) across the workload's distinct
///   analyses, each analysis counted once at its mean over the run;
/// * `peak_rss_mb`: peak resident memory of the process.
///
/// Means rather than medians over passes: the host alternates between
/// fast and slow phases lasting seconds to minutes, and a median lands
/// in whichever phase held most of the run, while a mean weighs them by
/// time. Answers are checked after each pass, outside the timed span.
///
/// # Errors
/// On an unknown workload.
pub fn end_to_end(
    inputs: &Inputs,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checker = Checker::default();
    let host0 = HostSample::now();
    let (mut wall_total, mut cpu_total, mut setups) = (0.0, 0.0, Vec::new());
    // Per distinct analysis: (Σ latency in ms, count).
    let mut latencies: BTreeMap<String, (f64, u32)> = BTreeMap::new();
    let mut passes = 0;
    // Go on while one more pass of average length fits in `seconds`.
    while passes < MIN_PASSES || wall_total + wall_total / passes as f64 <= seconds {
        let specs = inputs.pass(workload, seed, passes as u64)?;
        let mut results = Vec::with_capacity(specs.len());
        let mut setup = Duration::ZERO;
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        for spec in &specs {
            let a0 = Instant::now();
            let prep = prepare(spec, &mut NoSpans);
            let a1 = Instant::now();
            results.push(prep.and_then(|p| analyze(&p)));
            setup += a1 - a0;
            let lat = latencies.entry(spec.label.clone()).or_default();
            lat.0 += a0.elapsed().as_secs_f64() * 1e3;
            lat.1 += 1;
        }
        wall_total += t0.elapsed().as_secs_f64();
        cpu_total += (process_cpu() - cpu0).as_secs_f64();
        setups.push(setup.as_secs_f64());
        passes += 1;
        for miss in checker.check_pass(&specs, &results) {
            out.record(miss);
        }
    }
    let specs = inputs.pass(workload, seed, 0)?;
    let t_topup = Instant::now();
    while setups.len() < SETUP_SAMPLES && t_topup.elapsed().as_secs_f64() < 0.1 * wall_total {
        let t0 = Instant::now();
        for spec in &specs {
            std::hint::black_box(prepare(spec, &mut NoSpans).ok());
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let per_analysis: Vec<f64> = latencies.values().map(|&(sum, n)| sum / f64::from(n)).collect();
    let (steal_ms, runq_wait_ms) = HostSample::now().since(&host0);
    println!(
        "host: nproc={} steal_ms={steal_ms} runq_wait_ms={runq_wait_ms}; passes={} \
         analyses={} distinct={} setup_samples={}",
        nproc(),
        passes,
        latencies.values().map(|&(_, n)| n).sum::<u32>(),
        per_analysis.len(),
        setups.len(),
    );

    out.push("wall_s", wall_total / passes as f64, "s");
    out.push("cpu_s", cpu_total / passes as f64, "s");
    out.push("setup_s", median(&setups), "s");
    out.push("analysis_ms_p50", median(&per_analysis), "ms");
    out.push("analysis_ms_p95", quantile(&per_analysis, 0.95), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(out)
}
