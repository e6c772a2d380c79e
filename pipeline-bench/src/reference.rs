//! Reference checks: every answer is compared with something known to
//! be right, and a miss counts as a failed analysis.

use crate::pipeline::{analyze, prepare, NoSpans};
use crate::workload::{Check, Spec};
use slim_stats::Estimate;
use slimsim_core::prelude::{AnalysisResult, PreVerdict};
use std::collections::HashMap;

/// False-alarm probability of [`consistent`] per analysis.
pub const FALSE_ALARM: f64 = 1e-9;

/// Whether an estimate of `samples` Bernoulli draws is consistent with
/// the exact probability `p`.
///
/// The test is the two-sided Chernoff bound in relative-entropy form,
/// `P(n·KL(p̂ ‖ p) ≥ c) ≤ 2·e^(−c)`, at `c = ln(2 / FALSE_ALARM)`. It
/// holds for every `p`, unlike the `(ε, δ)` guarantee, which a correct
/// simulator still misses with probability up to δ.
pub fn consistent(p: f64, est: &Estimate) -> bool {
    let n = est.samples as f64;
    let q = est.mean;
    if n == 0.0 || p <= 0.0 || p >= 1.0 {
        return q == p;
    }
    let term = |a: f64, b: f64| if a == 0.0 { 0.0 } else { a * (a / b).ln() };
    let kl = term(q, p) + term(1.0 - q, 1.0 - p);
    n * kl <= (2.0 / FALSE_ALARM).ln()
}

/// Whether two estimates are the same bit for bit.
pub fn identical(a: &Estimate, b: &Estimate) -> bool {
    a.mean.to_bits() == b.mean.to_bits() && a.samples == b.samples && a.successes == b.successes
}

/// Runs reference analyses and remembers the last answer per analysis,
/// so passes that repeat an analysis at one seed pay for its reference
/// once, and memory stays bounded by the number of distinct analyses.
#[derive(Debug, Default)]
pub struct Checker {
    /// By `label|workers|prune`: the seed and the answer.
    cache: HashMap<String, (u64, Result<Estimate, String>)>,
}

impl Checker {
    /// Checks one pass: `results[i]` answers `specs[i]`. Returns one
    /// entry per analysis, `Some(reason)` for a miss.
    pub fn check_pass(
        &mut self,
        specs: &[Spec],
        results: &[Result<AnalysisResult, String>],
    ) -> Vec<Option<String>> {
        let mut misses: Vec<Option<String>> = specs
            .iter()
            .zip(results)
            .map(|(spec, res)| match res {
                Err(e) => Some(format!("{}: {e}", spec.label)),
                Ok(r) => self.check_one(spec, r).err().map(|e| format!("{}: {e}", spec.label)),
            })
            .collect();

        // Agreement: every analysis carrying the check within 2ε of
        // every other.
        let members: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].checks.contains(&Check::StrategiesAgree))
            .collect();
        let means: Vec<f64> = members
            .iter()
            .filter_map(|&i| results[i].as_ref().ok())
            .map(|r| r.probability())
            .collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &i in &members {
            let tol = 2.0 * specs[i].epsilon;
            if misses[i].is_none() && hi - lo > tol {
                misses[i] = Some(format!(
                    "{}: strategy estimates span {lo}..{hi}, more than 2ε = {tol}",
                    specs[i].label
                ));
            }
        }
        misses
    }

    fn check_one(&mut self, spec: &Spec, r: &AnalysisResult) -> Result<(), String> {
        let est = &r.estimate;
        if !(0.0..=1.0).contains(&est.mean) {
            return Err(format!("estimate {} outside [0, 1]", est.mean));
        }
        for check in &spec.checks {
            match *check {
                Check::Exact(p) => {
                    if !consistent(p, est) {
                        return Err(format!(
                            "estimate {} over {} samples is inconsistent with exact {p}",
                            est.mean, est.samples
                        ));
                    }
                }
                Check::DeadlineUnreachable => {
                    if r.pre_verdict != PreVerdict::DeadlineUnreachable
                        || est.samples != 0
                        || est.mean != 0.0
                    {
                        return Err(format!(
                            "expected exact P = 0 from deadline-unreachable with 0 samples, got \
                             {} from `{}` over {} samples",
                            est.mean, r.pre_verdict, est.samples
                        ));
                    }
                }
                Check::SameAsOneWorker => {
                    let reference = self.reference(Spec { workers: 1, ..spec.clone() })?;
                    if !identical(est, &reference) {
                        return Err(format!(
                            "{} workers gave {est:?}, 1 worker gave {reference:?}",
                            spec.workers
                        ));
                    }
                }
                Check::PruneInvariant => {
                    let reference = self.reference(Spec { prune: false, ..spec.clone() })?;
                    if !identical(est, &reference) {
                        return Err(format!("pruned {est:?}, unpruned {reference:?}"));
                    }
                }
                Check::StrategiesAgree => {}
            }
        }
        Ok(())
    }

    fn reference(&mut self, spec: Spec) -> Result<Estimate, String> {
        let key = format!("{}|{}|{}", spec.label, spec.workers, spec.prune);
        if let Some((seed, answer)) = self.cache.get(&key) {
            if *seed == spec.seed {
                return answer.clone();
            }
        }
        let answer = prepare(&spec, &mut NoSpans).and_then(|p| analyze(&p)).map(|r| r.estimate);
        self.cache.insert(key, (spec.seed, answer.clone()));
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(successes: u64, samples: u64) -> Estimate {
        let mean = if samples == 0 { 0.0 } else { successes as f64 / samples as f64 };
        Estimate { mean, samples, successes, epsilon: 0.01, confidence: 0.95 }
    }

    #[test]
    fn consistent_accepts_sampling_noise_and_rejects_bias() {
        // 5 standard deviations off at p = 0.5, n = 185: rare under a
        // correct simulator, yet inside the 1e-9 false-alarm budget.
        assert!(consistent(0.5, &est(92 + 34, 185)));
        assert!(!consistent(0.5, &est(185, 185)));
        // Small p: a handful of successes is fine, a tenfold excess is not.
        assert!(consistent(0.0018, &est(140, 73_778)));
        assert!(!consistent(0.0018, &est(1_330, 73_778)));
        // Degenerate p needs an exact answer.
        assert!(consistent(0.0, &est(0, 0)));
        assert!(!consistent(0.0, &est(1, 100)));
    }

    #[test]
    fn identical_compares_bits() {
        assert!(identical(&est(3, 10), &est(3, 10)));
        assert!(!identical(&est(3, 10), &est(4, 10)));
    }
}
