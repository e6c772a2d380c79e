//! The campaign driver: generate → check → shrink → record, in a loop.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::corpus::{write_corpus_entry, CorpusEntry};
use crate::generate::generate;
use crate::oracle::{run_oracles, OracleConfig, OracleKind};
use crate::params::GenParams;
use crate::shrink::shrink;

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; model `i` is `generate(seed, start_index + i, ..)`.
    pub seed: u64,
    /// Number of models to generate and check.
    pub count: u64,
    /// First model index (lets a campaign resume or zoom into a range).
    pub start_index: u64,
    /// Generator knobs.
    pub params: GenParams,
    /// Oracle effort knobs.
    pub oracle: OracleConfig,
    /// Minimize failures before recording them.
    pub shrink: bool,
    /// Stop after this many failures (0 = never stop early).
    pub max_failures: usize,
    /// When set, write each (shrunk) failure into this corpus directory.
    pub corpus_dir: Option<PathBuf>,
}

impl CampaignConfig {
    /// A campaign with default knobs over `count` models.
    pub fn new(seed: u64, count: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            count,
            start_index: 0,
            params: GenParams::default(),
            oracle: OracleConfig::quick(),
            shrink: true,
            max_failures: 10,
            corpus_dir: None,
        }
    }
}

/// One recorded campaign failure.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Index of the failing model.
    pub index: u64,
    /// The violated oracle.
    pub kind: OracleKind,
    /// Failure description (of the shrunk model when shrinking ran).
    pub detail: String,
    /// Minimized source (original source when shrinking is disabled).
    pub source: String,
    /// Where the corpus entry was written, if a corpus dir was given.
    pub corpus_path: Option<PathBuf>,
}

/// Aggregate statistics of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Models generated and checked.
    pub models: u64,
    /// Recorded failures, in discovery order.
    pub failures: Vec<CampaignFailure>,
    /// Completed runs per oracle, aligned with [`OracleKind::ALL`].
    pub oracle_runs: [u64; OracleKind::ALL.len()],
    /// Models on which the fixpoint claimed exactly `P = 0`.
    pub pre_zero: u64,
    /// Models on which the fixpoint claimed exactly `P = 1`.
    pub pre_one: u64,
    /// Wall-clock time of the campaign.
    pub wall: Duration,
}

impl CampaignSummary {
    /// Completed runs of one oracle.
    pub fn runs_of(&self, kind: OracleKind) -> u64 {
        let i = OracleKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL");
        self.oracle_runs[i]
    }
}

/// Progress callbacks emitted while a campaign runs.
#[derive(Debug)]
pub enum CampaignEvent<'a> {
    /// `done` of `total` models checked so far.
    Progress {
        /// Models checked.
        done: u64,
        /// Campaign size.
        total: u64,
    },
    /// A failure was recorded (already shrunk when shrinking is on).
    Failure(&'a CampaignFailure),
}

/// Runs a campaign, invoking `on_event` with progress and failures.
pub fn run_campaign(
    cfg: &CampaignConfig,
    on_event: &mut dyn FnMut(CampaignEvent<'_>),
) -> CampaignSummary {
    let start = Instant::now();
    let mut summary = CampaignSummary::default();
    let fingerprint = cfg.params.fingerprint();
    let progress_every = (cfg.count / 20).clamp(1, 500);

    for i in 0..cfg.count {
        let index = cfg.start_index + i;
        let model = generate(cfg.seed, index, &cfg.params);
        let outcome = run_oracles(&model, &cfg.oracle);
        summary.models += 1;
        for kind in &outcome.ran {
            let slot =
                OracleKind::ALL.iter().position(|k| k == kind).expect("oracle kind is in ALL");
            summary.oracle_runs[slot] += 1;
        }
        match outcome.pre_exact {
            Some(0.0) => summary.pre_zero += 1,
            Some(_) => summary.pre_one += 1,
            None => {}
        }

        if let Some(found) = outcome.failure {
            let (reduced, failure) = if cfg.shrink {
                match shrink(&model, &cfg.oracle) {
                    Some(r) => (r.model, r.failure),
                    // A flaky non-reproducing failure would be a
                    // determinism bug in itself; record the original.
                    None => (model.clone(), found.clone()),
                }
            } else {
                (model.clone(), found.clone())
            };
            let corpus_path = cfg.corpus_dir.as_ref().and_then(|dir| {
                let entry = CorpusEntry::new(&reduced, &failure, &fingerprint);
                write_corpus_entry(dir, &entry).ok()
            });
            let failure = CampaignFailure {
                index,
                kind: failure.kind,
                detail: failure.detail,
                source: reduced.source,
                corpus_path,
            };
            on_event(CampaignEvent::Failure(&failure));
            summary.failures.push(failure);
            if cfg.max_failures > 0 && summary.failures.len() >= cfg.max_failures {
                break;
            }
        }

        if (i + 1) % progress_every == 0 || i + 1 == cfg.count {
            on_event(CampaignEvent::Progress { done: i + 1, total: cfg.count });
        }
    }

    summary.wall = start.elapsed();
    summary
}
