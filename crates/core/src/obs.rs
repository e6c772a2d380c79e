//! Run-time observability for the simulator.
//!
//! A [`SimObserver`] bundles a [`MetricsRegistry`] with pre-registered
//! handles for everything the runner and engine measure: per-verdict path
//! counters, step/latency histograms, strategy decision counters,
//! round-robin collector depth, per-worker throughput, and phase wall
//! times. Instrumented code receives `Option<&SimObserver>`; with `None`
//! the cost is a single never-taken branch, and with `Some` every record
//! is a relaxed atomic add — the observer never takes a lock on the
//! sampling hot path and never touches the RNG, so it cannot perturb
//! `(seed, workers)`-determinism.

use crate::verdict::{PathOutcome, Verdict};
use crate::witness::WitnessSelector;
use slim_obs::metrics::{CounterId, HistogramId, MetricsRegistry, MetricsSnapshot};
use slim_obs::report::ConvergencePoint;
use slim_stats::chernoff::Accuracy;
use std::sync::Mutex;
use std::time::Duration;

/// Progress callback: `(samples_consumed, known_target, estimate)` with
/// `estimate = Some((p̂, half_width))` once at least one sample is in.
pub type ProgressFn = Box<dyn Fn(u64, Option<u64>, Option<(f64, f64)>) + Send + Sync>;

/// Per-worker counter handles.
#[derive(Debug, Clone, Copy)]
struct WorkerIds {
    paths: CounterId,
    satisfied: CounterId,
    busy_nanos: CounterId,
}

/// Per-path detail accumulated locally by the engine and flushed once per
/// path (cheaper and simpler than per-event atomics).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathDetail {
    /// Markovian transition firings.
    pub fires_markovian: u64,
    /// Strategy-scheduled (guarded) transition firings.
    pub fires_guarded: u64,
    /// Pure delay steps (no firing).
    pub waits: u64,
    /// Strategy decisions that scheduled a firing.
    pub decisions_fire: u64,
    /// Strategy decisions that scheduled a pure wait.
    pub decisions_wait: u64,
    /// Strategy decisions reporting no schedulable candidate.
    pub decisions_stuck: u64,
    /// Wall time spent generating the path, in nanoseconds.
    pub nanos: u64,
}

/// One worker's aggregate contribution, extracted for run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Paths the worker produced.
    pub paths: u64,
    /// Satisfied paths among them.
    pub satisfied: u64,
    /// Wall time the worker spent simulating, in nanoseconds.
    pub busy_nanos: u64,
}

/// Shared, lock-cheap instrumentation for one analysis run.
pub struct SimObserver {
    registry: MetricsRegistry,
    // Engine-level (flushed once per path).
    c_verdicts: [CounterId; 6],
    c_steps_total: CounterId,
    c_fires_markovian: CounterId,
    c_fires_guarded: CounterId,
    c_waits: CounterId,
    c_decisions_fire: CounterId,
    c_decisions_wait: CounterId,
    c_decisions_stuck: CounterId,
    h_steps_per_path: HistogramId,
    h_path_micros: HistogramId,
    c_deadlocks: CounterId,
    c_timelocks: CounterId,
    // Round-robin collector (recorded by the consuming thread only).
    c_samples_consumed: CounterId,
    c_rounds_drained: CounterId,
    h_buffer_depth: HistogramId,
    h_drain_batch: HistogramId,
    h_drain_gap_micros: HistogramId,
    // Per-worker.
    workers: Vec<WorkerIds>,
    // Cold path only: phase ends and report building.
    phases: Mutex<Vec<(String, Duration)>>,
    progress: Option<ProgressFn>,
    // Estimator convergence checkpoints (consumer thread only; the Mutex
    // is never contended on the sampling hot path).
    convergence: Mutex<Vec<ConvergencePoint>>,
    // Witness selection (consumer thread only, see `witness`).
    witnesses: Option<Mutex<WitnessSelector>>,
}

impl std::fmt::Debug for SimObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimObserver")
            .field("workers", &self.workers.len())
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

fn verdict_slot(v: Verdict) -> usize {
    match v {
        Verdict::Satisfied => 0,
        Verdict::TimeBoundExceeded => 1,
        Verdict::HoldViolated => 2,
        Verdict::Deadlock => 3,
        Verdict::Timelock => 4,
        Verdict::StepLimit => 5,
    }
}

impl SimObserver {
    /// Creates an observer for a run with `workers` worker threads
    /// (pass `1` for sequential runs).
    pub fn new(workers: usize) -> SimObserver {
        let mut r = MetricsRegistry::new();
        let c_verdicts = [
            r.counter("paths.satisfied"),
            r.counter("paths.time_bound_exceeded"),
            r.counter("paths.hold_violated"),
            r.counter("paths.deadlock"),
            r.counter("paths.timelock"),
            r.counter("paths.step_limit"),
        ];
        SimObserver {
            c_steps_total: r.counter("sim.steps_total"),
            c_fires_markovian: r.counter("sim.fires_markovian"),
            c_fires_guarded: r.counter("sim.fires_guarded"),
            c_waits: r.counter("sim.waits"),
            c_decisions_fire: r.counter("strategy.decisions_fire"),
            c_decisions_wait: r.counter("strategy.decisions_wait"),
            c_decisions_stuck: r.counter("strategy.decisions_stuck"),
            h_steps_per_path: r.histogram("sim.steps_per_path"),
            h_path_micros: r.histogram("sim.path_micros"),
            c_samples_consumed: r.counter("collector.samples_consumed"),
            c_rounds_drained: r.counter("collector.rounds_drained"),
            c_deadlocks: r.counter("sim.deadlocks"),
            c_timelocks: r.counter("sim.timelocks"),
            h_buffer_depth: r.histogram("collector.buffer_depth"),
            h_drain_batch: r.histogram("collector.drain_batch"),
            h_drain_gap_micros: r.histogram("collector.drain_gap_micros"),
            workers: (0..workers)
                .map(|w| WorkerIds {
                    paths: r.counter(&format!("worker.{w}.paths")),
                    satisfied: r.counter(&format!("worker.{w}.satisfied")),
                    busy_nanos: r.counter(&format!("worker.{w}.busy_nanos")),
                })
                .collect(),
            c_verdicts,
            phases: Mutex::new(Vec::new()),
            registry: r,
            progress: None,
            convergence: Mutex::new(Vec::new()),
            witnesses: None,
        }
    }

    /// Installs a progress callback, invoked by the runner's consuming
    /// thread after each accepted sample with `(consumed, known_target)`.
    /// Throttling is the callback's job (see `slim_obs::ProgressMeter`).
    #[must_use]
    pub fn with_progress(mut self, f: ProgressFn) -> SimObserver {
        self.progress = Some(f);
        self
    }

    /// Enables witness capture: the runner offers every accepted sample
    /// (in its deterministic consumption order) and the first `k` goal
    /// and lock path *indices* are kept with O(k) memory. Retrieve the
    /// selection with [`Self::witness_selection`] and re-generate the
    /// traces with [`crate::witness::capture_witnesses`].
    #[must_use]
    pub fn with_witness_capture(mut self, k: usize) -> SimObserver {
        self.witnesses = Some(Mutex::new(WitnessSelector::new(k)));
        self
    }

    /// The underlying registry (for ad-hoc reads and snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot of every metric. The `collector.*` counters appear only
    /// when the round-robin collector ran (a sequential stopping rule on
    /// several workers): other runs have no collector to describe.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        if self.registry.counter_value(self.c_rounds_drained) == 0 {
            snap.counters.retain(|name, _| !name.starts_with("collector."));
        }
        snap
    }

    /// Flushes one generated path's detail (called by the runner).
    pub(crate) fn record_path(&self, outcome: &PathOutcome, detail: &PathDetail) {
        let r = &self.registry;
        r.inc(self.c_verdicts[verdict_slot(outcome.verdict)]);
        r.add(self.c_steps_total, outcome.steps);
        r.add(self.c_fires_markovian, detail.fires_markovian);
        r.add(self.c_fires_guarded, detail.fires_guarded);
        r.add(self.c_waits, detail.waits);
        r.add(self.c_decisions_fire, detail.decisions_fire);
        r.add(self.c_decisions_wait, detail.decisions_wait);
        r.add(self.c_decisions_stuck, detail.decisions_stuck);
        r.record(self.h_steps_per_path, outcome.steps);
        r.record(self.h_path_micros, detail.nanos / 1_000);
        match outcome.verdict {
            Verdict::Deadlock => r.inc(self.c_deadlocks),
            Verdict::Timelock => r.inc(self.c_timelocks),
            _ => {}
        }
    }

    /// Attributes one path to worker `w` (called by the runner). Indices
    /// beyond the observer's worker count are counted globally but not
    /// attributed.
    pub(crate) fn record_worker_path(&self, w: usize, outcome: &PathOutcome, busy: Duration) {
        if let Some(ids) = self.workers.get(w) {
            self.registry.inc(ids.paths);
            if outcome.verdict.is_success() {
                self.registry.inc(ids.satisfied);
            }
            self.registry.add(ids.busy_nanos, busy.as_nanos() as u64);
        }
    }

    /// Reports progress from the per-worker counters while a fixed-target
    /// run's workers are still running: the paths done so far out of
    /// `target`, `p̂` over them, and the Hoeffding half-width at that count.
    pub(crate) fn on_worker_progress(&self, target: u64, accuracy: Accuracy) {
        let r = &self.registry;
        let done: u64 = self.workers.iter().map(|ids| r.counter_value(ids.paths)).sum();
        if done > 0 {
            let satisfied: u64 =
                self.workers.iter().map(|ids| r.counter_value(ids.satisfied)).sum();
            let p = satisfied as f64 / done as f64;
            self.on_progress(done, Some(target), Some((p, accuracy.epsilon_for_samples(done))));
        }
    }

    /// Records one drain of the round-robin collector: how many samples
    /// the batch contained, how many remained buffered afterwards, and
    /// the wall-clock gap since the previous drain.
    pub(crate) fn record_drain(&self, batch: usize, buffered_after: usize, gap: Duration) {
        self.registry.inc(self.c_rounds_drained);
        self.registry.add(self.c_samples_consumed, batch as u64);
        self.registry.record(self.h_drain_batch, batch as u64);
        self.registry.record(self.h_buffer_depth, buffered_after as u64);
        self.registry.record(self.h_drain_gap_micros, gap.as_micros() as u64);
    }

    /// Reports progress through the optional callback.
    pub(crate) fn on_progress(
        &self,
        consumed: u64,
        target: Option<u64>,
        estimate: Option<(f64, f64)>,
    ) {
        if let Some(f) = &self.progress {
            f(consumed, target, estimate);
        }
    }

    /// Offers one accepted sample to the witness selector (no-op without
    /// [`Self::with_witness_capture`]).
    pub(crate) fn offer_witness(&self, index: u64, verdict: Verdict) {
        if let Some(w) = &self.witnesses {
            w.lock().unwrap().offer(index, verdict);
        }
    }

    /// The per-category witness capacity (`None` without capture).
    pub(crate) fn witness_capacity(&self) -> Option<usize> {
        self.witnesses.as_ref().map(|w| w.lock().unwrap().capacity())
    }

    /// Merges one worker's witness candidates into the selection (see
    /// [`WitnessSelector::merge`]; no-op without capture).
    pub(crate) fn merge_witnesses(&self, part: &WitnessSelector) {
        if let Some(w) = &self.witnesses {
            w.lock().unwrap().merge(part);
        }
    }

    /// The witness selection after a run (`None` without capture).
    pub fn witness_selection(&self) -> Option<WitnessSelector> {
        self.witnesses.as_ref().map(|w| w.lock().unwrap().clone())
    }

    /// Appends an estimator convergence checkpoint; a point repeating the
    /// previous sample count is dropped, keeping the series strictly
    /// increasing in `samples`.
    pub(crate) fn record_convergence(&self, point: ConvergencePoint) {
        let mut series = self.convergence.lock().unwrap();
        if series.last().is_some_and(|last| last.samples >= point.samples) {
            return;
        }
        series.push(point);
    }

    /// The recorded convergence series (per-checkpoint `p̂` and CI
    /// half-width), in sample order.
    pub fn convergence(&self) -> Vec<ConvergencePoint> {
        self.convergence.lock().unwrap().clone()
    }

    /// Records a phase's wall time (accumulating on repeated names).
    pub fn record_phase(&self, name: &str, d: Duration) {
        let mut phases = self.phases.lock().unwrap();
        if let Some((_, total)) = phases.iter_mut().find(|(n, _)| n == name) {
            *total += d;
        } else {
            phases.push((name.to_string(), d));
        }
    }

    /// The recorded phases in first-occurrence order.
    pub fn phases(&self) -> Vec<(String, Duration)> {
        self.phases.lock().unwrap().clone()
    }

    /// Per-worker aggregates in worker order.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.workers
            .iter()
            .map(|ids| WorkerStat {
                paths: self.registry.counter_value(ids.paths),
                satisfied: self.registry.counter_value(ids.satisfied),
                busy_nanos: self.registry.counter_value(ids.busy_nanos),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(verdict: Verdict, steps: u64) -> PathOutcome {
        PathOutcome { verdict, steps, end_time: 1.0 }
    }

    #[test]
    fn record_path_updates_counters_and_histograms() {
        let obs = SimObserver::new(1);
        let detail = PathDetail {
            fires_markovian: 3,
            fires_guarded: 2,
            waits: 1,
            decisions_fire: 2,
            decisions_wait: 1,
            decisions_stuck: 0,
            nanos: 5_000,
        };
        obs.record_path(&outcome(Verdict::Satisfied, 6), &detail);
        obs.record_path(&outcome(Verdict::Deadlock, 4), &detail);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["paths.satisfied"], 1);
        assert_eq!(snap.counters["paths.deadlock"], 1);
        assert_eq!(snap.counters["sim.deadlocks"], 1);
        assert_eq!(snap.counters["sim.steps_total"], 10);
        assert_eq!(snap.counters["sim.fires_markovian"], 6);
        assert_eq!(snap.counters["strategy.decisions_fire"], 4);
        assert_eq!(snap.histograms["sim.steps_per_path"].count, 2);
        assert_eq!(snap.histograms["sim.path_micros"].max, 5);
    }

    #[test]
    fn worker_attribution_and_out_of_range_guard() {
        let obs = SimObserver::new(2);
        obs.record_worker_path(0, &outcome(Verdict::Satisfied, 1), Duration::from_micros(10));
        obs.record_worker_path(1, &outcome(Verdict::TimeBoundExceeded, 1), Duration::ZERO);
        obs.record_worker_path(7, &outcome(Verdict::Satisfied, 1), Duration::ZERO); // ignored
        let ws = obs.worker_stats();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0], WorkerStat { paths: 1, satisfied: 1, busy_nanos: 10_000 });
        assert_eq!(ws[1], WorkerStat { paths: 1, satisfied: 0, busy_nanos: 0 });
    }

    #[test]
    fn drain_and_phase_recording() {
        let obs = SimObserver::new(1);
        obs.record_drain(4, 2, Duration::from_micros(50));
        obs.record_drain(2, 0, Duration::from_micros(10));
        obs.record_phase("simulate", Duration::from_millis(3));
        obs.record_phase("simulate", Duration::from_millis(2));
        obs.record_phase("estimate", Duration::from_millis(1));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["collector.samples_consumed"], 6);
        assert_eq!(snap.counters["collector.rounds_drained"], 2);
        assert_eq!(snap.histograms["collector.buffer_depth"].max, 2);
        let phases = obs.phases();
        assert_eq!(phases[0], ("simulate".to_string(), Duration::from_millis(5)));
        assert_eq!(phases[1].0, "estimate");
    }

    #[test]
    fn progress_callback_fires() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let obs = SimObserver::new(1).with_progress(Box::new(move |done, target, estimate| {
            assert_eq!(target, Some(100));
            assert_eq!(estimate, Some((0.5, 0.05)));
            seen2.store(done, Ordering::Relaxed);
        }));
        obs.on_progress(42, Some(100), Some((0.5, 0.05)));
        assert_eq!(seen.load(Ordering::Relaxed), 42);
        // Without a callback this is a no-op.
        SimObserver::new(1).on_progress(1, None, None);
    }

    #[test]
    fn witness_offers_flow_into_selector() {
        let obs = SimObserver::new(1).with_witness_capture(1);
        obs.offer_witness(0, Verdict::TimeBoundExceeded);
        obs.offer_witness(1, Verdict::Satisfied);
        obs.offer_witness(2, Verdict::Satisfied); // capacity reached
        obs.offer_witness(3, Verdict::Timelock);
        let sel = obs.witness_selection().unwrap();
        assert_eq!(sel.goal(), &[1]);
        assert_eq!(sel.lock(), &[3]);
        // Without capture: no selector, offers are no-ops.
        let plain = SimObserver::new(1);
        plain.offer_witness(0, Verdict::Satisfied);
        assert!(plain.witness_selection().is_none());
    }

    #[test]
    fn convergence_series_stays_strictly_increasing() {
        let obs = SimObserver::new(1);
        obs.record_convergence(ConvergencePoint { samples: 1, mean: 1.0, half_width: 1.0 });
        obs.record_convergence(ConvergencePoint { samples: 2, mean: 0.5, half_width: 0.9 });
        // Duplicate and regressing sample counts are dropped.
        obs.record_convergence(ConvergencePoint { samples: 2, mean: 0.5, half_width: 0.9 });
        obs.record_convergence(ConvergencePoint { samples: 1, mean: 0.0, half_width: 0.1 });
        let series = obs.convergence();
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].samples, 2);
    }
}
