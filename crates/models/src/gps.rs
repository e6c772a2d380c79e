//! The GPS example of the paper (Listings 1–2, Fig. 2), written in SLIM
//! and lowered through the full front-end.
//!
//! The nominal model is a GPS unit that acquires a signal "within two
//! minutes but no faster than ten seconds" (Listing 1). The error model
//! (Listing 2 / Fig. 2) has transient, hot and permanent faults triggered
//! by exponential error events; a transient fault recovers after a
//! non-deterministic delay in the `[200, 300]` msec window — the window
//! the paper uses in §III-B to explain the four strategies.
//!
//! As in §V-c, failure rates are scaled up unrealistically so strategy
//! effects are visible with moderate sample counts. For the strategy
//! study, a repair attempted *too early* (before the 250 msec cool-down)
//! escalates the hot fault to a permanent one — this is what makes ASAP
//! ("always schedules the repair too early") the worst and MaxTime
//! ("never does so") the best resolution, with Progressive and Local in
//! between (§V-d's reading of Fig. 5 right).

use slim_automata::prelude::Network;
use slim_lang::{lower, parse};

/// Parameters of the GPS model (time unit: seconds).
#[derive(Debug, Clone, Copy)]
pub struct GpsParams {
    /// Rate of transient faults (per second; scaled up, §V-c).
    pub lambda_transient: f64,
    /// Rate of hot faults.
    pub lambda_hot: f64,
    /// Rate of permanent faults.
    pub lambda_permanent: f64,
    /// Repair window start (relative to fault occurrence).
    pub repair_earliest: f64,
    /// Cool-down instant: repairs before it escalate to permanent.
    pub cooldown: f64,
    /// Repair window end (also the invariant bound of faulty states).
    pub repair_latest: f64,
}

impl Default for GpsParams {
    fn default() -> Self {
        GpsParams {
            lambda_transient: 0.10,
            lambda_hot: 0.05,
            lambda_permanent: 0.01,
            repair_earliest: 0.2,
            cooldown: 0.25,
            repair_latest: 0.3,
        }
    }
}

/// The SLIM source of the GPS model for the given parameters.
pub fn gps_slim_source(p: &GpsParams) -> String {
    format!(
        r#"
-- The GPS unit of Listing 1: acquires a fix within [10, 120] s.
device GPS
  features
    measurement: out data port bool := false;
    healthy: out data port bool := true;
end GPS;

device implementation GPS.Impl
  subcomponents
    t: data clock;
  modes
    acquisition: initial mode while t <= 120.0;
    active: mode;
  transitions
    acquisition -[ when t >= 10.0 then measurement := true ]-> active;
end GPS.Impl;

-- The error model of Listing 2 / Fig. 2, with the too-early-repair
-- escalation used by the strategy study.
error model GpsError
  states
    ok: initial state;
    transient: state while c <= {latest};
    hot: state while c <= {latest};
    permanent: state;
  transitions
    ok -[ rate {lt} ]-> transient;
    ok -[ rate {lh} ]-> hot;
    ok -[ rate {lp} ]-> permanent;
    -- transient faults self-heal anywhere in the repair window
    transient -[ when c >= {earliest} and c <= {latest} ]-> ok;
    -- hot faults need a restart: restarting before the cool-down
    -- escalates, after it recovers
    hot -[ when c >= {earliest} and c < {cool} ]-> permanent;
    hot -[ when c >= {cool} and c <= {latest} ]-> ok;
end GpsError;

fault injection on gps using GpsError
  effect transient: gps.healthy := false;
  effect hot: gps.healthy := false;
  effect permanent: gps.healthy := false;
  effect ok: gps.healthy := true;
end;
"#,
        lt = p.lambda_transient,
        lh = p.lambda_hot,
        lp = p.lambda_permanent,
        earliest = p.repair_earliest,
        cool = p.cooldown,
        latest = p.repair_latest,
    )
}

/// Builds the GPS network (parses and lowers the SLIM source).
///
/// # Panics
/// Panics if the embedded source fails to parse or lower — a bug, covered
/// by tests.
pub fn gps_network(p: &GpsParams) -> Network {
    let src = gps_slim_source(p);
    let model = parse(&src).unwrap_or_else(|e| panic!("GPS source does not parse: {e}"));
    lower(&model, "GPS", "Impl", "gps")
        .unwrap_or_else(|e| panic!("GPS source does not lower: {e}"))
        .network
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::prelude::*;
    use slim_stats::rng::StdRng;
    use slimsim_core::prelude::*;

    #[test]
    fn builds_and_has_expected_shape() {
        let net = gps_network(&GpsParams::default());
        assert_eq!(net.automata().len(), 2, "nominal + error automaton");
        assert!(net.var_id("gps.measurement").is_some());
        assert!(net.var_id("gps.healthy").is_some());
        assert!(net.proc_id("gps.error_GpsError").is_some());
    }

    #[test]
    fn acquisition_window_respected() {
        let net = gps_network(&GpsParams::default());
        let prop =
            TimedReach::new(Goal::expr(Expr::var(net.var_id("gps.measurement").unwrap())), 200.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        // ASAP acquires at exactly 10 s (unless a fault races in first,
        // which at these rates is common — accept either outcome but
        // never an acquisition before 10 s).
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = gen.generate_with(&mut SimScratch::new(), &mut Asap, &mut rng).unwrap();
            if out.verdict == Verdict::Satisfied {
                assert!(out.end_time >= 10.0 - 1e-9, "acquired at {}", out.end_time);
            }
        }
    }

    #[test]
    fn asap_always_escalates_hot_faults() {
        // With only hot faults enabled, ASAP repairs at 0.2 < 0.25 and
        // every hot fault becomes permanent.
        let p = GpsParams {
            lambda_transient: 0.0001, // ~never
            lambda_hot: 50.0,         // immediately
            lambda_permanent: 0.0001,
            ..GpsParams::default()
        };
        let net = gps_network(&p);
        let goal = Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap();
        let prop = TimedReach::new(goal, 2.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        let mut sat = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            if gen.generate_with(&mut SimScratch::new(), &mut Asap, &mut rng).unwrap().verdict
                == Verdict::Satisfied
            {
                sat += 1;
            }
        }
        assert!(sat >= 38, "ASAP escalated only {sat}/40");
    }

    #[test]
    fn maxtime_never_escalates_hot_faults() {
        let p = GpsParams {
            lambda_transient: 0.0001,
            lambda_hot: 50.0,
            lambda_permanent: 0.0001,
            ..GpsParams::default()
        };
        let net = gps_network(&p);
        let goal = Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap();
        let prop = TimedReach::new(goal, 2.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        let mut sat = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            if gen.generate_with(&mut SimScratch::new(), &mut MaxTime, &mut rng).unwrap().verdict
                == Verdict::Satisfied
            {
                sat += 1;
            }
        }
        assert!(sat <= 2, "MaxTime escalated {sat}/40");
    }

    #[test]
    fn progressive_escalates_about_half() {
        // Window [0.2, 0.3], cool-down at 0.25 ⇒ uniform repair instant
        // escalates with probability ~0.5.
        let p = GpsParams {
            lambda_transient: 0.0001,
            lambda_hot: 50.0,
            lambda_permanent: 0.0001,
            ..GpsParams::default()
        };
        let net = gps_network(&p);
        let goal = Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap();
        // Short bound: roughly one fault episode fits (at rate 50 the
        // fault arrives almost immediately; repair/escalation follows in
        // [0.2, 0.3]). Longer bounds let repaired units fault again and
        // escalation becomes near-certain.
        let prop = TimedReach::new(goal, 0.35);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        let mut sat = 0;
        let n = 300;
        for seed in 0..n {
            let mut rng = StdRng::seed_from_u64(seed);
            if gen
                .generate_with(&mut SimScratch::new(), &mut Progressive, &mut rng)
                .unwrap()
                .verdict
                == Verdict::Satisfied
            {
                sat += 1;
            }
        }
        let frac = sat as f64 / n as f64;
        assert!((frac - 0.47).abs() < 0.15, "Progressive escalation fraction {frac}");
    }

    #[test]
    fn healthy_flag_tracks_error_state() {
        let p = GpsParams { lambda_permanent: 100.0, ..GpsParams::default() };
        let net = gps_network(&p);
        let healthy = net.var_id("gps.healthy").unwrap();
        let s0 = net.initial_state().unwrap();
        assert_eq!(s0.nu.get(healthy).unwrap(), Value::Bool(true));
        // Fire the permanent fault directly.
        let perm = net
            .markovian_candidates(&s0)
            .into_iter()
            .max_by(|a, b| a.rate.partial_cmp(&b.rate).unwrap())
            .unwrap();
        let s1 = net.apply(&s0, &perm.transition).unwrap();
        assert_eq!(s1.nu.get(healthy).unwrap(), Value::Bool(false));
    }
}
