//! Ready-made SLIM sources for documentation, tests and the CLI.

use slim_automata::prelude::Network;
use slim_lang::{lower, parse};

/// A small sensor–filter instance written in SLIM (redundancy 2),
/// mirroring `crate::sensor_filter` for front-end integration tests.
pub const SENSOR_FILTER_SLIM: &str = r#"
-- Sensor-filter redundancy benchmark (Fig. 3 of the paper), n = 2.
device Unit
  features
    ok: out data port bool := true;
end Unit;

device implementation Unit.Sensor
  modes
    running: initial mode;
    broken: mode;
  transitions
    running -[ rate 0.5 then ok := false ]-> broken;
end Unit.Sensor;

device implementation Unit.Filter
  modes
    running: initial mode;
    broken: mode;
  transitions
    running -[ rate 0.4 then ok := false ]-> broken;
end Unit.Filter;

system Monitor
  features
    failed: out data port bool := false;
end Monitor;

system implementation Monitor.Impl
  subcomponents
    s0: device Unit.Sensor;
    s1: device Unit.Sensor;
    f0: device Unit.Filter;
    f1: device Unit.Filter;
  flows
    failed := (not s0.ok and not s1.ok) or (not f0.ok and not f1.ok);
  modes
    watching: initial mode;
end Monitor.Impl;
"#;

/// Parses and lowers [`SENSOR_FILTER_SLIM`].
///
/// # Panics
/// Panics if the embedded source is invalid — a bug, covered by tests.
pub fn sensor_filter_slim_network() -> Network {
    let model = parse(SENSOR_FILTER_SLIM).expect("embedded source parses");
    lower(&model, "Monitor", "Impl", "sys").expect("embedded source lowers").network
}

/// A tiny two-component handshake in SLIM, used by examples and the CLI
/// quickstart.
pub const HANDSHAKE_SLIM: &str = r#"
device Client
  features
    request: out event port;
end Client;

device implementation Client.Impl
  subcomponents
    t: data clock;
  modes
    idle: initial mode while t <= 5.0;
    waiting: mode;
  transitions
    idle -[ request when t >= 1.0 ]-> waiting;
end Client.Impl;

device Server
  features
    serve: in event port;
    served: out data port bool := false;
end Server;

device implementation Server.Impl
  modes
    ready: initial mode;
    busy: mode;
  transitions
    ready -[ serve then served := true ]-> busy;
end Server.Impl;

system Net end Net;

system implementation Net.Impl
  subcomponents
    client: device Client.Impl;
    server: device Server.Impl;
  connections
    port client.request -> server.serve;
end Net.Impl;
"#;

/// Parses and lowers [`HANDSHAKE_SLIM`].
///
/// # Panics
/// Panics if the embedded source is invalid — a bug, covered by tests.
pub fn handshake_network() -> Network {
    let model = parse(HANDSHAKE_SLIM).expect("embedded source parses");
    lower(&model, "Net", "Impl", "net").expect("embedded source lowers").network
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor_filter::{analytic_failure_probability, SensorFilterParams};
    use slim_automata::prelude::*;
    use slim_stats::chernoff::Accuracy;
    use slimsim_core::prelude::*;

    #[test]
    fn sensor_filter_slim_matches_builder_model_analytics() {
        let net = sensor_filter_slim_network();
        let failed = net.var_id("sys.failed").unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(failed)), 2.0);
        let cfg = SimConfig::default()
            .with_accuracy(Accuracy::new(0.04, 0.1).unwrap())
            .with_strategy(StrategyKind::Asap);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let exact = analytic_failure_probability(
            &SensorFilterParams { redundancy: 2, ..Default::default() },
            2.0,
        );
        assert!(
            (r.probability() - exact).abs() < 0.05,
            "SLIM variant {} vs analytic {exact}",
            r.probability()
        );
    }

    #[test]
    fn handshake_synchronizes_between_one_and_five() {
        let net = handshake_network();
        let served = net.var_id("net.server.served").unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(served)), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut rng = slim_stats::rng::StdRng::seed_from_u64(3);
        let out = gen.generate_with(&mut SimScratch::new(), &mut Progressive, &mut rng).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((1.0..=5.0).contains(&out.end_time), "handshake at {}", out.end_time);
    }
}
