//! Seeded, grammar-directed generator of SLIM models.
//!
//! [`generate`] maps a `(seed, index, GenParams)` triple to one SLIM model
//! deterministically: the same triple yields a byte-identical `.slim` text
//! on every run and platform, so a failing model is fully identified by
//! three numbers plus the knob fingerprint.
//!
//! The generator works at the [`slim_lang::ast`] level and stays inside
//! the validity envelope enforced by lowering and network validation:
//! bounded integers are written through `min`/`max` clamps, clock guards
//! and invariants stay affine, no location mixes guarded and Markovian
//! transitions, Markovian locations carry trivial invariants, every rate
//! is a strictly positive dyadic, and every transition entering a
//! location with a clock invariant resets that clock so the invariant
//! holds on entry. A generated model that fails to lower, validate, or
//! pass the deny-level lints is itself an oracle failure — the harness
//! tests the pipeline, not the operator's patience.
//!
//! Half the components (by default) come from a small distributed-systems
//! vocabulary — servers with exponential failure/repair, lossy links with
//! delivery/loss races, bounded queues — seeding the reusable component
//! library named on the roadmap; the rest are free-form automata drawn
//! from the full grammar (τ/Markovian/sync transitions, urgency, clock
//! windows, data flows, error models with fault injections).

use slim_lang::ast::{
    Category, ComponentImpl, ComponentType, Connection, DataType, Direction, ErrorModel,
    ErrorState, ErrorTransition, ErrorTrigger, Expr, FaultInjection, Feature, FlowDef, Literal,
    ModeDecl, Model, QName, Subcomponent, TransitionDecl, Trigger,
};
use slim_lang::token::Pos;
use slim_lang::{lower, pretty, LangError};
use slim_stats::rng::path_rng;

use crate::params::GenParams;
use crate::sample::{chance, f64_in, i64_in, pick, rate_in, usize_in, StdRng};

/// How the reachability goal of a generated model is expressed.
///
/// Both forms are plain text so a corpus entry can carry them alongside
/// the `.slim` source and rebuild the exact property on replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalSpec {
    /// A Boolean network variable by full path (e.g. `root.failed`).
    Var(String),
    /// A `(automaton path, location name)` atom (e.g. `root.c0` / `bad`).
    Loc(String, String),
}

impl GoalSpec {
    /// One-line textual form, `var <path>` or `loc <automaton> <location>`.
    pub fn describe(&self) -> String {
        match self {
            GoalSpec::Var(v) => format!("var {v}"),
            GoalSpec::Loc(a, l) => format!("loc {a} {l}"),
        }
    }

    /// Parses [`Self::describe`]'s output back.
    pub fn parse(s: &str) -> Option<GoalSpec> {
        let mut it = s.split_whitespace();
        match (it.next()?, it.next(), it.next()) {
            ("var", Some(v), None) => Some(GoalSpec::Var(v.to_string())),
            ("loc", Some(a), Some(l)) => Some(GoalSpec::Loc(a.to_string(), l.to_string())),
            _ => None,
        }
    }
}

/// One generated model: source text, parsed form, goal, and provenance.
#[derive(Debug, Clone)]
pub struct GeneratedModel {
    /// Campaign master seed.
    pub seed: u64,
    /// Index of this model within the campaign.
    pub index: u64,
    /// Pretty-printed `.slim` source (the canonical form; byte-identical
    /// for identical `(seed, index, params)`).
    pub source: String,
    /// The model as built (before any print/parse round-trip).
    pub model: Model,
    /// Root component type name.
    pub root_type: String,
    /// Root implementation name.
    pub root_impl: String,
    /// The timed-reachability goal.
    pub goal: GoalSpec,
    /// Time bound of the property `P(◇[0, bound] goal)`.
    pub bound: f64,
}

impl GeneratedModel {
    /// Lowers the model to its automata network (root instance `root`).
    ///
    /// # Errors
    /// Propagates lowering errors; for generator-produced models any
    /// error here is a harness bug and oracles report it as such.
    pub fn network(&self) -> Result<slim_automata::network::Network, LangError> {
        lower(&self.model, &self.root_type, &self.root_impl, "root").map(|l| l.network)
    }

    /// Rebuilds a model from stored corpus fields. The source is parsed
    /// and re-printed, so `source` ends up in canonical form.
    ///
    /// # Errors
    /// Returns the parse error text when `source` is not valid SLIM, or
    /// a description when no root system can be identified.
    pub fn from_source(
        source: &str,
        root_type: &str,
        root_impl: &str,
        goal: GoalSpec,
        bound: f64,
    ) -> Result<GeneratedModel, String> {
        let model = slim_lang::parse(source).map_err(|e| e.to_string())?;
        model
            .find_impl(root_type, root_impl)
            .ok_or_else(|| format!("no implementation `{root_type}.{root_impl}` in source"))?;
        Ok(GeneratedModel {
            seed: 0,
            index: 0,
            source: pretty(&model),
            model,
            root_type: root_type.to_string(),
            root_impl: root_impl.to_string(),
            goal,
            bound,
        })
    }

    /// Replaces the AST and re-prints the source (shrinker helper).
    pub fn with_model(&self, model: Model) -> GeneratedModel {
        GeneratedModel { source: pretty(&model), model, ..self.clone() }
    }
}

/// Generates the model identified by `(seed, index)` under `params`.
pub fn generate(seed: u64, index: u64, params: &GenParams) -> GeneratedModel {
    let mut rng = path_rng(seed, index);
    let mut g = Gen { rng: &mut rng, p: params };
    let (model, root_type, root_impl, goal, bound) = g.model();
    let source = pretty(&model);
    GeneratedModel { seed, index, source, model, root_type, root_impl, goal, bound }
}

/// A goal atom contributed by one component, phrased over its ports.
enum FailAtom {
    /// A Boolean out port; `bad_when_true` gives the failure polarity.
    BoolPort(String, bool),
    /// An integer out port compared `>= threshold`.
    IntGe(String, i64),
}

/// One generated component plus the wiring metadata the top level needs.
struct CompBuild {
    ty: ComponentType,
    im: ComponentImpl,
    out_events: Vec<String>,
    in_events: Vec<String>,
    in_bools: Vec<String>,
    bool_outs: Vec<String>,
    fail_atoms: Vec<FailAtom>,
    locs: Vec<String>,
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    p: &'a GenParams,
}

const P: Pos = Pos::START;

fn q(segs: &[&str]) -> QName {
    QName(segs.iter().map(|s| (*s).to_string()).collect())
}

fn lit(l: Literal) -> Expr {
    Expr::Lit(l)
}

fn name1(s: &str) -> Expr {
    Expr::Name(QName::simple(s))
}

fn bin(op: slim_lang::ast::BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

use slim_lang::ast::BinOp;

impl Gen<'_> {
    fn model(&mut self) -> (Model, String, String, GoalSpec, f64) {
        let k = usize_in(self.rng, self.p.min_components, self.p.max_components);
        let comps: Vec<CompBuild> = (0..k).map(|i| self.component(i)).collect();

        let inst_names: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();

        // Event wiring: each in-event port synchronizes with a random
        // out-event port (preferably of another component) with
        // probability `sync_prob`. Multiple consumers of one producer
        // merge into a single multi-party action in the network.
        let mut connections = Vec::new();
        let producers: Vec<(usize, String)> = comps
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.out_events.iter().map(move |e| (i, e.clone())))
            .collect();
        for (i, c) in comps.iter().enumerate() {
            for ev in &c.in_events {
                if producers.is_empty() || !chance(self.rng, self.p.sync_prob) {
                    continue;
                }
                let others: Vec<&(usize, String)> =
                    producers.iter().filter(|(j, _)| *j != i).collect();
                let (j, out) = if others.is_empty() {
                    pick(self.rng, &producers).clone()
                } else {
                    (*pick(self.rng, &others)).clone()
                };
                connections.push(Connection {
                    from: q(&[&inst_names[j], &out]),
                    to: q(&[&inst_names[i], ev]),
                    pos: Pos::default(),
                });
            }
        }

        // Data wiring: each in-data Boolean port may read another
        // component's Boolean out port (becomes a flow after lowering).
        let bool_sources: Vec<(usize, String)> = comps
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.bool_outs.iter().map(move |p| (i, p.clone())))
            .collect();
        for (i, c) in comps.iter().enumerate() {
            for port in &c.in_bools {
                let others: Vec<&(usize, String)> =
                    bool_sources.iter().filter(|(j, _)| *j != i).collect();
                if others.is_empty() || !chance(self.rng, self.p.sync_prob) {
                    continue;
                }
                let (j, out) = (*pick(self.rng, &others)).clone();
                connections.push(Connection {
                    from: q(&[&inst_names[j], &out]),
                    to: q(&[&inst_names[i], port]),
                    pos: Pos::default(),
                });
            }
        }

        // Goal: an `or` over a random non-empty subset of the components'
        // failure atoms, defined as a flow into `root.failed` — or, with
        // probability `goal_loc_prob` (and always when no component
        // contributes an atom), a location atom on a random component.
        let atoms: Vec<(usize, &FailAtom)> = comps
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.fail_atoms.iter().map(move |a| (i, a)))
            .collect();
        let mut flows = Vec::new();
        let goal = if atoms.is_empty() || chance(self.rng, self.p.goal_loc_prob) {
            let i = usize_in(self.rng, 0, k - 1);
            let loc = pick(self.rng, &comps[i].locs).clone();
            GoalSpec::Loc(format!("root.{}", inst_names[i]), loc)
        } else {
            let mut expr: Option<Expr> = None;
            for (i, atom) in &atoms {
                if expr.is_some() && !chance(self.rng, 0.7) {
                    continue;
                }
                let inst = inst_names[*i].as_str();
                let a = match atom {
                    FailAtom::BoolPort(port, true) => Expr::Name(q(&[inst, port])),
                    FailAtom::BoolPort(port, false) => {
                        Expr::Not(Box::new(Expr::Name(q(&[inst, port]))))
                    }
                    FailAtom::IntGe(port, t) => {
                        bin(BinOp::Ge, Expr::Name(q(&[inst, port])), lit(Literal::Int(*t)))
                    }
                };
                expr = Some(match expr.take() {
                    None => a,
                    Some(e) => bin(BinOp::Or, e, a),
                });
            }
            flows.push(FlowDef {
                target: QName::simple("failed"),
                expr: expr.expect("atoms checked non-empty"),
                pos: Pos::default(),
            });
            GoalSpec::Var("root.failed".to_string())
        };

        let top_ty = ComponentType {
            category: Category::System,
            name: "Top".to_string(),
            features: if flows.is_empty() {
                Vec::new()
            } else {
                vec![Feature {
                    name: "failed".to_string(),
                    direction: Direction::Out,
                    data: Some(DataType::Bool),
                    default: Some(Literal::Bool(false)),
                }]
            },
            pos: P,
        };
        let top_im = ComponentImpl {
            category: Category::System,
            name: ("Top".to_string(), "Gen".to_string()),
            subcomponents: comps
                .iter()
                .enumerate()
                .map(|(i, c)| Subcomponent::Instance {
                    name: inst_names[i].clone(),
                    category: c.ty.category,
                    impl_ref: (c.ty.name.clone(), c.im.name.1.clone()),
                    pos: P,
                })
                .collect(),
            connections,
            flows,
            modes: Vec::new(),
            transitions: Vec::new(),
            pos: P,
        };

        let mut model = Model {
            types: vec![top_ty],
            impls: vec![top_im],
            error_models: Vec::new(),
            injections: Vec::new(),
        };
        for c in &comps {
            model.types.push(c.ty.clone());
            model.impls.push(c.im.clone());
        }

        // Model extension (§II-D): weave an error model over a component
        // that exposes a Boolean out port the injection can corrupt.
        if chance(self.rng, self.p.injection_prob) {
            let targets: Vec<(usize, String)> = comps
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.bool_outs.first().map(|p| (i, p.clone())))
                .collect();
            if !targets.is_empty() {
                let (i, port) = pick(self.rng, &targets).clone();
                let bad = match comps[i].fail_atoms.iter().find(|a| match a {
                    FailAtom::BoolPort(p, _) => p == &port,
                    FailAtom::IntGe(..) => false,
                }) {
                    Some(FailAtom::BoolPort(_, bad_when_true)) => *bad_when_true,
                    _ => true,
                };
                let (em, inj) = self.error_model(&inst_names[i], &port, bad);
                model.error_models.push(em);
                model.injections.push(inj);
            }
        }

        let bound = (f64_in(self.rng, 0.5, 8.0) * 4.0).round().max(1.0) / 4.0;
        (model, "Top".to_string(), "Gen".to_string(), goal, bound)
    }

    fn component(&mut self, idx: usize) -> CompBuild {
        if chance(self.rng, self.p.vocabulary_prob) {
            match usize_in(self.rng, 0, 2) {
                0 => self.server(idx),
                1 => self.link(idx),
                _ => self.queue(idx),
            }
        } else {
            self.worker(idx)
        }
    }

    // ---- vocabulary: server with exponential failure/repair ----

    fn server(&mut self, idx: usize) -> CompBuild {
        let ty_name = format!("Srv{idx}");
        let lambda_f = rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1);
        let mut features = vec![Feature {
            name: "up".to_string(),
            direction: Direction::Out,
            data: Some(DataType::Bool),
            default: Some(Literal::Bool(true)),
        }];
        let timed_repair = chance(self.rng, 0.5);
        let mut out_events = Vec::new();
        let mut subcomponents = Vec::new();
        let mut modes = vec![ModeDecl {
            name: "ok".to_string(),
            initial: true,
            invariant: None,
            derivatives: Vec::new(),
            pos: P,
        }];
        let mut transitions = Vec::new();
        if timed_repair {
            // Deterministic repair window: fail at rate λf, repair within
            // `[r0, r]` of wall time (guarded escape under an invariant).
            let r = f64_in(self.rng, 1.0, 8.0).round().max(1.0);
            let r0 = (r * f64_in(self.rng, 0.25, 1.0) * 4.0).round().max(1.0) / 4.0;
            let alarm = chance(self.rng, 0.5);
            if alarm {
                features.push(Feature {
                    name: "alarm".to_string(),
                    direction: Direction::Out,
                    data: None,
                    default: None,
                });
                out_events.push("alarm".to_string());
            }
            subcomponents.push(Subcomponent::Data {
                name: "t".to_string(),
                ty: DataType::Clock,
                init: None,
                pos: P,
            });
            modes.push(ModeDecl {
                name: "down".to_string(),
                initial: false,
                invariant: Some(bin(BinOp::Le, name1("t"), lit(Literal::Real(r)))),
                derivatives: Vec::new(),
                pos: P,
            });
            transitions.push(TransitionDecl {
                from: "ok".to_string(),
                urgent: false,
                trigger: Trigger::Rate(lambda_f),
                guard: None,
                effects: vec![
                    (QName::simple("up"), lit(Literal::Bool(false))),
                    (QName::simple("t"), lit(Literal::Real(0.0))),
                ],
                to: "down".to_string(),
                pos: P,
            });
            transitions.push(TransitionDecl {
                from: "down".to_string(),
                urgent: chance(self.rng, self.p.urgent_prob),
                trigger: if alarm {
                    Trigger::Port(QName::simple("alarm"))
                } else {
                    Trigger::Internal
                },
                guard: Some(bin(BinOp::Ge, name1("t"), lit(Literal::Real(r0.min(r))))),
                effects: vec![(QName::simple("up"), lit(Literal::Bool(true)))],
                to: "ok".to_string(),
                pos: P,
            });
        } else {
            let lambda_r = rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1);
            modes.push(ModeDecl {
                name: "down".to_string(),
                initial: false,
                invariant: None,
                derivatives: Vec::new(),
                pos: P,
            });
            transitions.push(TransitionDecl {
                from: "ok".to_string(),
                urgent: false,
                trigger: Trigger::Rate(lambda_f),
                guard: None,
                effects: vec![(QName::simple("up"), lit(Literal::Bool(false)))],
                to: "down".to_string(),
                pos: P,
            });
            transitions.push(TransitionDecl {
                from: "down".to_string(),
                urgent: false,
                trigger: Trigger::Rate(lambda_r),
                guard: None,
                effects: vec![(QName::simple("up"), lit(Literal::Bool(true)))],
                to: "ok".to_string(),
                pos: P,
            });
        }
        CompBuild {
            ty: ComponentType {
                category: Category::Process,
                name: ty_name.clone(),
                features,
                pos: P,
            },
            im: ComponentImpl {
                category: Category::Process,
                name: (ty_name, "Impl".to_string()),
                subcomponents,
                connections: Vec::new(),
                flows: Vec::new(),
                modes,
                transitions,
                pos: P,
            },
            out_events,
            in_events: Vec::new(),
            in_bools: Vec::new(),
            bool_outs: vec!["up".to_string()],
            fail_atoms: vec![FailAtom::BoolPort("up".to_string(), false)],
            locs: vec!["ok".to_string(), "down".to_string()],
        }
    }

    // ---- vocabulary: lossy link with delivery/loss race ----

    fn link(&mut self, idx: usize) -> CompBuild {
        let ty_name = format!("Lnk{idx}");
        let lambda_d = rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1);
        let lambda_l = rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1);
        let d = f64_in(self.rng, 1.0, 6.0).round().max(1.0);
        let d0 = (d * f64_in(self.rng, 0.1, 0.9) * 4.0).round().max(1.0) / 4.0;
        let lost_cap = i64_in(self.rng, 2, 4);
        let count_losses = chance(self.rng, 0.7);
        let mut features = vec![
            Feature {
                name: "snd".to_string(),
                direction: Direction::In,
                data: None,
                default: None,
            },
            Feature {
                name: "rcv".to_string(),
                direction: Direction::Out,
                data: None,
                default: None,
            },
        ];
        let mut fail_atoms = Vec::new();
        if count_losses {
            features.push(Feature {
                name: "lost".to_string(),
                direction: Direction::Out,
                data: Some(DataType::Int(Some((0, lost_cap)))),
                default: Some(Literal::Int(0)),
            });
            fail_atoms.push(FailAtom::IntGe("lost".to_string(), i64_in(self.rng, 1, lost_cap)));
        }
        let clamp_inc = bin(
            BinOp::Min,
            bin(BinOp::Add, name1("lost"), lit(Literal::Int(1))),
            lit(Literal::Int(lost_cap)),
        );
        let modes = vec![
            ModeDecl {
                name: "idle".to_string(),
                initial: true,
                invariant: None,
                derivatives: Vec::new(),
                pos: P,
            },
            ModeDecl {
                name: "xfer".to_string(),
                initial: false,
                invariant: None,
                derivatives: Vec::new(),
                pos: P,
            },
            ModeDecl {
                name: "busy".to_string(),
                initial: false,
                invariant: Some(bin(BinOp::Le, name1("t"), lit(Literal::Real(d)))),
                derivatives: Vec::new(),
                pos: P,
            },
        ];
        let mut transitions = vec![
            TransitionDecl {
                from: "idle".to_string(),
                urgent: false,
                trigger: Trigger::Port(QName::simple("snd")),
                guard: None,
                effects: vec![(QName::simple("t"), lit(Literal::Real(0.0)))],
                to: "xfer".to_string(),
                pos: P,
            },
            TransitionDecl {
                from: "xfer".to_string(),
                urgent: false,
                trigger: Trigger::Rate(lambda_d),
                guard: None,
                effects: vec![(QName::simple("t"), lit(Literal::Real(0.0)))],
                to: "busy".to_string(),
                pos: P,
            },
            TransitionDecl {
                from: "busy".to_string(),
                urgent: chance(self.rng, self.p.urgent_prob),
                trigger: Trigger::Port(QName::simple("rcv")),
                guard: Some(bin(BinOp::Ge, name1("t"), lit(Literal::Real(d0.min(d))))),
                effects: Vec::new(),
                to: "idle".to_string(),
                pos: P,
            },
        ];
        let mut loss = TransitionDecl {
            from: "xfer".to_string(),
            urgent: false,
            trigger: Trigger::Rate(lambda_l),
            guard: None,
            effects: Vec::new(),
            to: "idle".to_string(),
            pos: P,
        };
        if count_losses {
            loss.effects.push((QName::simple("lost"), clamp_inc));
        }
        transitions.push(loss);
        CompBuild {
            ty: ComponentType { category: Category::Bus, name: ty_name.clone(), features, pos: P },
            im: ComponentImpl {
                category: Category::Bus,
                name: (ty_name, "Impl".to_string()),
                subcomponents: vec![Subcomponent::Data {
                    name: "t".to_string(),
                    ty: DataType::Clock,
                    init: None,
                    pos: P,
                }],
                connections: Vec::new(),
                flows: Vec::new(),
                modes,
                transitions,
                pos: P,
            },
            out_events: vec!["rcv".to_string()],
            in_events: vec!["snd".to_string()],
            in_bools: Vec::new(),
            bool_outs: Vec::new(),
            fail_atoms,
            locs: vec!["idle".to_string(), "xfer".to_string(), "busy".to_string()],
        }
    }

    // ---- vocabulary: bounded queue ----

    fn queue(&mut self, idx: usize) -> CompBuild {
        let ty_name = format!("Que{idx}");
        let cap = i64_in(self.rng, 2, 5);
        let features = vec![
            Feature {
                name: "enq".to_string(),
                direction: Direction::In,
                data: None,
                default: None,
            },
            Feature {
                name: "deq".to_string(),
                direction: Direction::Out,
                data: None,
                default: None,
            },
            Feature {
                name: "len".to_string(),
                direction: Direction::Out,
                data: Some(DataType::Int(Some((0, cap)))),
                default: Some(Literal::Int(0)),
            },
        ];
        let modes = vec![ModeDecl {
            name: "run".to_string(),
            initial: true,
            invariant: None,
            derivatives: Vec::new(),
            pos: P,
        }];
        let transitions = vec![
            TransitionDecl {
                from: "run".to_string(),
                urgent: false,
                trigger: Trigger::Port(QName::simple("enq")),
                guard: Some(bin(BinOp::Lt, name1("len"), lit(Literal::Int(cap)))),
                effects: vec![(
                    QName::simple("len"),
                    bin(BinOp::Add, name1("len"), lit(Literal::Int(1))),
                )],
                to: "run".to_string(),
                pos: P,
            },
            TransitionDecl {
                from: "run".to_string(),
                urgent: false,
                trigger: Trigger::Port(QName::simple("deq")),
                guard: Some(bin(BinOp::Gt, name1("len"), lit(Literal::Int(0)))),
                effects: vec![(
                    QName::simple("len"),
                    bin(BinOp::Sub, name1("len"), lit(Literal::Int(1))),
                )],
                to: "run".to_string(),
                pos: P,
            },
        ];
        CompBuild {
            ty: ComponentType {
                category: Category::Process,
                name: ty_name.clone(),
                features,
                pos: P,
            },
            im: ComponentImpl {
                category: Category::Process,
                name: (ty_name, "Impl".to_string()),
                subcomponents: Vec::new(),
                connections: Vec::new(),
                flows: Vec::new(),
                modes,
                transitions,
                pos: P,
            },
            out_events: vec!["deq".to_string()],
            in_events: vec!["enq".to_string()],
            in_bools: Vec::new(),
            bool_outs: Vec::new(),
            fail_atoms: vec![FailAtom::IntGe("len".to_string(), cap)],
            locs: vec!["run".to_string()],
        }
    }

    // ---- free-form worker drawn from the full grammar ----

    fn worker(&mut self, idx: usize) -> CompBuild {
        let ty_name = format!("Wrk{idx}");
        let nloc = usize_in(self.rng, 2, self.p.max_locations.max(2));
        let has_clock = chance(self.rng, 0.75);
        let cap = i64_in(self.rng, 3, 8);
        let has_int = chance(self.rng, 0.6);
        let has_flag = chance(self.rng, 0.5);
        let has_down = chance(self.rng, 0.7);
        let has_level = chance(self.rng, 0.3);
        let has_emit = chance(self.rng, 0.4);
        let has_poke = chance(self.rng, 0.4);
        let has_peer = chance(self.rng, 0.35);

        let mut features = Vec::new();
        if has_down {
            features.push(Feature {
                name: "down".to_string(),
                direction: Direction::Out,
                data: Some(DataType::Bool),
                default: Some(Literal::Bool(false)),
            });
        }
        if has_level {
            features.push(Feature {
                name: "level".to_string(),
                direction: Direction::Out,
                data: Some(DataType::Real),
                default: Some(Literal::Real(self.real_value())),
            });
        }
        if has_emit {
            features.push(Feature {
                name: "emit".to_string(),
                direction: Direction::Out,
                data: None,
                default: None,
            });
        }
        if has_poke {
            features.push(Feature {
                name: "poke".to_string(),
                direction: Direction::In,
                data: None,
                default: None,
            });
        }
        if has_peer {
            features.push(Feature {
                name: "peer".to_string(),
                direction: Direction::In,
                data: Some(DataType::Bool),
                default: Some(Literal::Bool(false)),
            });
        }

        let mut subcomponents = Vec::new();
        if has_clock {
            subcomponents.push(Subcomponent::Data {
                name: "t".to_string(),
                ty: DataType::Clock,
                init: None,
                pos: P,
            });
        }
        if has_int {
            subcomponents.push(Subcomponent::Data {
                name: "n".to_string(),
                ty: DataType::Int(Some((0, cap))),
                init: Some(Literal::Int(i64_in(self.rng, 0, cap))),
                pos: P,
            });
        }
        if has_flag {
            subcomponents.push(Subcomponent::Data {
                name: "flag".to_string(),
                ty: DataType::Bool,
                init: Some(Literal::Bool(chance(self.rng, 0.5))),
                pos: P,
            });
        }

        // Per-location flavor: a location's outgoing transitions are all
        // Markovian or all guarded (network well-formedness rule), and
        // only guarded locations may carry a clock invariant.
        let locs: Vec<String> = (0..nloc).map(|i| format!("l{i}")).collect();
        let markov: Vec<bool> =
            (0..nloc).map(|_| chance(self.rng, self.p.fault_prob * 0.5)).collect();
        let invariant: Vec<Option<f64>> = (0..nloc)
            .map(|i| {
                if has_clock && !markov[i] && chance(self.rng, self.p.invariant_prob) {
                    Some(f64_in(self.rng, 1.0, 8.0).round().max(1.0))
                } else {
                    None
                }
            })
            .collect();

        let modes: Vec<ModeDecl> = (0..nloc)
            .map(|i| ModeDecl {
                name: locs[i].clone(),
                initial: i == 0,
                invariant: invariant[i].map(|k| bin(BinOp::Le, name1("t"), lit(Literal::Real(k)))),
                derivatives: Vec::new(),
                pos: P,
            })
            .collect();

        let vars = WorkerVars {
            has_clock,
            has_int,
            cap,
            has_flag,
            has_down,
            has_level,
            has_peer,
            has_poke,
            has_emit,
        };

        let mut transitions = Vec::new();
        // Structural chain l0 → l1 → … keeps every location reachable in
        // the transition graph (modulo guards, which the fixpoint and the
        // simulator are free to disagree about — that is the point).
        for (i, &mk) in markov.iter().enumerate().take(nloc.saturating_sub(1)) {
            transitions.push(self.worker_transition(&locs, i, i + 1, mk, &vars));
        }
        let extra = usize_in(self.rng, 0, self.p.max_extra_transitions);
        for _ in 0..extra {
            let from = usize_in(self.rng, 0, nloc - 1);
            let to = usize_in(self.rng, 0, nloc - 1);
            transitions.push(self.worker_transition(&locs, from, to, markov[from], &vars));
        }
        // The last location marks failure when the component has a
        // failure port: entering it raises `down`.
        if has_down {
            for t in &mut transitions {
                if t.to == locs[nloc - 1]
                    && !t.effects.iter().any(|(n, _)| n.segments() == ["down"])
                {
                    t.effects.push((QName::simple("down"), lit(Literal::Bool(true))));
                }
            }
        }
        // Invariant soundness: any transition entering a location with a
        // clock invariant resets the clock so the invariant holds on
        // entry (the engine treats a violated invariant as a hard error).
        for t in &mut transitions {
            let target = locs.iter().position(|l| l == &t.to).expect("target exists");
            if invariant[target].is_some() && !t.effects.iter().any(|(n, _)| n.segments() == ["t"])
            {
                t.effects.push((QName::simple("t"), lit(Literal::Real(0.0))));
            }
        }

        let mut fail_atoms = Vec::new();
        if has_down {
            fail_atoms.push(FailAtom::BoolPort("down".to_string(), true));
        }
        CompBuild {
            ty: ComponentType {
                category: Category::Device,
                name: ty_name.clone(),
                features,
                pos: P,
            },
            im: ComponentImpl {
                category: Category::Device,
                name: (ty_name, "Impl".to_string()),
                subcomponents,
                connections: Vec::new(),
                flows: Vec::new(),
                modes,
                transitions,
                pos: P,
            },
            out_events: if has_emit { vec!["emit".to_string()] } else { Vec::new() },
            in_events: if has_poke { vec!["poke".to_string()] } else { Vec::new() },
            in_bools: if has_peer { vec!["peer".to_string()] } else { Vec::new() },
            bool_outs: if has_down { vec!["down".to_string()] } else { Vec::new() },
            fail_atoms,
            locs,
        }
    }

    fn worker_transition(
        &mut self,
        locs: &[String],
        from: usize,
        to: usize,
        markovian: bool,
        vars: &WorkerVars,
    ) -> TransitionDecl {
        if markovian {
            TransitionDecl {
                from: locs[from].clone(),
                urgent: false,
                trigger: Trigger::Rate(rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1)),
                guard: None,
                effects: self.worker_effects(vars),
                to: locs[to].clone(),
                pos: P,
            }
        } else {
            // Event triggers where the ports exist; τ otherwise.
            let mut ports = Vec::new();
            if vars.has_poke {
                ports.push("poke");
            }
            if vars.has_emit {
                ports.push("emit");
            }
            let trigger = if !ports.is_empty() && chance(self.rng, 0.35) {
                Trigger::Port(QName::simple(*pick(self.rng, &ports)))
            } else {
                Trigger::Internal
            };
            TransitionDecl {
                from: locs[from].clone(),
                urgent: chance(self.rng, self.p.urgent_prob),
                trigger,
                guard: self.worker_guard(vars),
                effects: self.worker_effects(vars),
                to: locs[to].clone(),
                pos: P,
            }
        }
    }

    fn worker_guard(&mut self, vars: &WorkerVars) -> Option<Expr> {
        let mut parts = Vec::new();
        if vars.has_clock && chance(self.rng, 0.5) {
            let k = (f64_in(self.rng, 0.25, 6.0) * 4.0).round().max(1.0) / 4.0;
            let op = if chance(self.rng, 0.6) { BinOp::Ge } else { BinOp::Le };
            parts.push(bin(op, name1("t"), lit(Literal::Real(k))));
        }
        if chance(self.rng, 0.6) {
            if let Some(e) = self.bool_expr(vars, self.p.max_expr_depth) {
                parts.push(e);
            }
        }
        let mut it = parts.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |a, b| bin(BinOp::And, a, b)))
    }

    fn worker_effects(&mut self, vars: &WorkerVars) -> Vec<(QName, Expr)> {
        let mut effects = Vec::new();
        if vars.has_clock && chance(self.rng, 0.4) {
            effects.push((QName::simple("t"), lit(Literal::Real(0.0))));
        }
        if vars.has_int && chance(self.rng, 0.5) {
            effects.push((QName::simple("n"), self.clamped_int_expr(vars)));
        }
        if vars.has_flag && chance(self.rng, 0.4) {
            let e = self
                .bool_expr(vars, self.p.max_expr_depth)
                .unwrap_or_else(|| lit(Literal::Bool(true)));
            effects.push((QName::simple("flag"), e));
        }
        if vars.has_down && chance(self.rng, 0.25) {
            effects.push((QName::simple("down"), lit(Literal::Bool(chance(self.rng, 0.8)))));
        }
        if vars.has_level && chance(self.rng, 0.3) {
            effects.push((QName::simple("level"), lit(Literal::Real(self.real_value()))));
        }
        effects
    }

    /// An integer expression clamped into `[0, cap]` so assignments never
    /// leave the variable's declared range at runtime.
    fn clamped_int_expr(&mut self, vars: &WorkerVars) -> Expr {
        let inner = self.int_expr(vars, self.p.max_expr_depth);
        bin(BinOp::Max, bin(BinOp::Min, inner, lit(Literal::Int(vars.cap))), lit(Literal::Int(0)))
    }

    fn int_expr(&mut self, vars: &WorkerVars, depth: usize) -> Expr {
        if depth == 0 || chance(self.rng, 0.4) {
            if vars.has_int && chance(self.rng, 0.6) {
                name1("n")
            } else {
                lit(Literal::Int(i64_in(self.rng, 0, vars.cap.max(1))))
            }
        } else {
            let a = self.int_expr(vars, depth - 1);
            let b = self.int_expr(vars, depth - 1);
            match usize_in(self.rng, 0, 4) {
                0 => bin(BinOp::Add, a, b),
                1 => bin(BinOp::Sub, a, b),
                2 => bin(BinOp::Mul, a, b),
                3 => bin(BinOp::Min, a, b),
                _ => {
                    let c = self.bool_expr(vars, 1).unwrap_or_else(|| lit(Literal::Bool(true)));
                    Expr::Ite(Box::new(c), Box::new(a), Box::new(b))
                }
            }
        }
    }

    fn bool_expr(&mut self, vars: &WorkerVars, depth: usize) -> Option<Expr> {
        let mut leaves: Vec<Expr> = Vec::new();
        if vars.has_flag {
            leaves.push(name1("flag"));
        }
        if vars.has_peer {
            leaves.push(name1("peer"));
        }
        if vars.has_int {
            let op = *pick(self.rng, &[BinOp::Lt, BinOp::Le, BinOp::Ge, BinOp::Eq, BinOp::Ne]);
            leaves.push(bin(op, name1("n"), lit(Literal::Int(i64_in(self.rng, 0, vars.cap)))));
        }
        if leaves.is_empty() {
            return None;
        }
        Some(self.bool_expr_from(&leaves, depth))
    }

    fn bool_expr_from(&mut self, leaves: &[Expr], depth: usize) -> Expr {
        if depth == 0 || chance(self.rng, 0.5) {
            pick(self.rng, leaves).clone()
        } else {
            let a = self.bool_expr_from(leaves, depth - 1);
            match usize_in(self.rng, 0, 4) {
                0 => Expr::Not(Box::new(a)),
                1 => bin(BinOp::And, a, self.bool_expr_from(leaves, depth - 1)),
                2 => bin(BinOp::Or, a, self.bool_expr_from(leaves, depth - 1)),
                3 => bin(BinOp::Xor, a, self.bool_expr_from(leaves, depth - 1)),
                _ => bin(BinOp::Implies, a, self.bool_expr_from(leaves, depth - 1)),
            }
        }
    }

    /// A real literal — usually small and dyadic, occasionally drawn from
    /// the extreme pool to exercise numeric printing/parsing edges.
    fn real_value(&mut self) -> f64 {
        if chance(self.rng, self.p.extreme_real_prob) {
            *pick(self.rng, &[1e15, 1e16, 4.0e18, 2.0e19, 9007199254740993.0, 0.001, 123456789.5])
        } else {
            (f64_in(self.rng, 0.0, 16.0) * 4.0).round() / 4.0
        }
    }

    // ---- error models (§II-D) ----

    fn error_model(
        &mut self,
        inst: &str,
        port: &str,
        bad_value: bool,
    ) -> (ErrorModel, FaultInjection) {
        let lambda = rate_in(self.rng, self.p.rate_range.0, self.p.rate_range.1);
        let path = q(&["root", inst, port]);
        let with_recovery = chance(self.rng, 0.5);
        let mut states =
            vec![ErrorState { name: "good".to_string(), initial: true, invariant: None, pos: P }];
        let mut transitions = Vec::new();
        let mut effects: Vec<(String, QName, Literal)> = Vec::new();
        if with_recovery {
            // good --λ--> degraded --[r0 ≤ c ≤ r]--> good, with a second
            // exponential race into the absorbing dead state.
            let r = f64_in(self.rng, 1.0, 6.0).round().max(1.0);
            let r0 = (r * f64_in(self.rng, 0.25, 0.75) * 4.0).round().max(1.0) / 4.0;
            states.push(ErrorState {
                name: "degraded".to_string(),
                initial: false,
                invariant: Some(bin(BinOp::Le, name1("c"), lit(Literal::Real(r)))),
                pos: P,
            });
            transitions.push(ErrorTransition {
                from: "good".to_string(),
                trigger: ErrorTrigger::Rate(lambda),
                to: "degraded".to_string(),
                pos: P,
            });
            transitions.push(ErrorTransition {
                from: "degraded".to_string(),
                trigger: ErrorTrigger::When(bin(
                    BinOp::Ge,
                    name1("c"),
                    lit(Literal::Real(r0.min(r))),
                )),
                to: "good".to_string(),
                pos: P,
            });
            effects.push(("degraded".to_string(), path.clone(), Literal::Bool(bad_value)));
            effects.push(("good".to_string(), path, Literal::Bool(!bad_value)));
        } else {
            states.push(ErrorState {
                name: "dead".to_string(),
                initial: false,
                invariant: None,
                pos: P,
            });
            transitions.push(ErrorTransition {
                from: "good".to_string(),
                trigger: ErrorTrigger::Rate(lambda),
                to: "dead".to_string(),
                pos: P,
            });
            effects.push(("dead".to_string(), path, Literal::Bool(bad_value)));
        }
        (
            ErrorModel { name: "Fail".to_string(), states, transitions, pos: P },
            FaultInjection {
                target: q(&["root", inst]),
                error_model: "Fail".to_string(),
                effects,
                pos: P,
            },
        )
    }
}

/// Which local variables/ports a worker component owns.
struct WorkerVars {
    has_clock: bool,
    has_int: bool,
    cap: i64,
    has_flag: bool,
    has_down: bool,
    has_level: bool,
    has_peer: bool,
    has_poke: bool,
    has_emit: bool,
}
