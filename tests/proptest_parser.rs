//! Randomized property tests for the SLIM front-end: pretty-print → parse
//! is the identity on generated models (cases are drawn from the seeded
//! workspace RNG, so every run is reproducible).

mod common;

use common::*;
use slimsim::lang::ast::*;
use slimsim::lang::{parse, pretty};

fn ident(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let len = usize_in(rng, 1, 9);
        let mut s = String::new();
        s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
        for _ in 1..len {
            s.push(REST[rng.gen_range(0..REST.len())] as char);
        }
        if slimsim::lang::token::Keyword::from_str(&s).is_none() {
            return s;
        }
    }
}

fn qname(rng: &mut StdRng) -> QName {
    QName(vec_of(rng, 1, 3, ident))
}

fn literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..3) {
        0 => Literal::Bool(rng.gen::<bool>()),
        1 => Literal::Int(i64_in(rng, -1000, 1000)),
        _ => Literal::Real((f64_in(rng, -100.0, 100.0) * 64.0).round() / 64.0),
    }
}

fn datatype(rng: &mut StdRng) -> DataType {
    match rng.gen_range(0..6) {
        0 => DataType::Bool,
        1 => DataType::Int(None),
        2 => DataType::Int(Some((i64_in(rng, -50, 0), i64_in(rng, 1, 50)))),
        3 => DataType::Real,
        4 => DataType::Clock,
        _ => DataType::Continuous,
    }
}

/// Expression literals are non-negative: the concrete syntax produces
/// `Neg(Lit(5))` for `-5`, never `Lit(-5)` (negative literals only occur
/// in initializer/default positions).
fn expr_literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..3) {
        0 => Literal::Bool(rng.gen::<bool>()),
        1 => Literal::Int(i64_in(rng, 0, 1000)),
        _ => Literal::Real((f64_in(rng, 0.0, 100.0) * 64.0).round() / 64.0),
    }
}

fn expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return if rng.gen::<bool>() {
            Expr::Lit(expr_literal(rng))
        } else {
            Expr::Name(qname(rng))
        };
    }
    const OPS: &[BinOp] = &[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Implies,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    match rng.gen_range(0..4) {
        0 => Expr::Bin(
            *pick(rng, OPS),
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        ),
        1 => Expr::Not(Box::new(expr(rng, depth - 1))),
        2 => Expr::Neg(Box::new(expr(rng, depth - 1))),
        _ => Expr::Ite(
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        ),
    }
}

fn feature(rng: &mut StdRng) -> Feature {
    let name = ident(rng);
    let direction = if rng.gen::<bool>() { Direction::In } else { Direction::Out };
    match option_of(rng, |rng| (datatype(rng), option_of(rng, literal))) {
        None => Feature { name, direction, data: None, default: None },
        Some((ty, default)) => Feature { name, direction, data: Some(ty), default },
    }
}

fn mode(rng: &mut StdRng) -> ModeDecl {
    ModeDecl {
        name: ident(rng),
        initial: rng.gen::<bool>(),
        invariant: option_of(rng, |rng| expr(rng, 2)),
        derivatives: vec_of(rng, 0, 2, |rng| {
            (qname(rng), (f64_in(rng, -10.0, 10.0) * 16.0).round() / 16.0)
        }),
        pos: Default::default(),
    }
}

fn transition(rng: &mut StdRng) -> TransitionDecl {
    let trigger = match rng.gen_range(0..3) {
        0 => Trigger::Internal,
        1 => Trigger::Port(qname(rng)),
        _ => Trigger::Rate((f64_in(rng, 0.01, 10.0) * 64.0).round() / 64.0),
    };
    // `rate` and `urgent` are mutually exclusive in the grammar's
    // semantics; the printer would still emit them, so normalize.
    let urgent = rng.gen::<bool>() && !matches!(trigger, Trigger::Rate(_));
    TransitionDecl {
        from: ident(rng),
        urgent,
        trigger,
        guard: option_of(rng, |rng| expr(rng, 2)),
        effects: vec_of(rng, 0, 3, |rng| (qname(rng), expr(rng, 2))),
        to: ident(rng),
        pos: Default::default(),
    }
}

fn model(rng: &mut StdRng) -> Model {
    let tname = format!("T{}", ident(rng));
    let mut m = Model::default();
    m.types.push(ComponentType {
        category: Category::Device,
        name: tname.clone(),
        features: vec_of(rng, 0, 4, feature),
        pos: Default::default(),
    });
    m.impls.push(ComponentImpl {
        category: Category::Device,
        name: (tname, "I".into()),
        subcomponents: vec_of(rng, 0, 3, |rng| Subcomponent::Data {
            name: ident(rng),
            ty: datatype(rng),
            init: option_of(rng, literal),
            pos: Default::default(),
        }),
        connections: vec![],
        flows: vec_of(rng, 0, 2, |rng| FlowDef {
            target: qname(rng),
            expr: expr(rng, 2),
            pos: Default::default(),
        }),
        modes: vec_of(rng, 0, 3, mode),
        transitions: vec_of(rng, 0, 3, transition),
        pos: Default::default(),
    });
    m
}

#[test]
fn pretty_then_parse_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x5eed_9a25e2);
    for case in 0..192 {
        let m = model(&mut rng);
        let printed = pretty(&m);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!("case {case}: re-parse failed: {e}\n--- printed ---\n{printed}")
        });
        assert_eq!(reparsed, m, "case {case}: printed:\n{printed}");
    }
}

#[test]
fn pretty_is_a_fixed_point() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f1fed);
    for case in 0..192 {
        let m = model(&mut rng);
        let p1 = pretty(&m);
        if let Ok(m2) = parse(&p1) {
            let p2 = pretty(&m2);
            assert_eq!(p1, p2, "case {case}");
        }
    }
}
