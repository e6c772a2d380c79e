//! Abstract syntax of the SLIM subset (see `docs/slim-grammar.md`).
//!
//! Declaration nodes carry the source position (`pos`) of their first
//! token so diagnostics can point at `line:col`. Positions are metadata:
//! they do not participate in equality, so structurally identical models
//! compare equal regardless of where they were written.

use crate::token::Pos;
use std::fmt;

/// A dotted name `a.b.c` (component paths, port references).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QName(pub Vec<String>);

impl QName {
    /// A single-segment name.
    pub fn simple(s: impl Into<String>) -> QName {
        QName(vec![s.into()])
    }

    /// Builds from dot-separated text.
    pub fn parse(s: &str) -> QName {
        QName(s.split('.').map(str::to_string).collect())
    }

    /// The segments.
    pub fn segments(&self) -> &[String] {
        &self.0
    }

    /// Appends a segment.
    pub fn child(&self, seg: impl Into<String>) -> QName {
        let mut v = self.0.clone();
        v.push(seg.into());
        QName(v)
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

/// AADL component categories (semantically interchangeable tags in the
/// subset; kept for fidelity of the surface syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Category {
    System,
    Device,
    Process,
    Processor,
    Bus,
    Thread,
    Memory,
    Abstract,
}

impl Category {
    /// Concrete spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::System => "system",
            Category::Device => "device",
            Category::Process => "process",
            Category::Processor => "processor",
            Category::Bus => "bus",
            Category::Thread => "thread",
            Category::Memory => "memory",
            Category::Abstract => "abstract",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Surface data types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// Integer with optional range.
    Int(Option<(i64, i64)>),
    /// Real.
    Real,
    /// Clock (derivative 1 everywhere).
    Clock,
    /// Continuous (per-mode derivative).
    Continuous,
}

/// Literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
}

/// Surface expressions (names unresolved).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal.
    Lit(Literal),
    /// Possibly-dotted name.
    Name(QName),
    /// Unary logical negation.
    Not(Box<Expr>),
    /// Unary arithmetic negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `if c then t else e`.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Surface binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    And,
    Or,
    Xor,
    Implies,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Direction {
    In,
    Out,
}

/// A feature (port) of a component type.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Port name.
    pub name: String,
    /// In/out.
    pub direction: Direction,
    /// `None` for event ports, `Some(ty)` for data ports.
    pub data: Option<DataType>,
    /// Default value for data ports.
    pub default: Option<Literal>,
}

impl Feature {
    /// True for event ports.
    pub fn is_event(&self) -> bool {
        self.data.is_none()
    }
}

/// A component type declaration.
#[derive(Debug, Clone)]
pub struct ComponentType {
    /// Category tag.
    pub category: Category,
    /// Type name.
    pub name: String,
    /// Ports.
    pub features: Vec<Feature>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ComponentType {
    fn eq(&self, o: &Self) -> bool {
        self.category == o.category && self.name == o.name && self.features == o.features
    }
}

/// A subcomponent declaration inside an implementation.
#[derive(Debug, Clone)]
pub enum Subcomponent {
    /// A data component.
    Data {
        /// Local name.
        name: String,
        /// Type.
        ty: DataType,
        /// Initial value.
        init: Option<Literal>,
        /// Source position of the declaration.
        pos: Pos,
    },
    /// A nested component instance.
    Instance {
        /// Local name.
        name: String,
        /// Category tag (must match the implementation's).
        category: Category,
        /// Implementation reference `Type.Impl`.
        impl_ref: (String, String),
        /// Source position of the declaration.
        pos: Pos,
    },
}

impl PartialEq for Subcomponent {
    fn eq(&self, o: &Self) -> bool {
        match (self, o) {
            (
                Subcomponent::Data { name: an, ty: at, init: ai, .. },
                Subcomponent::Data { name: bn, ty: bt, init: bi, .. },
            ) => an == bn && at == bt && ai == bi,
            (
                Subcomponent::Instance { name: an, category: ac, impl_ref: ar, .. },
                Subcomponent::Instance { name: bn, category: bc, impl_ref: br, .. },
            ) => an == bn && ac == bc && ar == br,
            _ => false,
        }
    }
}

impl Subcomponent {
    /// The declared local name.
    pub fn name(&self) -> &str {
        match self {
            Subcomponent::Data { name, .. } | Subcomponent::Instance { name, .. } => name,
        }
    }
}

/// A port-to-port connection.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Source port (qualified from the implementation's viewpoint).
    pub from: QName,
    /// Target port.
    pub to: QName,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for Connection {
    fn eq(&self, o: &Self) -> bool {
        self.from == o.from && self.to == o.to
    }
}

/// A flow definition `out_port := expr`.
#[derive(Debug, Clone)]
pub struct FlowDef {
    /// Target (an out data port or local data).
    pub target: QName,
    /// Defining expression.
    pub expr: Expr,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for FlowDef {
    fn eq(&self, o: &Self) -> bool {
        self.target == o.target && self.expr == o.expr
    }
}

/// A mode (location) declaration.
#[derive(Debug, Clone)]
pub struct ModeDecl {
    /// Mode name.
    pub name: String,
    /// Marked `initial`.
    pub initial: bool,
    /// Invariant (`while`), if any.
    pub invariant: Option<Expr>,
    /// Derivatives `der x = r`.
    pub derivatives: Vec<(QName, f64)>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ModeDecl {
    fn eq(&self, o: &Self) -> bool {
        self.name == o.name
            && self.initial == o.initial
            && self.invariant == o.invariant
            && self.derivatives == o.derivatives
    }
}

/// A transition trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Internal (no event).
    Internal,
    /// An event port.
    Port(QName),
    /// An exponential rate.
    Rate(f64),
}

/// A mode transition.
#[derive(Debug, Clone)]
pub struct TransitionDecl {
    /// Source mode.
    pub from: String,
    /// Urgent (eager) transition: time may not pass beyond its first
    /// enabling instant.
    pub urgent: bool,
    /// Trigger.
    pub trigger: Trigger,
    /// Guard (`when`).
    pub guard: Option<Expr>,
    /// Effects (`then`).
    pub effects: Vec<(QName, Expr)>,
    /// Target mode.
    pub to: String,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for TransitionDecl {
    fn eq(&self, o: &Self) -> bool {
        self.from == o.from
            && self.urgent == o.urgent
            && self.trigger == o.trigger
            && self.guard == o.guard
            && self.effects == o.effects
            && self.to == o.to
    }
}

/// A component implementation.
#[derive(Debug, Clone)]
pub struct ComponentImpl {
    /// Category tag.
    pub category: Category,
    /// `(Type, Impl)` name pair.
    pub name: (String, String),
    /// Subcomponents.
    pub subcomponents: Vec<Subcomponent>,
    /// Connections.
    pub connections: Vec<Connection>,
    /// Flows.
    pub flows: Vec<FlowDef>,
    /// Modes.
    pub modes: Vec<ModeDecl>,
    /// Transitions.
    pub transitions: Vec<TransitionDecl>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ComponentImpl {
    fn eq(&self, o: &Self) -> bool {
        self.category == o.category
            && self.name == o.name
            && self.subcomponents == o.subcomponents
            && self.connections == o.connections
            && self.flows == o.flows
            && self.modes == o.modes
            && self.transitions == o.transitions
    }
}

/// An error-model state.
#[derive(Debug, Clone)]
pub struct ErrorState {
    /// State name.
    pub name: String,
    /// Marked `initial`.
    pub initial: bool,
    /// Invariant over the implicit clock `c`.
    pub invariant: Option<Expr>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ErrorState {
    fn eq(&self, o: &Self) -> bool {
        self.name == o.name && self.initial == o.initial && self.invariant == o.invariant
    }
}

/// An error-model transition trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorTrigger {
    /// Error event with exponential rate.
    Rate(f64),
    /// Timed condition over the implicit clock `c`.
    When(Expr),
    /// Named error propagation (synchronizes across error models).
    Propagation(String),
}

/// An error-model transition.
#[derive(Debug, Clone)]
pub struct ErrorTransition {
    /// Source state.
    pub from: String,
    /// Trigger.
    pub trigger: ErrorTrigger,
    /// Target state.
    pub to: String,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ErrorTransition {
    fn eq(&self, o: &Self) -> bool {
        self.from == o.from && self.trigger == o.trigger && self.to == o.to
    }
}

/// An error model (§II-D: states + error events/propagations).
#[derive(Debug, Clone)]
pub struct ErrorModel {
    /// Model name.
    pub name: String,
    /// States.
    pub states: Vec<ErrorState>,
    /// Transitions.
    pub transitions: Vec<ErrorTransition>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for ErrorModel {
    fn eq(&self, o: &Self) -> bool {
        self.name == o.name && self.states == o.states && self.transitions == o.transitions
    }
}

/// A fault injection binding an error model to a component instance
/// (model extension, §II-D).
#[derive(Debug, Clone)]
pub struct FaultInjection {
    /// Instance path of the affected component (from the root).
    pub target: QName,
    /// Error model name.
    pub error_model: String,
    /// `(error state, data path, value)` — applied on entering the state.
    pub effects: Vec<(String, QName, Literal)>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl PartialEq for FaultInjection {
    fn eq(&self, o: &Self) -> bool {
        self.target == o.target && self.error_model == o.error_model && self.effects == o.effects
    }
}

/// A parsed model: all declarations of a source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Component types.
    pub types: Vec<ComponentType>,
    /// Component implementations.
    pub impls: Vec<ComponentImpl>,
    /// Error models.
    pub error_models: Vec<ErrorModel>,
    /// Fault injections.
    pub injections: Vec<FaultInjection>,
}

impl Model {
    /// Finds a component type by name.
    pub fn find_type(&self, name: &str) -> Option<&ComponentType> {
        self.types.iter().find(|t| t.name == name)
    }

    /// Finds an implementation by `(type, impl)` name.
    pub fn find_impl(&self, ty: &str, im: &str) -> Option<&ComponentImpl> {
        self.impls.iter().find(|i| i.name.0 == ty && i.name.1 == im)
    }

    /// Finds an error model by name.
    pub fn find_error_model(&self, name: &str) -> Option<&ErrorModel> {
        self.error_models.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_parse_display() {
        let q = QName::parse("gps1.pos.x");
        assert_eq!(q.segments().len(), 3);
        assert_eq!(q.to_string(), "gps1.pos.x");
        assert_eq!(QName::simple("a").child("b").to_string(), "a.b");
    }

    #[test]
    fn feature_kinds() {
        let ev = Feature { name: "go".into(), direction: Direction::In, data: None, default: None };
        assert!(ev.is_event());
        let dp = Feature {
            name: "v".into(),
            direction: Direction::Out,
            data: Some(DataType::Bool),
            default: Some(Literal::Bool(true)),
        };
        assert!(!dp.is_event());
    }

    #[test]
    fn model_lookups() {
        let mut m = Model::default();
        m.types.push(ComponentType {
            category: Category::Device,
            name: "GPS".into(),
            features: vec![],
            pos: Pos::START,
        });
        m.impls.push(ComponentImpl {
            category: Category::Device,
            name: ("GPS".into(), "Impl".into()),
            subcomponents: vec![],
            connections: vec![],
            flows: vec![],
            modes: vec![],
            transitions: vec![],
            pos: Pos::START,
        });
        m.error_models.push(ErrorModel {
            name: "E".into(),
            states: vec![],
            transitions: vec![],
            pos: Pos::START,
        });
        assert!(m.find_type("GPS").is_some());
        assert!(m.find_impl("GPS", "Impl").is_some());
        assert!(m.find_impl("GPS", "Other").is_none());
        assert!(m.find_error_model("E").is_some());
    }

    #[test]
    fn subcomponent_name() {
        let d = Subcomponent::Data {
            name: "x".into(),
            ty: DataType::Real,
            init: None,
            pos: Pos::START,
        };
        assert_eq!(d.name(), "x");
    }
}
