//! Compiled simulation kernel: step tables + allocation-free stepping.
//!
//! The legacy semantics in [`crate::network`] re-walk guard/effect ASTs and
//! allocate fresh `Vec`s/[`IntervalSet`]s on every step. This module
//! compiles a [`Network`] once into [`StepTables`] — per-(process, location)
//! transition indices, per-action sync skeletons, and postfix bytecode for
//! guards, invariants, effects and flows — and evaluates steps through a
//! reusable [`StepScratch`] workspace so that the steady-state hot path
//! (`delay_window_into`, `guarded_candidates_into`,
//! `markovian_candidates_into`, `advance_mut`, `apply_mut`) performs **zero
//! heap allocations**.
//!
//! The compiled kernel is semantics-identical to the legacy methods: same
//! candidate enumeration order (τ transitions by process then transition
//! id, sync actions by action id with the last participant varying
//! fastest), same empty-window filtering points, and same error values in
//! the same evaluation order. Every well-typed guard compiles — numeric
//! `if` included, via lazy branch ops that mirror the legacy solver's
//! evaluation order exactly. Ill-typed guards (which validated networks
//! never contain) fall back to the legacy AST solver per guard —
//! allocating, but byte-identical in behavior.
//!
//! One caveat: `=`/`!=` between Boolean and numeric operands is dispatched
//! at *compile* time from declared variable types, where the legacy solver
//! inspects runtime values. The two agree on every type-canonical state
//! (which the engine maintains invariantly); hand-built states that store a
//! value of the wrong kind in a variable are outside the compiled kernel's
//! contract.

use crate::automaton::{ActionId, GuardKind, LocId, ProcId, TransId};
use crate::error::EvalError;
use crate::eval::{eval_bin, Valuation};
use crate::expr::{BinOp, Expr, VarId};
use crate::interval::{Interval, IntervalSet};
use crate::linear::{solve, Aff, DelayEnv};
use crate::network::{Network, INVARIANT_TOLERANCE};
use crate::state::NetState;
use crate::value::{Value, VarType};
use slim_obs::profile::{NoopProfile, ProfileHooks, ProfileLabels, ProfileShape};

// ---------------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------------

/// One op of a compiled guard program. Set-valued ops work on a stack of
/// pooled [`IntervalSet`]s, numeric ops on a stack of affine forms.
#[derive(Debug, Clone)]
enum SolveOp {
    /// Push `[0, ∞)`.
    SetTrue,
    /// Push `∅`.
    SetFalse,
    /// Push the window of a Boolean variable (all/empty by its value).
    SetVar(VarId),
    /// Complement the top set.
    Complement,
    /// Intersect the top two sets.
    Intersect,
    /// Union the top two sets.
    Union,
    /// Symmetric difference of the top two sets.
    Xor,
    /// Boolean (co)incidence of the top two sets: `Eq` keeps delays where
    /// both or neither hold, `Ne` its complement.
    BoolEq,
    BoolNe,
    /// `if c then t else e` over the top three sets (c deepest).
    IteSet,
    /// Pop two affine forms `a`, `b` and push the delay set of `a op b`.
    Cmp(BinOp),
    /// Fused `AffVar(v); AffConst(k); Cmp(op)`: push the delay set of
    /// `ν(v) + rate(v)·d  op  k` directly, skipping the affine stack.
    CmpVarConst(BinOp, VarId, f64),
    /// Fused `AffConst(k); AffVar(v); Cmp(op)`: push the delay set of
    /// `k  op  ν(v) + rate(v)·d`.
    CmpConstVar(BinOp, f64, VarId),
    /// Push a constant affine form.
    AffConst(f64),
    /// Push `ν(v) + rate(v)·d`.
    AffVar(VarId),
    /// Negate the top affine form.
    AffNeg,
    AffAdd,
    AffSub,
    /// Multiply; errors `NonLinear` (with the pre-rendered context at the
    /// given index) unless one operand is constant.
    AffMul(u32),
    AffDiv(u32),
    AffMin(u32),
    AffMax(u32),
    /// Lazy numeric `if`: pop the condition set. Falls through into the
    /// then-branch when the condition holds at *every* delay, skips
    /// `else_skip` ops (into the else-branch) when it holds at none, and
    /// otherwise errors `NonLinear` with the context at `ctx` — mirroring
    /// the legacy solver, which evaluates only the selected branch.
    AffBranch {
        ctx: u32,
        else_skip: u32,
    },
    /// Skip the next `n` ops (jump over an else-branch).
    AffJump(u32),
    /// Fused `SetVar(v); Complement`: push the negated window of a
    /// Boolean variable. Errors exactly where `SetVar` would.
    SetVarNot(VarId),
    /// Fused Boolean-conditioned numeric `if` over constants — the exact
    /// five-op window `SetVar(v); AffBranch; AffConst(t); AffJump;
    /// AffConst(e)` — pushing the selected constant affine form in one
    /// dispatch. The branch's `NonLinear` arm is unreachable here (a
    /// Boolean variable's window is all-or-nothing), so no context index
    /// is carried.
    AffSelVar {
        v: VarId,
        t: f64,
        e: f64,
    },
    /// Fused `CmpVarConst(op, v, k); Intersect`: solve the compare
    /// window and intersect it with the set below it in one dispatch —
    /// the `… && x op k` conjunction tail that dominates the discrete
    /// zoo models' digram profiles. Reads and errors exactly as the
    /// two-op sequence does.
    CmpVarConstAnd(BinOp, VarId, f64),
    /// Fused `CmpVarConst(op, v, k); Union` — the `… || x op k`
    /// disjunction tail.
    CmpVarConstOr(BinOp, VarId, f64),
}

/// Whole-program shapes [`fuse_solve`] recognizes after fusion. A guard
/// whose entire program is one of these skips the stack machine: the
/// unprofiled interpreters dispatch on the shape directly
/// ([`SolveScratch::run_spec_into`] / [`spec_truth`]), bit-identical to
/// executing the program op by op. Profiled runs always execute the
/// program so opcode/digram streams stay observable.
#[derive(Debug, Clone)]
enum GuardSpec {
    /// `[SetVar(v)]` — the window of a Boolean variable.
    BoolVar(VarId),
    /// `[SetVarNot(v)]`.
    BoolVarNot(VarId),
    /// `[CmpVarConst(op, v, k)]`.
    CmpVarConst(BinOp, VarId, f64),
    /// `[CmpConstVar(op, k, v)]`.
    CmpConstVar(BinOp, f64, VarId),
    /// A pure conjunction of `var op const` atoms: only `CmpVarConst`
    /// pushes joined by `Intersect`s. Atoms are stored in program order,
    /// so reads (and their errors) happen in the same order as the
    /// program; intersection is associative bit-exactly on the normalized
    /// interval representation, so the left fold below equals any
    /// association the program used.
    Conj(Box<[(BinOp, VarId, f64)]>),
}

/// A compiled guard: postfix ops plus pre-rendered expression contexts for
/// `NonLinear` diagnostics (cloned only on the error path), and the
/// recognized whole-program shape, if any.
#[derive(Debug, Clone)]
struct SolveProg {
    ops: Vec<SolveOp>,
    ctx: Vec<String>,
    spec: Option<GuardSpec>,
}

/// How a guard/invariant is evaluated at runtime.
#[derive(Debug, Clone)]
enum GuardCode {
    /// State-independent: solved once at compile time.
    Static(IntervalSet),
    /// Compiled postfix program.
    Prog(SolveProg),
    /// A compiled program none of whose variables can ever carry a
    /// nonzero rate: every affine form it builds is constant over the
    /// delay axis, so its window is all-or-nothing and the program runs
    /// on the Boolean interpreter ([`SolveScratch::run_bool`]) instead of
    /// the interval-set machine. Same ops, same evaluation order, same
    /// errors — only the set algebra collapses to `bool`.
    DelayFree(SolveProg),
    /// Construct outside the compiled subset (e.g. numeric `if` inside a
    /// guard): solved from the AST at runtime. Allocates, but preserves
    /// legacy behavior exactly.
    Fallback(Expr),
}

/// One op of a compiled value program (effects, flows).
#[derive(Debug, Clone)]
enum EvalOp {
    Const(Value),
    Var(VarId),
    Not,
    Neg,
    /// Non-short-circuit binary op (arithmetic or comparison).
    Bin(BinOp),
    /// Pop a Boolean; on `false` push `false` and skip the next `n` ops.
    AndJump(u32),
    /// Pop a Boolean; on `true` push `true` and skip the next `n` ops.
    OrJump(u32),
    /// Pop a Boolean; on `false` push `true` and skip the next `n` ops.
    ImpliesJump(u32),
    /// Pop, require Boolean, push back (surfaces `as_bool` errors at the
    /// same point the recursive evaluator would).
    CastBool,
    /// Pop `b` (require Boolean), pop `a`, push `a ^ b`.
    Xor,
    /// Pop a Boolean; on `false` skip the next `n` ops.
    JumpIfFalse(u32),
    /// Skip the next `n` ops.
    Jump(u32),
    /// Fused `Var(v); Const(k); Bin(op)`: push `ν(v) op k`.
    VarConstBin(BinOp, VarId, Value),
    /// Fused `Var(a); Var(b); Bin(op)`: push `ν(a) op ν(b)`.
    VarVarBin(BinOp, VarId, VarId),
    /// Fused `Const(k); Bin(op)`: pop `a`, push `a op k`.
    BinConst(BinOp, Value),
    /// Fused `Var(v); Const(k); Bin(op); JumpIfFalse(skip)`: evaluate
    /// `ν(v) op k`, require Boolean, and skip on `false` — the compiled
    /// `if var op const then … else …` header in one dispatch.
    VarCmpConstJumpFalse {
        op: BinOp,
        v: VarId,
        k: Value,
        skip: u32,
    },
    /// Fused Boolean select — the exact five-op diamond `Var(v);
    /// JumpIfFalse(2); Const(t); Jump(1); Const(e)`, i.e. the compiled
    /// `if b then t else e` over constants — pushing the chosen constant
    /// in one dispatch. Requires Boolean exactly where `JumpIfFalse`
    /// would.
    VarSelConst {
        v: VarId,
        t: Value,
        e: Value,
    },
}

/// Whole-program shapes [`fuse_eval`] recognizes after fusion, evaluated
/// by [`run_eval_spec`] without touching the value stack. Like
/// [`GuardSpec`], only unprofiled runs take the shortcut.
#[derive(Debug, Clone)]
enum EvalSpec {
    /// `[Const(v)]`.
    Const(Value),
    /// `[Var(v)]` — an aliasing assignment.
    Var(VarId),
    /// `[VarConstBin(op, v, k)]` — e.g. the counter bump `n + 1`.
    VarConstBin(BinOp, VarId, Value),
    /// `[VarVarBin(op, a, b)]`.
    VarVarBin(BinOp, VarId, VarId),
    /// `[VarConstBin(op1, v, k1); BinConst(op2, k2)]` — e.g. the clamped
    /// update `(n + 1) min 10`.
    VarConstBinConst(BinOp, VarId, Value, BinOp, Value),
    /// `[VarSelConst { v, t, e }]` — the whole program is one Boolean
    /// select, `if b then t else e` over constants.
    VarSelConst(VarId, Value, Value),
}

/// A compiled value program, plus its recognized whole-program shape.
#[derive(Debug, Clone)]
struct EvalProg {
    ops: Vec<EvalOp>,
    spec: Option<EvalSpec>,
}

// ---------------------------------------------------------------------------
// Step tables
// ---------------------------------------------------------------------------

/// A compiled guarded local transition.
#[derive(Debug, Clone)]
struct CompiledGuarded {
    trans: TransId,
    guard: GuardCode,
    urgent: bool,
}

/// One participant of a synchronizing action: its process and, per
/// location, the locally enabled transitions carrying the action.
#[derive(Debug, Clone)]
struct SyncPart {
    proc: ProcId,
    by_loc: Vec<Vec<CompiledGuarded>>,
}

/// Sync skeleton of one action: participants in participant-table order.
#[derive(Debug, Clone)]
struct SyncTable {
    action: ActionId,
    parts: Vec<SyncPart>,
}

/// Compiled effect `var := prog` with the target's declared type.
#[derive(Debug, Clone)]
struct CompiledEffect {
    var: VarId,
    ty: VarType,
    prog: EvalProg,
}

/// Compiled local transition: target location + effects.
#[derive(Debug, Clone)]
struct CompiledTrans {
    to: LocId,
    effects: Vec<CompiledEffect>,
    /// Bit `i` set ⇒ flow `i` must re-run after this transition's effects:
    /// the write-set closure of the effect targets over the topologically
    /// ordered flow list. All-ones when masking is disabled or the network
    /// has more than 64 flows (run everything, the pre-masking behavior).
    flow_mask: u64,
}

/// Compiled data flow. The target's name is captured at compile time so
/// flow errors render identically to the legacy path without a network
/// lookup.
#[derive(Debug, Clone)]
struct CompiledFlow {
    target: VarId,
    ty: VarType,
    name: String,
    /// Variables the flow expression reads — the edge set the write-set
    /// closure in [`flow_mask_from`] walks.
    reads: Vec<VarId>,
    prog: EvalProg,
}

/// Precomputed stepping tables of a [`Network`] — build once with
/// [`Network::compile`], then drive steps through a [`StepScratch`].
///
/// The tables borrow nothing: they can be cloned per worker or shared
/// behind a reference.
#[derive(Debug, Clone)]
pub struct StepTables {
    /// τ-labeled Boolean transitions, `[proc][loc]`.
    tau: Vec<Vec<Vec<CompiledGuarded>>>,
    /// Markovian transitions `(id, rate)`, `[proc][loc]`.
    markov: Vec<Vec<Vec<(TransId, f64)>>>,
    /// Sync skeletons in ascending action order (τ and participant-less
    /// actions excluded, like the legacy enumeration).
    sync: Vec<SyncTable>,
    /// Invariant per `[proc][loc]`; `None` when constant `true`.
    invariants: Vec<Vec<Option<GuardCode>>>,
    /// All local transitions, `[proc][trans]`.
    trans: Vec<Vec<CompiledTrans>>,
    /// Compiled flows in topological order.
    flows: Vec<CompiledFlow>,
    /// Rate baseline: 1.0 for clocks, 0.0 otherwise (location rates are
    /// overlaid per state).
    base_rates: Vec<f64>,
    /// False when every location invariant is constant `true`: delay
    /// windows are then always `[0, ∞)` and post-advance invariant
    /// re-checks are skipped.
    has_invariants: bool,
    /// False when no variable can ever carry a nonzero rate (no clocks,
    /// no location rate declarations): the rate buffer is then all-zero
    /// in every state and per-step refreshes are skipped.
    has_rates: bool,
    /// Flow mask for time advances: the write-set closure of the rated
    /// variables (the only ones `advance` mutates). All-ones when masking
    /// is disabled.
    advance_flow_mask: u64,
    /// Incremental-enabling read masks of the τ guards, `[proc][loc]`
    /// (see [`tau_read_mask`]). All `None` — every scan in full — under
    /// [`CompileOptions::reference`] or with more than 64 variables.
    tau_reads: Vec<Vec<Option<u64>>>,
    /// False under [`CompileOptions::reference`]:
    /// [`StepScratch::begin_path`] then leaves the scratch in full-scan
    /// mode, rebuilding the Markovian list on every call too.
    incremental: bool,
    /// Some location has at least [`MIN_REUSE_GUARDS`] reusable guards.
    incremental_pays: bool,
}

impl StepTables {
    /// True when incremental enabling can pay on this network: the
    /// optimizing tiers are on and some location holds at least
    /// [`MIN_REUSE_GUARDS`] delay-free τ guards that a scan may skip. The
    /// engine begins its paths with [`StepScratch::begin_path`] when this
    /// holds and with [`StepScratch::begin_full_path`] otherwise.
    pub fn incremental_pays(&self) -> bool {
        self.incremental_pays
    }

    /// Number of guards/invariants that could not be flattened to solver
    /// bytecode and fall back to the allocating AST solver at runtime.
    ///
    /// Zero means every evaluation in the stepping hot path runs on the
    /// compiled programs — the precondition for the simulator's
    /// zero-allocation steady state (see the `alloc_check` gate in the
    /// bench crate).
    pub fn fallback_guards(&self) -> usize {
        let count = |cg: &CompiledGuarded| matches!(cg.guard, GuardCode::Fallback(_)) as usize;
        self.tau.iter().flatten().flatten().map(count).sum::<usize>()
            + self
                .sync
                .iter()
                .flat_map(|t| &t.parts)
                .flat_map(|p| &p.by_loc)
                .flatten()
                .map(count)
                .sum::<usize>()
            + self
                .invariants
                .iter()
                .flatten()
                .flatten()
                .filter(|g| matches!(g, GuardCode::Fallback(_)))
                .count()
    }

    /// Verifies every compiled bytecode program in the tables: stack
    /// discipline (no underflow, correct final depth on both the set and
    /// the affine stack), jump targets within bounds, context and variable
    /// indices in range, and consistent stack depths at every join point.
    ///
    /// [`Network::compile`] re-checks its own output with this in debug
    /// builds; the CLI exposes it as `slimsim lint --verify-bytecode` so a
    /// model author can audit the exact programs the simulator will run.
    ///
    /// # Errors
    /// The first violation found, locating the offending program and op.
    pub fn verify_bytecode(&self) -> Result<BytecodeReport, BytecodeError> {
        let n_vars = self.base_rates.len();
        let mut report = BytecodeReport::default();

        let guard = |code: &GuardCode,
                     at: &dyn Fn() -> String,
                     report: &mut BytecodeReport|
         -> Result<(), BytecodeError> {
            match code {
                GuardCode::Static(_) => report.static_guards += 1,
                GuardCode::Fallback(_) => report.fallback_guards += 1,
                GuardCode::Prog(p) | GuardCode::DelayFree(p) => {
                    verify_solve(p, n_vars).map_err(|(pc, reason)| BytecodeError {
                        program: at(),
                        pc,
                        reason,
                    })?;
                    report.guard_programs += 1;
                    report.ops += p.ops.len();
                }
            }
            Ok(())
        };

        for (p, by_loc) in self.tau.iter().enumerate() {
            for (l, cgs) in by_loc.iter().enumerate() {
                for (i, cg) in cgs.iter().enumerate() {
                    guard(&cg.guard, &|| format!("tau guard proc {p} loc {l} #{i}"), &mut report)?;
                }
            }
        }
        for table in &self.sync {
            for part in &table.parts {
                for (l, cgs) in part.by_loc.iter().enumerate() {
                    for (i, cg) in cgs.iter().enumerate() {
                        guard(
                            &cg.guard,
                            &|| {
                                format!(
                                    "sync guard action {} proc {} loc {l} #{i}",
                                    table.action.0, part.proc.0
                                )
                            },
                            &mut report,
                        )?;
                    }
                }
            }
        }
        for (p, by_loc) in self.invariants.iter().enumerate() {
            for (l, code) in by_loc.iter().enumerate() {
                if let Some(code) = code {
                    guard(code, &|| format!("invariant proc {p} loc {l}"), &mut report)?;
                }
            }
        }

        let value = |prog: &EvalProg,
                     target: VarId,
                     at: &dyn Fn() -> String,
                     report: &mut BytecodeReport|
         -> Result<(), BytecodeError> {
            if target.0 >= n_vars {
                return Err(BytecodeError {
                    program: at(),
                    pc: 0,
                    reason: format!("target v{} out of bounds ({n_vars} variables)", target.0),
                });
            }
            verify_eval(prog, n_vars).map_err(|(pc, reason)| BytecodeError {
                program: at(),
                pc,
                reason,
            })?;
            report.value_programs += 1;
            report.ops += prog.ops.len();
            Ok(())
        };

        for (p, ts) in self.trans.iter().enumerate() {
            for (t, ct) in ts.iter().enumerate() {
                for (i, eff) in ct.effects.iter().enumerate() {
                    value(
                        &eff.prog,
                        eff.var,
                        &|| format!("effect proc {p} trans {t} #{i}"),
                        &mut report,
                    )?;
                }
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            value(&f.prog, f.target, &|| format!("flow #{i} ({})", f.name), &mut report)?;
        }
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Bytecode verification
// ---------------------------------------------------------------------------

/// A bytecode verification failure: which program, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeError {
    /// The program that failed (e.g. `tau guard proc 0 loc 1 #2`).
    pub program: String,
    /// Offending op index; `ops.len()` for end-of-program violations.
    pub pc: usize,
    /// What the check found.
    pub reason: String,
}

impl std::fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at pc {}: {}", self.program, self.pc, self.reason)
    }
}

impl std::error::Error for BytecodeError {}

/// Statistics from a successful [`StepTables::verify_bytecode`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytecodeReport {
    /// Solver (guard/invariant) programs verified.
    pub guard_programs: usize,
    /// Value (effect/flow) programs verified.
    pub value_programs: usize,
    /// Guards resolved to constant windows at compile time (nothing to
    /// verify).
    pub static_guards: usize,
    /// Guards kept as AST fallbacks (checked by the network validator, not
    /// the bytecode verifier).
    pub fallback_guards: usize,
    /// Total ops across all verified programs.
    pub ops: usize,
}

impl BytecodeReport {
    /// Total programs inspected, including static and fallback guards.
    pub fn programs(&self) -> usize {
        self.guard_programs + self.value_programs + self.static_guards + self.fallback_guards
    }
}

/// Checks a jump landing `skip + 1` ops past `pc`; `len` itself is a valid
/// target (end of program).
fn jump_target(pc: usize, skip: u32, len: usize) -> Result<usize, (usize, String)> {
    let target = pc + skip as usize + 1;
    if target > len {
        return Err((pc, format!("jump target {target} out of bounds (program length {len})")));
    }
    Ok(target)
}

/// Abstractly runs a solver program over every control path, tracking the
/// depths of the interval-set stack and the affine-form stack per pc. The
/// compiler only emits straight-line code joined by forward jumps, so each
/// pc has exactly one consistent depth pair; a conflict, an underflow, an
/// out-of-range index, or a wrong final depth means the program was not
/// produced by the compiler (or was corrupted since).
fn verify_solve(prog: &SolveProg, n_vars: usize) -> Result<(), (usize, String)> {
    let len = prog.ops.len();
    let n_ctx = prog.ctx.len();
    let mut seen: Vec<Option<(usize, usize)>> = vec![None; len + 1];
    let mut work: Vec<(usize, usize, usize)> = vec![(0, 0, 0)];
    while let Some((pc, set, aff)) = work.pop() {
        if let Some(prev) = seen[pc] {
            if prev != (set, aff) {
                return Err((
                    pc,
                    format!(
                        "inconsistent stack depths at join: (set {}, aff {}) vs (set {set}, aff {aff})",
                        prev.0, prev.1
                    ),
                ));
            }
            continue;
        }
        seen[pc] = Some((set, aff));
        if pc == len {
            if set != 1 || aff != 0 {
                return Err((
                    pc,
                    format!("program ends with set depth {set}, aff depth {aff} (want 1, 0)"),
                ));
            }
            continue;
        }
        let need_set = |n: usize| -> Result<(), (usize, String)> {
            if set < n {
                Err((pc, format!("set stack underflow: op needs {n}, depth is {set}")))
            } else {
                Ok(())
            }
        };
        let need_aff = |n: usize| -> Result<(), (usize, String)> {
            if aff < n {
                Err((pc, format!("aff stack underflow: op needs {n}, depth is {aff}")))
            } else {
                Ok(())
            }
        };
        let need_ctx = |c: u32| -> Result<(), (usize, String)> {
            if (c as usize) < n_ctx {
                Ok(())
            } else {
                Err((pc, format!("context index {c} out of bounds ({n_ctx} contexts)")))
            }
        };
        let need_var = |v: VarId| -> Result<(), (usize, String)> {
            if v.0 < n_vars {
                Ok(())
            } else {
                Err((pc, format!("variable v{} out of bounds ({n_vars} variables)", v.0)))
            }
        };
        match &prog.ops[pc] {
            SolveOp::SetTrue | SolveOp::SetFalse => work.push((pc + 1, set + 1, aff)),
            SolveOp::SetVar(v) => {
                need_var(*v)?;
                work.push((pc + 1, set + 1, aff));
            }
            SolveOp::Complement => {
                need_set(1)?;
                work.push((pc + 1, set, aff));
            }
            SolveOp::Intersect
            | SolveOp::Union
            | SolveOp::Xor
            | SolveOp::BoolEq
            | SolveOp::BoolNe => {
                need_set(2)?;
                work.push((pc + 1, set - 1, aff));
            }
            SolveOp::IteSet => {
                need_set(3)?;
                work.push((pc + 1, set - 2, aff));
            }
            SolveOp::Cmp(_) => {
                need_aff(2)?;
                work.push((pc + 1, set + 1, aff - 2));
            }
            SolveOp::CmpVarConst(_, v, _) | SolveOp::CmpConstVar(_, _, v) => {
                need_var(*v)?;
                work.push((pc + 1, set + 1, aff));
            }
            SolveOp::AffConst(_) => work.push((pc + 1, set, aff + 1)),
            SolveOp::AffVar(v) => {
                need_var(*v)?;
                work.push((pc + 1, set, aff + 1));
            }
            SolveOp::AffNeg => {
                need_aff(1)?;
                work.push((pc + 1, set, aff));
            }
            SolveOp::AffAdd | SolveOp::AffSub => {
                need_aff(2)?;
                work.push((pc + 1, set, aff - 1));
            }
            SolveOp::AffMul(c) | SolveOp::AffDiv(c) | SolveOp::AffMin(c) | SolveOp::AffMax(c) => {
                need_aff(2)?;
                need_ctx(*c)?;
                work.push((pc + 1, set, aff - 1));
            }
            SolveOp::AffBranch { ctx, else_skip } => {
                need_set(1)?;
                need_ctx(*ctx)?;
                work.push((pc + 1, set - 1, aff));
                work.push((jump_target(pc, *else_skip, len)?, set - 1, aff));
            }
            SolveOp::AffJump(n) => work.push((jump_target(pc, *n, len)?, set, aff)),
            SolveOp::SetVarNot(v) => {
                need_var(*v)?;
                work.push((pc + 1, set + 1, aff));
            }
            SolveOp::AffSelVar { v, .. } => {
                need_var(*v)?;
                work.push((pc + 1, set, aff + 1));
            }
            SolveOp::CmpVarConstAnd(_, v, _) | SolveOp::CmpVarConstOr(_, v, _) => {
                need_var(*v)?;
                need_set(1)?;
                work.push((pc + 1, set, aff));
            }
        }
    }
    Ok(())
}

/// Abstractly runs a value program over every control path, tracking the
/// value-stack depth per pc (same discipline as [`verify_solve`], one
/// stack).
fn verify_eval(prog: &EvalProg, n_vars: usize) -> Result<(), (usize, String)> {
    let len = prog.ops.len();
    let mut seen: Vec<Option<usize>> = vec![None; len + 1];
    let mut work: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some((pc, depth)) = work.pop() {
        if let Some(prev) = seen[pc] {
            if prev != depth {
                return Err((pc, format!("inconsistent stack depths at join: {prev} vs {depth}")));
            }
            continue;
        }
        seen[pc] = Some(depth);
        if pc == len {
            if depth != 1 {
                return Err((pc, format!("program ends with stack depth {depth} (want 1)")));
            }
            continue;
        }
        let need = |n: usize| -> Result<(), (usize, String)> {
            if depth < n {
                Err((pc, format!("value stack underflow: op needs {n}, depth is {depth}")))
            } else {
                Ok(())
            }
        };
        match &prog.ops[pc] {
            EvalOp::Const(_) => work.push((pc + 1, depth + 1)),
            EvalOp::Var(v) => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth + 1));
            }
            EvalOp::Not | EvalOp::Neg | EvalOp::CastBool => {
                need(1)?;
                work.push((pc + 1, depth));
            }
            EvalOp::Bin(_) | EvalOp::Xor => {
                need(2)?;
                work.push((pc + 1, depth - 1));
            }
            // Pops the condition; when the jump is taken it pushes the
            // short-circuit result back, so the jump target sees the
            // pre-pop depth and the fall-through sees one less.
            EvalOp::AndJump(n) | EvalOp::OrJump(n) | EvalOp::ImpliesJump(n) => {
                need(1)?;
                work.push((pc + 1, depth - 1));
                work.push((jump_target(pc, *n, len)?, depth));
            }
            EvalOp::JumpIfFalse(n) => {
                need(1)?;
                work.push((pc + 1, depth - 1));
                work.push((jump_target(pc, *n, len)?, depth - 1));
            }
            EvalOp::Jump(n) => work.push((jump_target(pc, *n, len)?, depth)),
            EvalOp::VarConstBin(_, v, _) => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth + 1));
            }
            EvalOp::VarVarBin(_, a, b) => {
                for v in [a, b] {
                    if v.0 >= n_vars {
                        return Err((
                            pc,
                            format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                        ));
                    }
                }
                work.push((pc + 1, depth + 1));
            }
            EvalOp::BinConst(..) => {
                need(1)?;
                work.push((pc + 1, depth));
            }
            // Net stack effect zero on both paths: the fused window pushes
            // the variable, the constant, pops both for the comparison and
            // pops the condition again. Its remapped jump lands on an op
            // boundary by construction of the fusion pass; `jump_target`
            // still bounds it.
            EvalOp::VarCmpConstJumpFalse { v, skip, .. } => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth));
                work.push((jump_target(pc, *skip, len)?, depth));
            }
            EvalOp::VarSelConst { v, .. } => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth + 1));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Working stacks of the compiled guard solver.
#[derive(Debug, Default)]
struct SolveScratch {
    sets: Vec<IntervalSet>,
    depth: usize,
    affs: Vec<Aff>,
    t1: IntervalSet,
    t2: IntervalSet,
    t3: IntervalSet,
    t4: IntervalSet,
    /// Boolean/constant stacks of the delay-free interpreter
    /// ([`SolveScratch::run_bool`]); mirror `sets`/`affs`.
    bools: Vec<bool>,
    consts: Vec<f64>,
}

/// A raw guarded candidate produced by
/// [`Network::guarded_candidates_into`] — the pooled, field-reusing
/// counterpart of [`crate::network::GuardedCandidate`].
#[derive(Debug, Clone)]
pub struct CandidateBuf {
    /// The synchronizing action (τ for internal moves).
    pub action: ActionId,
    /// Participating `(process, local transition)` pairs.
    pub parts: Vec<(ProcId, TransId)>,
    /// Delays at which all local guards hold (not yet intersected with the
    /// invariant window).
    pub window: IntervalSet,
    /// True if any participating local transition is urgent.
    pub urgent: bool,
}

impl Default for CandidateBuf {
    fn default() -> Self {
        CandidateBuf {
            action: ActionId::TAU,
            parts: Vec::new(),
            window: IntervalSet::empty(),
            urgent: false,
        }
    }
}

/// One participant option during sync cross-product construction.
#[derive(Debug, Clone)]
struct OptBuf {
    trans: TransId,
    window: IntervalSet,
    urgent: bool,
}

impl Default for OptBuf {
    fn default() -> Self {
        OptBuf { trans: TransId(0), window: IntervalSet::empty(), urgent: false }
    }
}

/// One partial combination during sync cross-product construction.
#[derive(Debug, Clone, Default)]
struct ComboBuf {
    parts: Vec<(ProcId, TransId)>,
    window: IntervalSet,
    urgent: bool,
}

/// Sentinel location index: no cached scan or segment for this process.
const NO_LOC: usize = usize::MAX;

/// Per-path incremental-enabling state of a [`StepScratch`] (see
/// [`StepScratch::begin_path`]). Every field is sized by the process
/// count, so nothing here grows with the number of steps.
#[derive(Debug, Default)]
struct Incremental {
    /// A path is in progress: scans may reuse earlier results.
    active: bool,
    /// Bit `v` set ⇒ variable `v` changed value since the last τ guard
    /// scan. Written by effects and flow re-runs whether or not a path is
    /// active; variables from index 64 on are not tracked (networks that
    /// large never reuse a scan).
    changed: u64,
    /// Per process: the location the last scan evaluated with a reusable
    /// result (its τ guards are all delay-free), or [`NO_LOC`], and which
    /// of them were enabled (bit `i` ⇒ guard `i`).
    tau: Vec<(usize, u64)>,
    /// The Markovian list was built since the path began; later calls
    /// patch it.
    markov_built: bool,
    /// Per process: the location its Markovian segment was built for.
    markov_loc: Vec<usize>,
    /// Segment boundaries in the Markovian list: process `p` owns
    /// `markov_start[p]..markov_start[p + 1]`.
    markov_start: Vec<usize>,
}

/// Reusable per-worker workspace for the compiled kernel.
///
/// All buffers grow to a high-water mark during the first few steps and
/// are reused afterwards; in steady state no method taking a
/// `&mut StepScratch` allocates (except guards compiled to
/// [`GuardCode::Fallback`], which are rare and documented).
#[derive(Debug)]
pub struct StepScratch {
    rates: Vec<f64>,
    solver: SolveScratch,
    vals: Vec<Value>,
    guard_result: IntervalSet,
    temp_w: IntervalSet,
    cands: Vec<CandidateBuf>,
    n_cands: usize,
    opts: Vec<OptBuf>,
    n_opts: usize,
    opt_ranges: Vec<(usize, usize)>,
    combo_a: Vec<ComboBuf>,
    n_combo_a: usize,
    combo_b: Vec<ComboBuf>,
    n_combo_b: usize,
    markov: Vec<(ProcId, TransId, f64)>,
    markov_total: f64,
    inc: Incremental,
    writes: Vec<(VarId, Value)>,
    backup: NetState,
    // Dedicated to `invariants_violated`: its throwaway window output may
    // not share a buffer with `temp_w`, which `delay_window_into` uses
    // internally while that output is checked out.
    inv_check: IntervalSet,
}

impl Default for StepScratch {
    fn default() -> StepScratch {
        StepScratch::new()
    }
}

impl StepScratch {
    /// Creates an empty workspace; buffers size themselves on first use.
    pub fn new() -> StepScratch {
        StepScratch {
            rates: Vec::new(),
            solver: SolveScratch::default(),
            vals: Vec::new(),
            guard_result: IntervalSet::empty(),
            temp_w: IntervalSet::empty(),
            cands: Vec::new(),
            n_cands: 0,
            opts: Vec::new(),
            n_opts: 0,
            opt_ranges: Vec::new(),
            combo_a: Vec::new(),
            n_combo_a: 0,
            combo_b: Vec::new(),
            n_combo_b: 0,
            markov: Vec::new(),
            markov_total: 0.0,
            inc: Incremental::default(),
            writes: Vec::new(),
            backup: NetState::new(Vec::new(), Valuation::new(Vec::new())),
            inv_check: IntervalSet::empty(),
        }
    }

    /// Candidates produced by the last
    /// [`Network::guarded_candidates_into`] call, in legacy enumeration
    /// order.
    pub fn candidates(&self) -> &[CandidateBuf] {
        &self.cands[..self.n_cands]
    }

    /// Markovian candidates `(proc, transition, rate)` produced by the
    /// last [`Network::markovian_candidates_into`] call.
    pub fn markovian(&self) -> &[(ProcId, TransId, f64)] {
        &self.markov
    }

    /// Total exit rate of [`StepScratch::markovian`], summed in list order
    /// by the last [`Network::markovian_candidates_into`] call.
    pub fn markovian_total(&self) -> f64 {
        self.markov_total
    }

    /// Begins a path: switches the scratch to incremental enabling for
    /// `t`'s network, forgetting everything cached for earlier paths.
    ///
    /// Until the next `begin_path`, the τ guard scan of
    /// [`Network::guarded_candidates_into`] skips a process whose
    /// location is unchanged since the previous scan, whose τ guards are
    /// all delay-free, and none of whose read variables changed value; it
    /// re-emits the previous scan's enabled set instead. The Markovian
    /// list is patched in place for processes that moved. Both are exact
    /// only while every change to the state goes through this scratch's
    /// [`Network::advance_mut`] and [`Network::apply_mut`] family, so call
    /// this whenever the state is (re)loaded. A scratch on which no path
    /// was begun, or which was last begun with
    /// [`StepScratch::begin_full_path`], scans in full, as does one begun
    /// under tables compiled with [`CompileOptions::reference`]. With
    /// more than 64 variables only the Markovian list is patched.
    pub fn begin_path(&mut self, t: &StepTables) {
        let n = t.tau.len();
        let inc = &mut self.inc;
        inc.active = t.incremental;
        inc.changed = 0;
        inc.markov_built = false;
        if inc.tau.len() != n {
            inc.markov_loc.resize(n, NO_LOC);
            inc.markov_start.resize(n + 1, 0);
            inc.tau.resize(n, (NO_LOC, 0));
        }
        inc.tau.fill((NO_LOC, 0));
    }

    /// Begins a path in full-scan mode: every later scan evaluates every
    /// guard and rebuilds the Markovian list, as if no path had ever been
    /// begun on this scratch.
    pub fn begin_full_path(&mut self) {
        self.inc.active = false;
    }
}

/// Bit-level value identity: a write that stores the same bits is not a
/// change (`-0.0` → `0.0` is one, since a guard may divide by it).
fn same_value(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// Writes `v := value`, setting `v`'s bit in `changed` when the stored
/// value differs. Errors exactly like [`Valuation::set`].
#[inline]
fn set_tracked(
    nu: &mut Valuation,
    v: VarId,
    value: Value,
    changed: &mut u64,
) -> Result<(), EvalError> {
    let old = nu.replace(v, value)?;
    if v.0 < 64 && !same_value(old, value) {
        *changed |= 1 << v.0;
    }
    Ok(())
}

/// Acquires the next candidate slot, reusing retired buffers.
fn next_cand<'a>(pool: &'a mut Vec<CandidateBuf>, used: &mut usize) -> &'a mut CandidateBuf {
    if *used == pool.len() {
        pool.push(CandidateBuf::default());
    }
    *used += 1;
    &mut pool[*used - 1]
}

fn next_opt<'a>(pool: &'a mut Vec<OptBuf>, used: &mut usize) -> &'a mut OptBuf {
    if *used == pool.len() {
        pool.push(OptBuf::default());
    }
    *used += 1;
    &mut pool[*used - 1]
}

fn next_combo<'a>(pool: &'a mut Vec<ComboBuf>, used: &mut usize) -> &'a mut ComboBuf {
    if *used == pool.len() {
        pool.push(ComboBuf::default());
    }
    *used += 1;
    &mut pool[*used - 1]
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Marker: the expression uses a construct the bytecode does not model;
/// the whole guard falls back to the AST solver.
struct Unsupported;

/// True for every variable that can carry a nonzero rate in some
/// location: clocks (base rate 1) plus any variable a location rate
/// declaration drives. A guard whose affine ops reference none of these
/// builds constant forms only, in every reachable state.
fn rated_vars(net: &Network) -> Vec<bool> {
    let mut rated: Vec<bool> = net.vars().iter().map(|v| v.ty == VarType::Clock).collect();
    for a in net.automata() {
        for l in &a.locations {
            for &(v, r) in &l.rates {
                if r != 0.0 {
                    rated[v.0] = true;
                }
            }
        }
    }
    rated
}

/// The variable a solver op reads, if any — exhaustive, so a new op
/// cannot silently escape the delay-free tiering or the read masks.
fn solve_op_var(op: &SolveOp) -> Option<VarId> {
    match op {
        SolveOp::SetVar(v)
        | SolveOp::SetVarNot(v)
        | SolveOp::AffVar(v)
        | SolveOp::AffSelVar { v, .. }
        | SolveOp::CmpVarConst(_, v, _)
        | SolveOp::CmpConstVar(_, _, v)
        | SolveOp::CmpVarConstAnd(_, v, _)
        | SolveOp::CmpVarConstOr(_, v, _) => Some(*v),
        SolveOp::SetTrue
        | SolveOp::SetFalse
        | SolveOp::Complement
        | SolveOp::Intersect
        | SolveOp::Union
        | SolveOp::Xor
        | SolveOp::BoolEq
        | SolveOp::BoolNe
        | SolveOp::IteSet
        | SolveOp::Cmp(_)
        | SolveOp::AffConst(_)
        | SolveOp::AffNeg
        | SolveOp::AffAdd
        | SolveOp::AffSub
        | SolveOp::AffMul(_)
        | SolveOp::AffDiv(_)
        | SolveOp::AffMin(_)
        | SolveOp::AffMax(_)
        | SolveOp::AffBranch { .. }
        | SolveOp::AffJump(_) => None,
    }
}

/// Downgrades a compiled program to the Boolean interpreter
/// ([`GuardCode::DelayFree`]) when none of its ops can produce a
/// non-constant form. Boolean reads (`SetVar`, the `AffSelVar` condition)
/// never carry a rate, so checking every variable read is exact.
fn specialize_delay_free(code: GuardCode, rated: &[bool]) -> GuardCode {
    let delay_free = |p: &SolveProg| {
        p.ops.iter().filter_map(solve_op_var).all(|v| !rated.get(v.0).copied().unwrap_or(false))
    };
    match code {
        GuardCode::Prog(p) if delay_free(&p) => GuardCode::DelayFree(p),
        other => other,
    }
}

/// Compilation knobs for [`Network::compile_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the optimizing tiers: superinstruction fusion
    /// ([`fuse_solve`]/[`fuse_eval`]), whole-program specialization
    /// ([`GuardSpec`]/[`EvalSpec`]), and write-set flow masking. On by
    /// default; [`CompileOptions::reference`] turns it off, producing the
    /// maximally conservative op-by-op kernel that re-establishes every
    /// flow — the baseline the fusion-equivalence fuzz oracle compares
    /// against.
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions { optimize: true }
    }
}

impl CompileOptions {
    /// The unoptimized reference configuration: no fusion, no
    /// specialization, no flow masking.
    pub fn reference() -> CompileOptions {
        CompileOptions { optimize: false }
    }
}

/// Incremental enabling pays only on networks with a location of at least
/// this many reusable τ guards (see [`StepTables::incremental_pays`]).
/// Below that, the per-step bookkeeping costs more than the scans it can
/// skip: on the one-guard voting and repair models it measured 2–6%
/// slower per step, while the 29-guard monitor of sensor–filter n = 14
/// runs a third faster.
const MIN_REUSE_GUARDS: usize = 4;

/// Read mask of a `[proc][loc]` τ guard list for incremental enabling:
/// the union of the guards' read sets when every guard is
/// [`GuardCode::DelayFree`] (its truth is then a pure function of the
/// variables it reads) and there are at most 64 of them. `None` means
/// "evaluate in full". The caller guarantees every variable index is
/// below 64.
fn tau_read_mask(cgs: &[CompiledGuarded]) -> Option<u64> {
    if cgs.len() > 64 {
        return None;
    }
    let mut mask = 0u64;
    for cg in cgs {
        let GuardCode::DelayFree(prog) = &cg.guard else { return None };
        for v in prog.ops.iter().filter_map(solve_op_var) {
            mask |= 1 << v.0;
        }
    }
    Some(mask)
}

fn compile_guard(e: &Expr, net: &Network, optimize: bool) -> GuardCode {
    let mut prog = SolveProg { ops: Vec::new(), ctx: Vec::new(), spec: None };
    if compile_solve(e, net, &mut prog).is_err() {
        return GuardCode::Fallback(e.clone());
    }
    let state_dependent =
        prog.ops.iter().any(|op| matches!(op, SolveOp::SetVar(_) | SolveOp::AffVar(_)));
    if !state_dependent {
        // Evaluate once; a deterministic runtime error (e.g. constant
        // division by zero) keeps the program so the error surfaces on
        // every call, exactly like the legacy solver.
        let nu = Valuation::new(Vec::new());
        let mut sv = SolveScratch::default();
        if sv.run(&prog, &nu, &[], &mut NoopProfile).is_ok() {
            let mut set = IntervalSet::empty();
            std::mem::swap(&mut set, &mut sv.sets[0]);
            return GuardCode::Static(set);
        }
    }
    if optimize {
        fuse_solve(&mut prog);
        prog.spec = solve_spec_of(&prog.ops);
    }
    GuardCode::Prog(prog)
}

/// One original jump as `(source pc, target pc)` pairs, for both fusers.
fn jump_edges<T>(ops: &[T], target_of: impl Fn(usize, &T) -> Option<usize>) -> Vec<(usize, usize)> {
    ops.iter().enumerate().filter_map(|(pc, op)| target_of(pc, op).map(|t| (pc, t))).collect()
}

/// True when the window `[i, i+n)` may fuse: no jump from outside the
/// window lands strictly inside it (targets at `i` or `i+n` are op
/// boundaries and stay valid). Jumps *inside* the window are consumed or
/// remapped together with it.
fn window_ok(jumps: &[(usize, usize)], i: usize, n: usize) -> bool {
    jumps.iter().all(|&(src, tgt)| (src >= i && src < i + n) || tgt <= i || tgt >= i + n)
}

/// Peephole superinstruction fusion over a solver program. The windows —
/// mined from the `KernelProfile` digram reports on the model zoo (see
/// docs/performance.md) — are matched longest-first at each position:
///
/// * `SetVar; AffBranch; AffConst; AffJump; AffConst` → [`SolveOp::AffSelVar`]
///   (the `(if b then t else e)` quorum-counting pattern),
/// * `AffVar; AffConst; Cmp; Intersect` → [`SolveOp::CmpVarConstAnd`]
///   (and `… ; Union` → [`SolveOp::CmpVarConstOr`]) — the conjunction /
///   disjunction tails of multi-atom guards,
/// * `AffVar; AffConst; Cmp` → [`SolveOp::CmpVarConst`] (and mirrored →
///   [`SolveOp::CmpConstVar`]) — the ubiquitous `variable cmp constant`,
/// * `SetVar; Complement` → [`SolveOp::SetVarNot`] (negated-flag
///   conjunctions).
///
/// Programs with jumps fuse too: surviving jumps are remapped through a
/// position table after the rewrite, and [`window_ok`] refuses any window
/// an outside jump lands inside, so every remapped target is an op
/// boundary in the fused program.
fn fuse_solve(prog: &mut SolveProg) {
    let ops = std::mem::take(&mut prog.ops);
    let len = ops.len();
    let target_of = |pc: usize, op: &SolveOp| match op {
        SolveOp::AffBranch { else_skip, .. } => Some(pc + *else_skip as usize + 1),
        SolveOp::AffJump(n) => Some(pc + *n as usize + 1),
        _ => None,
    };
    let jumps = jump_edges(&ops, target_of);
    let mut fused: Vec<SolveOp> = Vec::with_capacity(len);
    // `(fused index, original target)` of every surviving jump.
    let mut live_jumps: Vec<(usize, usize)> = Vec::new();
    let mut new_pc_of: Vec<usize> = vec![usize::MAX; len + 1];
    let mut i = 0;
    while i < len {
        new_pc_of[i] = fused.len();
        if i + 5 <= len && window_ok(&jumps, i, 5) {
            if let [SolveOp::SetVar(v), SolveOp::AffBranch { else_skip: 2, .. }, SolveOp::AffConst(t), SolveOp::AffJump(1), SolveOp::AffConst(e)] =
                &ops[i..i + 5]
            {
                fused.push(SolveOp::AffSelVar { v: *v, t: *t, e: *e });
                i += 5;
                continue;
            }
        }
        if i + 4 <= len && window_ok(&jumps, i, 4) {
            if let [SolveOp::AffVar(v), SolveOp::AffConst(k), SolveOp::Cmp(cmp), join] =
                &ops[i..i + 4]
            {
                let tail = match join {
                    SolveOp::Intersect => Some(SolveOp::CmpVarConstAnd(*cmp, *v, *k)),
                    SolveOp::Union => Some(SolveOp::CmpVarConstOr(*cmp, *v, *k)),
                    _ => None,
                };
                if let Some(op) = tail {
                    fused.push(op);
                    i += 4;
                    continue;
                }
            }
        }
        if i + 3 <= len && window_ok(&jumps, i, 3) {
            match &ops[i..i + 3] {
                [SolveOp::AffVar(v), SolveOp::AffConst(k), SolveOp::Cmp(cmp)] => {
                    fused.push(SolveOp::CmpVarConst(*cmp, *v, *k));
                    i += 3;
                    continue;
                }
                [SolveOp::AffConst(k), SolveOp::AffVar(v), SolveOp::Cmp(cmp)] => {
                    fused.push(SolveOp::CmpConstVar(*cmp, *k, *v));
                    i += 3;
                    continue;
                }
                _ => {}
            }
        }
        if i + 2 <= len && window_ok(&jumps, i, 2) {
            if let [SolveOp::SetVar(v), SolveOp::Complement] = &ops[i..i + 2] {
                fused.push(SolveOp::SetVarNot(*v));
                i += 2;
                continue;
            }
        }
        if let Some(t) = target_of(i, &ops[i]) {
            live_jumps.push((fused.len(), t));
        }
        fused.push(ops[i].clone());
        i += 1;
    }
    new_pc_of[len] = fused.len();
    for (idx, old_t) in live_jumps {
        let new_t = new_pc_of[old_t];
        debug_assert_ne!(new_t, usize::MAX, "jump target is an op boundary");
        let skip = (new_t - idx - 1) as u32;
        match &mut fused[idx] {
            SolveOp::AffBranch { else_skip, .. } => *else_skip = skip,
            SolveOp::AffJump(n) => *n = skip,
            _ => unreachable!("only jump ops record targets"),
        }
    }
    prog.ops = fused;
}

/// Recognizes a fused solver program that is, in its entirety, one of the
/// [`GuardSpec`] shapes.
fn solve_spec_of(ops: &[SolveOp]) -> Option<GuardSpec> {
    match ops {
        [SolveOp::SetVar(v)] => Some(GuardSpec::BoolVar(*v)),
        [SolveOp::SetVarNot(v)] => Some(GuardSpec::BoolVarNot(*v)),
        [SolveOp::CmpVarConst(op, v, k)] => Some(GuardSpec::CmpVarConst(*op, *v, *k)),
        [SolveOp::CmpConstVar(op, k, v)] => Some(GuardSpec::CmpConstVar(*op, *k, *v)),
        _ => {
            // Conjunction shape: `CmpVarConst` pushes joined by
            // `Intersect`s (or their fused `CmpVarConstAnd` form) with
            // valid postfix stack discipline, in any association.
            let mut atoms = Vec::new();
            let mut depth = 0usize;
            for op in ops {
                match op {
                    SolveOp::CmpVarConst(c, v, k) => {
                        atoms.push((*c, *v, *k));
                        depth += 1;
                    }
                    SolveOp::CmpVarConstAnd(c, v, k) => {
                        if depth < 1 {
                            return None;
                        }
                        atoms.push((*c, *v, *k));
                    }
                    SolveOp::Intersect => {
                        if depth < 2 {
                            return None;
                        }
                        depth -= 1;
                    }
                    _ => return None,
                }
            }
            (depth == 1 && atoms.len() >= 2).then(|| GuardSpec::Conj(atoms.into_boxed_slice()))
        }
    }
}

/// Peephole superinstruction fusion over a value program — same remapping
/// machinery as [`fuse_solve`], with the value-program windows:
/// `Var; Const; Bin; JumpIfFalse` → [`EvalOp::VarCmpConstJumpFalse`],
/// `Var; Const; Bin` → [`EvalOp::VarConstBin`], `Var; Var; Bin` →
/// [`EvalOp::VarVarBin`], and `Const; Bin` → [`EvalOp::BinConst`].
fn fuse_eval(prog: &mut EvalProg) {
    let ops = std::mem::take(&mut prog.ops);
    let len = ops.len();
    let target_of = |pc: usize, op: &EvalOp| match op {
        EvalOp::AndJump(n)
        | EvalOp::OrJump(n)
        | EvalOp::ImpliesJump(n)
        | EvalOp::JumpIfFalse(n)
        | EvalOp::Jump(n) => Some(pc + *n as usize + 1),
        _ => None,
    };
    let jumps = jump_edges(&ops, target_of);
    let mut fused: Vec<EvalOp> = Vec::with_capacity(len);
    let mut live_jumps: Vec<(usize, usize)> = Vec::new();
    let mut new_pc_of: Vec<usize> = vec![usize::MAX; len + 1];
    let mut i = 0;
    while i < len {
        new_pc_of[i] = fused.len();
        if i + 5 <= len && window_ok(&jumps, i, 5) {
            if let [EvalOp::Var(v), EvalOp::JumpIfFalse(2), EvalOp::Const(t), EvalOp::Jump(1), EvalOp::Const(e)] =
                &ops[i..i + 5]
            {
                fused.push(EvalOp::VarSelConst { v: *v, t: *t, e: *e });
                i += 5;
                continue;
            }
        }
        if i + 4 <= len && window_ok(&jumps, i, 4) {
            if let [EvalOp::Var(v), EvalOp::Const(k), EvalOp::Bin(op), EvalOp::JumpIfFalse(skip)] =
                &ops[i..i + 4]
            {
                live_jumps.push((fused.len(), i + 3 + *skip as usize + 1));
                fused.push(EvalOp::VarCmpConstJumpFalse { op: *op, v: *v, k: *k, skip: *skip });
                i += 4;
                continue;
            }
        }
        if i + 3 <= len && window_ok(&jumps, i, 3) {
            match &ops[i..i + 3] {
                [EvalOp::Var(v), EvalOp::Const(k), EvalOp::Bin(op)] => {
                    fused.push(EvalOp::VarConstBin(*op, *v, *k));
                    i += 3;
                    continue;
                }
                [EvalOp::Var(a), EvalOp::Var(b), EvalOp::Bin(op)] => {
                    fused.push(EvalOp::VarVarBin(*op, *a, *b));
                    i += 3;
                    continue;
                }
                _ => {}
            }
        }
        if i + 2 <= len && window_ok(&jumps, i, 2) {
            if let [EvalOp::Const(k), EvalOp::Bin(op)] = &ops[i..i + 2] {
                fused.push(EvalOp::BinConst(*op, *k));
                i += 2;
                continue;
            }
        }
        if let Some(t) = target_of(i, &ops[i]) {
            live_jumps.push((fused.len(), t));
        }
        fused.push(ops[i].clone());
        i += 1;
    }
    new_pc_of[len] = fused.len();
    for (idx, old_t) in live_jumps {
        let new_t = new_pc_of[old_t];
        debug_assert_ne!(new_t, usize::MAX, "jump target is an op boundary");
        let skip = (new_t - idx - 1) as u32;
        match &mut fused[idx] {
            EvalOp::AndJump(n)
            | EvalOp::OrJump(n)
            | EvalOp::ImpliesJump(n)
            | EvalOp::JumpIfFalse(n)
            | EvalOp::Jump(n) => *n = skip,
            EvalOp::VarCmpConstJumpFalse { skip: s, .. } => *s = skip,
            _ => unreachable!("only jump ops record targets"),
        }
    }
    prog.ops = fused;
}

/// Recognizes a fused value program that is one of the [`EvalSpec`]
/// shapes.
fn eval_spec_of(ops: &[EvalOp]) -> Option<EvalSpec> {
    match ops {
        [EvalOp::Const(v)] => Some(EvalSpec::Const(*v)),
        [EvalOp::Var(v)] => Some(EvalSpec::Var(*v)),
        [EvalOp::VarConstBin(op, v, k)] => Some(EvalSpec::VarConstBin(*op, *v, *k)),
        [EvalOp::VarVarBin(op, a, b)] => Some(EvalSpec::VarVarBin(*op, *a, *b)),
        [EvalOp::VarConstBin(op1, v, k1), EvalOp::BinConst(op2, k2)] => {
            Some(EvalSpec::VarConstBinConst(*op1, *v, *k1, *op2, *k2))
        }
        [EvalOp::VarSelConst { v, t, e }] => Some(EvalSpec::VarSelConst(*v, *t, *e)),
        _ => None,
    }
}

fn compile_solve(e: &Expr, net: &Network, prog: &mut SolveProg) -> Result<(), Unsupported> {
    match e {
        Expr::Const(Value::Bool(true)) => prog.ops.push(SolveOp::SetTrue),
        Expr::Const(Value::Bool(false)) => prog.ops.push(SolveOp::SetFalse),
        Expr::Const(_) => return Err(Unsupported),
        Expr::Var(v) => prog.ops.push(SolveOp::SetVar(*v)),
        Expr::Not(x) => {
            compile_solve(x, net, prog)?;
            prog.ops.push(SolveOp::Complement);
        }
        Expr::Neg(_) => return Err(Unsupported),
        Expr::Bin(op, a, b) => match op {
            BinOp::And => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Intersect);
            }
            BinOp::Or => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Union);
            }
            BinOp::Implies => {
                compile_solve(a, net, prog)?;
                prog.ops.push(SolveOp::Complement);
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Union);
            }
            BinOp::Xor => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Xor);
            }
            BinOp::Eq | BinOp::Ne if is_boolish_decl(a, net) && is_boolish_decl(b, net) => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(if *op == BinOp::Eq { SolveOp::BoolEq } else { SolveOp::BoolNe });
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                compile_aff(a, net, prog)?;
                compile_aff(b, net, prog)?;
                prog.ops.push(SolveOp::Cmp(*op));
            }
            _ => return Err(Unsupported),
        },
        Expr::Ite(c, t, els) => {
            compile_solve(c, net, prog)?;
            compile_solve(t, net, prog)?;
            compile_solve(els, net, prog)?;
            prog.ops.push(SolveOp::IteSet);
        }
    }
    Ok(())
}

fn compile_aff(e: &Expr, net: &Network, prog: &mut SolveProg) -> Result<(), Unsupported> {
    match e {
        Expr::Const(v) => match v.as_real() {
            Ok(k) => prog.ops.push(SolveOp::AffConst(k)),
            Err(_) => return Err(Unsupported),
        },
        Expr::Var(v) => prog.ops.push(SolveOp::AffVar(*v)),
        Expr::Neg(x) => {
            compile_aff(x, net, prog)?;
            prog.ops.push(SolveOp::AffNeg);
        }
        Expr::Bin(op, a, b) => {
            let with_ctx = matches!(op, BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max);
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => {
                    compile_aff(a, net, prog)?;
                    compile_aff(b, net, prog)?;
                    let ctx = if with_ctx {
                        let i = prog.ctx.len() as u32;
                        prog.ctx.push(format!("{e}"));
                        i
                    } else {
                        0
                    };
                    prog.ops.push(match op {
                        BinOp::Add => SolveOp::AffAdd,
                        BinOp::Sub => SolveOp::AffSub,
                        BinOp::Mul => SolveOp::AffMul(ctx),
                        BinOp::Div => SolveOp::AffDiv(ctx),
                        BinOp::Min => SolveOp::AffMin(ctx),
                        BinOp::Max => SolveOp::AffMax(ctx),
                        _ => unreachable!(),
                    });
                }
                _ => return Err(Unsupported),
            }
        }
        // Numeric `if` is lazy in the legacy solver: the condition is
        // solved first and only the selected branch is evaluated. The
        // compiled form preserves that with a branch op that dispatches on
        // the condition's delay set, so errors in the unselected branch
        // never surface — identical to `lin_eval`.
        Expr::Ite(c, t, els) => {
            compile_solve(c, net, prog)?;
            let ctx = prog.ctx.len() as u32;
            prog.ctx.push(format!("delay-dependent condition in {e}"));
            let jb = prog.ops.len();
            prog.ops.push(SolveOp::AffJump(0)); // placeholder for the branch
            compile_aff(t, net, prog)?;
            let jt = prog.ops.len();
            prog.ops.push(SolveOp::AffJump(0)); // placeholder: skip the else
            prog.ops[jb] = SolveOp::AffBranch { ctx, else_skip: (prog.ops.len() - jb - 1) as u32 };
            compile_aff(els, net, prog)?;
            prog.ops[jt] = SolveOp::AffJump((prog.ops.len() - jt - 1) as u32);
        }
        // `not`/logical operators in numeric position are ill-typed;
        // validated networks never reach here, but the fallback keeps
        // `compile` infallible on arbitrary networks.
        _ => return Err(Unsupported),
    }
    Ok(())
}

/// Compile-time mirror of the legacy `is_boolish` dispatch, using declared
/// variable types in place of runtime value kinds (identical on canonical
/// states — see the module docs).
fn is_boolish_decl(e: &Expr, net: &Network) -> bool {
    match e {
        Expr::Const(Value::Bool(_)) => true,
        Expr::Var(v) => matches!(net.vars().get(v.0).map(|d| d.ty), Some(VarType::Bool)),
        Expr::Not(_) => true,
        Expr::Bin(op, ..) => op.is_logical() || op.is_comparison(),
        Expr::Ite(_, t, _) => is_boolish_decl(t, net),
        _ => false,
    }
}

fn compile_eval(e: &Expr, ops: &mut Vec<EvalOp>) {
    match e {
        Expr::Const(v) => ops.push(EvalOp::Const(*v)),
        Expr::Var(v) => ops.push(EvalOp::Var(*v)),
        Expr::Not(x) => {
            compile_eval(x, ops);
            ops.push(EvalOp::Not);
        }
        Expr::Neg(x) => {
            compile_eval(x, ops);
            ops.push(EvalOp::Neg);
        }
        Expr::Bin(op, a, b) => match op {
            BinOp::And | BinOp::Or | BinOp::Implies => {
                compile_eval(a, ops);
                let j = ops.len();
                ops.push(EvalOp::Jump(0)); // placeholder
                compile_eval(b, ops);
                ops.push(EvalOp::CastBool);
                let skip = (ops.len() - j - 1) as u32;
                ops[j] = match op {
                    BinOp::And => EvalOp::AndJump(skip),
                    BinOp::Or => EvalOp::OrJump(skip),
                    _ => EvalOp::ImpliesJump(skip),
                };
            }
            BinOp::Xor => {
                compile_eval(a, ops);
                ops.push(EvalOp::CastBool);
                compile_eval(b, ops);
                ops.push(EvalOp::Xor);
            }
            _ => {
                compile_eval(a, ops);
                compile_eval(b, ops);
                ops.push(EvalOp::Bin(*op));
            }
        },
        Expr::Ite(c, t, els) => {
            compile_eval(c, ops);
            let j1 = ops.len();
            ops.push(EvalOp::JumpIfFalse(0));
            compile_eval(t, ops);
            let j2 = ops.len();
            ops.push(EvalOp::Jump(0));
            ops[j1] = EvalOp::JumpIfFalse((ops.len() - j1 - 1) as u32);
            compile_eval(els, ops);
            ops[j2] = EvalOp::Jump((ops.len() - j2 - 1) as u32);
        }
    }
}

fn compile_prog(e: &Expr, optimize: bool) -> EvalProg {
    let mut ops = Vec::new();
    compile_eval(e, &mut ops);
    let mut prog = EvalProg { ops, spec: None };
    if optimize {
        fuse_eval(&mut prog);
        prog.spec = eval_spec_of(&prog.ops);
    }
    prog
}

/// Write-set closure over the topologically ordered flow list: bit `i` is
/// set when flow `i` reads a variable some seed (or an earlier triggered
/// flow) writes. One forward pass reaches the fixed point because
/// [`crate::flow::toposort_flows`] guarantees every flow runs after the
/// flows defining the variables it reads. Conservative all-ones when the
/// network has more than 64 flows.
fn flow_mask_from(
    flows: &[CompiledFlow],
    n_vars: usize,
    seeds: impl Iterator<Item = VarId>,
) -> u64 {
    if flows.len() > 64 {
        return u64::MAX;
    }
    let mut written = vec![false; n_vars];
    for v in seeds {
        if v.0 < n_vars {
            written[v.0] = true;
        }
    }
    let mut mask = 0u64;
    for (i, f) in flows.iter().enumerate() {
        if f.reads.iter().any(|v| v.0 < n_vars && written[v.0]) {
            mask |= 1 << i;
            if f.target.0 < n_vars {
                written[f.target.0] = true;
            }
        }
    }
    mask
}

impl Network {
    /// Compiles the network into reusable [`StepTables`] with all
    /// optimizing tiers enabled — shorthand for [`Network::compile_with`]
    /// on the default [`CompileOptions`]. Infallible: any guard the
    /// bytecode cannot model is kept as an AST fallback with identical
    /// runtime behavior.
    pub fn compile(&self) -> StepTables {
        self.compile_with(&CompileOptions::default())
    }

    /// Compiles the network into reusable [`StepTables`] under explicit
    /// [`CompileOptions`]. Every configuration is bit-identical in
    /// observable behavior (windows, candidate order, errors, RNG
    /// consumption); the options only trade compile-time optimization for
    /// interpreter simplicity.
    pub fn compile_with(&self, opts: &CompileOptions) -> StepTables {
        let optimize = opts.optimize;
        let rated = rated_vars(self);
        let guard = |g: &Expr| specialize_delay_free(compile_guard(g, self, optimize), &rated);
        let n_procs = self.automata().len();
        let mut tau = Vec::with_capacity(n_procs);
        let mut markov = Vec::with_capacity(n_procs);
        let mut invariants = Vec::with_capacity(n_procs);
        let mut trans: Vec<Vec<CompiledTrans>> = Vec::with_capacity(n_procs);
        for a in self.automata() {
            let n_locs = a.locations.len();
            let mut a_tau: Vec<Vec<CompiledGuarded>> = vec![Vec::new(); n_locs];
            let mut a_markov: Vec<Vec<(TransId, f64)>> = vec![Vec::new(); n_locs];
            for (i, t) in a.transitions.iter().enumerate() {
                match &t.guard {
                    GuardKind::Boolean(g) if t.action.is_tau() => {
                        a_tau[t.from.0].push(CompiledGuarded {
                            trans: TransId(i),
                            guard: guard(g),
                            urgent: t.urgent,
                        });
                    }
                    GuardKind::Markovian(rate) => a_markov[t.from.0].push((TransId(i), *rate)),
                    GuardKind::Boolean(_) => {}
                }
            }
            tau.push(a_tau);
            markov.push(a_markov);
            invariants.push(
                a.locations
                    .iter()
                    .map(
                        |l| {
                            if l.invariant.is_const_true() {
                                None
                            } else {
                                Some(guard(&l.invariant))
                            }
                        },
                    )
                    .collect(),
            );
            trans.push(
                a.transitions
                    .iter()
                    .map(|t| CompiledTrans {
                        to: t.to,
                        effects: t
                            .effects
                            .iter()
                            .map(|eff| CompiledEffect {
                                var: eff.var,
                                ty: self.ty_of(eff.var),
                                prog: compile_prog(&eff.expr, optimize),
                            })
                            .collect(),
                        // Filled in below, once the flows are compiled.
                        flow_mask: u64::MAX,
                    })
                    .collect(),
            );
        }

        let mut sync = Vec::new();
        for a_idx in 0..self.actions().len() {
            let action = ActionId(a_idx);
            let procs = self.participants(action);
            if action.is_tau() || procs.is_empty() {
                continue;
            }
            let parts = procs
                .iter()
                .map(|&p| {
                    let a = &self.automata()[p.0];
                    let mut by_loc: Vec<Vec<CompiledGuarded>> = vec![Vec::new(); a.locations.len()];
                    for (i, t) in a.transitions.iter().enumerate() {
                        if t.action != action {
                            continue;
                        }
                        if let GuardKind::Boolean(g) = &t.guard {
                            by_loc[t.from.0].push(CompiledGuarded {
                                trans: TransId(i),
                                guard: guard(g),
                                urgent: t.urgent,
                            });
                        }
                    }
                    SyncPart { proc: p, by_loc }
                })
                .collect();
            sync.push(SyncTable { action, parts });
        }

        let flows: Vec<CompiledFlow> = self
            .flows()
            .iter()
            .map(|f| CompiledFlow {
                target: f.target,
                ty: self.ty_of(f.target),
                name: self.name_of(f.target).to_string(),
                reads: f.expr.vars(),
                prog: compile_prog(&f.expr, optimize),
            })
            .collect();

        let n_vars = self.vars().len();
        let tau_reads: Vec<Vec<Option<u64>>> = tau
            .iter()
            .map(|by_loc| {
                by_loc
                    .iter()
                    .map(|cgs| if optimize && n_vars <= 64 { tau_read_mask(cgs) } else { None })
                    .collect()
            })
            .collect();
        let incremental_pays = tau
            .iter()
            .flatten()
            .zip(tau_reads.iter().flatten())
            .any(|(cgs, reads)| reads.is_some() && cgs.len() >= MIN_REUSE_GUARDS);
        let advance_flow_mask = if optimize {
            flow_mask_from(
                &flows,
                n_vars,
                rated.iter().enumerate().filter(|&(_, &r)| r).map(|(i, _)| VarId(i)),
            )
        } else {
            u64::MAX
        };
        if optimize {
            for ct in trans.iter_mut().flatten() {
                ct.flow_mask = flow_mask_from(&flows, n_vars, ct.effects.iter().map(|eff| eff.var));
            }
        }

        let base_rates =
            self.vars().iter().map(|v| if v.ty == VarType::Clock { 1.0 } else { 0.0 }).collect();

        let has_invariants = invariants.iter().flatten().any(Option::is_some);
        let has_rates = rated.iter().any(|&r| r);
        let tables = StepTables {
            tau,
            markov,
            sync,
            invariants,
            trans,
            flows,
            base_rates,
            has_invariants,
            has_rates,
            advance_flow_mask,
            tau_reads,
            incremental: optimize,
            incremental_pays,
        };
        #[cfg(debug_assertions)]
        if let Err(e) = tables.verify_bytecode() {
            panic!("internal error: compiled bytecode failed verification: {e}");
        }
        tables
    }
}

// ---------------------------------------------------------------------------
// Runtime: guard solving
// ---------------------------------------------------------------------------

impl SolveScratch {
    fn push_slot(&mut self) -> usize {
        if self.depth == self.sets.len() {
            self.sets.push(IntervalSet::empty());
        }
        self.depth += 1;
        self.depth - 1
    }

    /// Runs a compiled guard; the result is left in `sets[0]` with
    /// `depth == 1`. The caller must reset `depth` after consuming it.
    fn run<P: ProfileHooks>(
        &mut self,
        prog: &SolveProg,
        nu: &Valuation,
        rates: &[f64],
        prof: &mut P,
    ) -> Result<(), EvalError> {
        self.depth = 0;
        self.affs.clear();
        prof.eval_begin();
        let mut pc = 0usize;
        while pc < prog.ops.len() {
            if P::ENABLED {
                prof.eval_op(solve_op_index(&prog.ops[pc]));
            }
            match &prog.ops[pc] {
                SolveOp::SetTrue => {
                    let i = self.push_slot();
                    self.sets[i].set_all();
                }
                SolveOp::SetFalse => {
                    let i = self.push_slot();
                    self.sets[i].clear();
                }
                SolveOp::SetVar(v) => {
                    let i = self.push_slot();
                    match nu.get(*v)? {
                        Value::Bool(true) => self.sets[i].set_all(),
                        Value::Bool(false) => self.sets[i].clear(),
                        other => {
                            return Err(EvalError::TypeConfusion {
                                context: format!("numeric variable {other} as guard"),
                            })
                        }
                    }
                }
                SolveOp::Complement => {
                    let i = self.depth - 1;
                    self.sets[i].complement_into(&mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                }
                SolveOp::Intersect => {
                    let i = self.depth - 2;
                    self.sets[i].intersect_into(&self.sets[i + 1], &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                SolveOp::Union => {
                    let i = self.depth - 2;
                    self.sets[i].union_into(&self.sets[i + 1], &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                SolveOp::Xor => {
                    let i = self.depth - 2;
                    self.sets[i + 1].complement_into(&mut self.t1);
                    self.sets[i].intersect_into(&self.t1, &mut self.t2);
                    self.sets[i].complement_into(&mut self.t1);
                    self.sets[i + 1].intersect_into(&self.t1, &mut self.t3);
                    self.t2.union_into(&self.t3, &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                op @ (SolveOp::BoolEq | SolveOp::BoolNe) => {
                    let i = self.depth - 2;
                    self.sets[i].intersect_into(&self.sets[i + 1], &mut self.t2);
                    self.sets[i].complement_into(&mut self.t1);
                    self.sets[i + 1].complement_into(&mut self.t3);
                    self.t1.intersect_into(&self.t3, &mut self.t4);
                    self.t2.union_into(&self.t4, &mut self.t1);
                    if matches!(op, SolveOp::BoolNe) {
                        self.t1.complement_into(&mut self.t2);
                        std::mem::swap(&mut self.sets[i], &mut self.t2);
                    } else {
                        std::mem::swap(&mut self.sets[i], &mut self.t1);
                    }
                    self.depth -= 1;
                }
                SolveOp::IteSet => {
                    let i = self.depth - 3; // [c, t, e]
                    self.sets[i + 1].intersect_into(&self.sets[i], &mut self.t1);
                    self.sets[i].complement_into(&mut self.t2);
                    self.sets[i + 2].intersect_into(&self.t2, &mut self.t3);
                    self.t1.union_into(&self.t3, &mut self.t2);
                    std::mem::swap(&mut self.sets[i], &mut self.t2);
                    self.depth -= 2;
                }
                SolveOp::Cmp(cmp) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    let i = self.push_slot();
                    solve_cmp_into(*cmp, Aff { k: fa.k - fb.k, m: fa.m - fb.m }, &mut self.sets[i]);
                }
                SolveOp::CmpVarConst(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    let i = self.push_slot();
                    solve_cmp_into(*cmp, Aff { k: x - kc, m }, &mut self.sets[i]);
                }
                SolveOp::CmpConstVar(cmp, kc, v) => {
                    let x = nu.get(*v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    let i = self.push_slot();
                    solve_cmp_into(*cmp, Aff { k: kc - x, m: -m }, &mut self.sets[i]);
                }
                SolveOp::CmpVarConstAnd(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    solve_cmp_into(*cmp, Aff { k: x - kc, m }, &mut self.t2);
                    let i = self.depth - 1;
                    self.sets[i].intersect_into(&self.t2, &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                }
                SolveOp::CmpVarConstOr(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    solve_cmp_into(*cmp, Aff { k: x - kc, m }, &mut self.t2);
                    let i = self.depth - 1;
                    self.sets[i].union_into(&self.t2, &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                }
                SolveOp::AffConst(k) => self.affs.push(Aff::constant(*k)),
                SolveOp::AffVar(v) => {
                    let k = nu.get(*v)?.as_real()?;
                    self.affs.push(Aff { k, m: rates.get(v.0).copied().unwrap_or(0.0) });
                }
                SolveOp::AffNeg => {
                    let a = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: -a.k, m: -a.m });
                }
                SolveOp::AffAdd => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: fa.k + fb.k, m: fa.m + fb.m });
                }
                SolveOp::AffSub => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: fa.k - fb.k, m: fa.m - fb.m });
                }
                SolveOp::AffMul(c) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if fa.is_constant() {
                        self.affs.push(Aff { k: fa.k * fb.k, m: fa.k * fb.m });
                    } else if fb.is_constant() {
                        self.affs.push(Aff { k: fa.k * fb.k, m: fa.m * fb.k });
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                }
                SolveOp::AffDiv(c) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if !fb.is_constant() {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                    if fb.k == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    self.affs.push(Aff { k: fa.k / fb.k, m: fa.m / fb.k });
                }
                op @ (SolveOp::AffMin(c) | SolveOp::AffMax(c)) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if fa.m == fb.m {
                        // Parallel lines (constants included): decided by
                        // intercepts.
                        let k = if matches!(op, SolveOp::AffMin(_)) {
                            fa.k.min(fb.k)
                        } else {
                            fa.k.max(fb.k)
                        };
                        self.affs.push(Aff { k, m: fa.m });
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                }
                SolveOp::AffBranch { ctx, else_skip } => {
                    self.depth -= 1;
                    let cond = &self.sets[self.depth];
                    if set_is_all(cond) {
                        // Fall through into the then-branch.
                    } else if cond.is_empty() {
                        pc += *else_skip as usize;
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*ctx as usize].clone(),
                        });
                    }
                }
                SolveOp::AffJump(n) => pc += *n as usize,
                SolveOp::SetVarNot(v) => {
                    let i = self.push_slot();
                    match nu.get(*v)? {
                        Value::Bool(true) => self.sets[i].clear(),
                        Value::Bool(false) => self.sets[i].set_all(),
                        other => {
                            return Err(EvalError::TypeConfusion {
                                context: format!("numeric variable {other} as guard"),
                            })
                        }
                    }
                }
                SolveOp::AffSelVar { v, t, e } => match nu.get(*v)? {
                    Value::Bool(b) => self.affs.push(Aff::constant(if b { *t } else { *e })),
                    other => {
                        return Err(EvalError::TypeConfusion {
                            context: format!("numeric variable {other} as guard"),
                        })
                    }
                },
            }
            pc += 1;
        }
        debug_assert_eq!(self.depth, 1, "guard program leaves one set");
        Ok(())
    }

    /// Evaluates a recognized whole-program shape straight into `out` —
    /// no stack machine, no per-op dispatch. Bit-identical to running the
    /// fused program: same variable read order, same errors, and (for
    /// [`GuardSpec::Conj`]) an intersection fold that matches any
    /// association the program used, since `intersect_into` derives
    /// endpoints by min/max selection only.
    fn run_spec_into(
        &mut self,
        spec: &GuardSpec,
        nu: &Valuation,
        rates: &[f64],
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        let bool_window = |v: VarId, negate: bool, out: &mut IntervalSet| match nu.get(v)? {
            Value::Bool(b) => {
                if b != negate {
                    out.set_all();
                } else {
                    out.clear();
                }
                Ok(())
            }
            other => Err(EvalError::TypeConfusion {
                context: format!("numeric variable {other} as guard"),
            }),
        };
        match spec {
            GuardSpec::BoolVar(v) => bool_window(*v, false, out)?,
            GuardSpec::BoolVarNot(v) => bool_window(*v, true, out)?,
            GuardSpec::CmpVarConst(op, v, k) => {
                let x = nu.get(*v)?.as_real()?;
                let m = rates.get(v.0).copied().unwrap_or(0.0);
                solve_cmp_into(*op, Aff { k: x - k, m }, out);
            }
            GuardSpec::CmpConstVar(op, k, v) => {
                let x = nu.get(*v)?.as_real()?;
                let m = rates.get(v.0).copied().unwrap_or(0.0);
                solve_cmp_into(*op, Aff { k: k - x, m: -m }, out);
            }
            GuardSpec::Conj(atoms) => {
                let (op0, v0, k0) = atoms[0];
                let x = nu.get(v0)?.as_real()?;
                let m = rates.get(v0.0).copied().unwrap_or(0.0);
                solve_cmp_into(op0, Aff { k: x - k0, m }, out);
                for &(op, v, k) in &atoms[1..] {
                    let x = nu.get(v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    solve_cmp_into(op, Aff { k: x - k, m }, &mut self.t1);
                    out.intersect_into(&self.t1, &mut self.t2);
                    std::mem::swap(out, &mut self.t2);
                }
            }
        }
        Ok(())
    }

    /// Runs a [`GuardCode::DelayFree`] program on plain `bool`/`f64`
    /// stacks. Sound because every variable the program reads has rate 0
    /// in every location (checked at compile time): each affine form is
    /// constant, so each pushed set is exactly `[0, ∞)` or `∅` and the
    /// set algebra collapses to Boolean algebra. Ops execute in the same
    /// order with the same error cases as [`SolveScratch::run`], keeping
    /// diagnostics identical; the `NonLinear` arms of that interpreter
    /// are unreachable here (constant operands, all-or-nothing branch
    /// conditions).
    fn run_bool<P: ProfileHooks>(
        &mut self,
        prog: &SolveProg,
        nu: &Valuation,
        prof: &mut P,
    ) -> Result<bool, EvalError> {
        self.bools.clear();
        self.consts.clear();
        prof.eval_begin();
        let mut pc = 0usize;
        while pc < prog.ops.len() {
            if P::ENABLED {
                prof.eval_op(solve_op_index(&prog.ops[pc]));
            }
            match &prog.ops[pc] {
                SolveOp::SetTrue => self.bools.push(true),
                SolveOp::SetFalse => self.bools.push(false),
                SolveOp::SetVar(v) => match nu.get(*v)? {
                    Value::Bool(b) => self.bools.push(b),
                    other => {
                        return Err(EvalError::TypeConfusion {
                            context: format!("numeric variable {other} as guard"),
                        })
                    }
                },
                SolveOp::Complement => {
                    let b = self.bools.last_mut().expect("bool stack underflow");
                    *b = !*b;
                }
                SolveOp::Intersect => {
                    let b = self.bools.pop().expect("bool stack underflow");
                    *self.bools.last_mut().expect("bool stack underflow") &= b;
                }
                SolveOp::Union => {
                    let b = self.bools.pop().expect("bool stack underflow");
                    *self.bools.last_mut().expect("bool stack underflow") |= b;
                }
                SolveOp::Xor | SolveOp::BoolNe => {
                    let b = self.bools.pop().expect("bool stack underflow");
                    *self.bools.last_mut().expect("bool stack underflow") ^= b;
                }
                SolveOp::BoolEq => {
                    let b = self.bools.pop().expect("bool stack underflow");
                    *self.bools.last_mut().expect("bool stack underflow") ^= !b;
                }
                SolveOp::IteSet => {
                    let e = self.bools.pop().expect("bool stack underflow");
                    let t = self.bools.pop().expect("bool stack underflow");
                    let c = self.bools.last_mut().expect("bool stack underflow");
                    *c = if *c { t } else { e };
                }
                SolveOp::Cmp(cmp) => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    let fa = self.consts.pop().expect("const stack underflow");
                    self.bools.push(cmp_truth(*cmp, fa - fb));
                }
                SolveOp::CmpVarConst(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    self.bools.push(cmp_truth(*cmp, x - kc));
                }
                SolveOp::CmpConstVar(cmp, kc, v) => {
                    let x = nu.get(*v)?.as_real()?;
                    self.bools.push(cmp_truth(*cmp, kc - x));
                }
                SolveOp::AffConst(k) => self.consts.push(*k),
                SolveOp::AffVar(v) => self.consts.push(nu.get(*v)?.as_real()?),
                SolveOp::AffNeg => {
                    let k = self.consts.last_mut().expect("const stack underflow");
                    *k = -*k;
                }
                SolveOp::AffAdd => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    *self.consts.last_mut().expect("const stack underflow") += fb;
                }
                SolveOp::AffSub => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    *self.consts.last_mut().expect("const stack underflow") -= fb;
                }
                SolveOp::AffMul(_) => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    *self.consts.last_mut().expect("const stack underflow") *= fb;
                }
                SolveOp::AffDiv(_) => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    if fb == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    *self.consts.last_mut().expect("const stack underflow") /= fb;
                }
                SolveOp::AffMin(_) => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    let fa = self.consts.last_mut().expect("const stack underflow");
                    *fa = fa.min(fb);
                }
                SolveOp::AffMax(_) => {
                    let fb = self.consts.pop().expect("const stack underflow");
                    let fa = self.consts.last_mut().expect("const stack underflow");
                    *fa = fa.max(fb);
                }
                SolveOp::AffBranch { else_skip, .. } => {
                    let c = self.bools.pop().expect("bool stack underflow");
                    if !c {
                        pc += *else_skip as usize;
                    }
                }
                SolveOp::AffJump(n) => pc += *n as usize,
                SolveOp::SetVarNot(v) => match nu.get(*v)? {
                    Value::Bool(b) => self.bools.push(!b),
                    other => {
                        return Err(EvalError::TypeConfusion {
                            context: format!("numeric variable {other} as guard"),
                        })
                    }
                },
                SolveOp::AffSelVar { v, t, e } => match nu.get(*v)? {
                    Value::Bool(b) => self.consts.push(if b { *t } else { *e }),
                    other => {
                        return Err(EvalError::TypeConfusion {
                            context: format!("numeric variable {other} as guard"),
                        })
                    }
                },
                SolveOp::CmpVarConstAnd(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    *self.bools.last_mut().expect("bool stack underflow") &=
                        cmp_truth(*cmp, x - kc);
                }
                SolveOp::CmpVarConstOr(cmp, v, kc) => {
                    let x = nu.get(*v)?.as_real()?;
                    *self.bools.last_mut().expect("bool stack underflow") |=
                        cmp_truth(*cmp, x - kc);
                }
            }
            pc += 1;
        }
        debug_assert_eq!(self.bools.len(), 1, "guard program leaves one value");
        Ok(self.bools.pop().expect("bool stack underflow"))
    }
}

/// Truth of a recognized whole-program shape on the Boolean tier — the
/// [`GuardCode::DelayFree`] counterpart of
/// [`SolveScratch::run_spec_into`]. [`GuardSpec::Conj`] evaluates every
/// atom (no short-circuit), like the program it replaces.
fn spec_truth(spec: &GuardSpec, nu: &Valuation) -> Result<bool, EvalError> {
    let bool_var = |v: VarId| match nu.get(v)? {
        Value::Bool(b) => Ok(b),
        other => {
            Err(EvalError::TypeConfusion { context: format!("numeric variable {other} as guard") })
        }
    };
    match spec {
        GuardSpec::BoolVar(v) => bool_var(*v),
        GuardSpec::BoolVarNot(v) => Ok(!bool_var(*v)?),
        GuardSpec::CmpVarConst(op, v, k) => Ok(cmp_truth(*op, nu.get(*v)?.as_real()? - k)),
        GuardSpec::CmpConstVar(op, k, v) => Ok(cmp_truth(*op, k - nu.get(*v)?.as_real()?)),
        GuardSpec::Conj(atoms) => {
            let mut acc = true;
            for &(op, v, k) in atoms.iter() {
                acc &= cmp_truth(op, nu.get(v)?.as_real()? - k);
            }
            Ok(acc)
        }
    }
}

/// Evaluates a [`GuardCode::DelayFree`] program's truth, taking the
/// [`GuardSpec`] shortcut when one was recognized and profiling is off
/// (profiled runs execute the program so its opcodes stay observable).
fn delay_free_truth<P: ProfileHooks>(
    prog: &SolveProg,
    nu: &Valuation,
    sv: &mut SolveScratch,
    prof: &mut P,
) -> Result<bool, EvalError> {
    if !P::ENABLED {
        if let Some(spec) = &prog.spec {
            return spec_truth(spec, nu);
        }
    }
    sv.run_bool(prog, nu, prof)
}

/// Truth of `k cmp 0` — the `m == 0` arm of [`solve_cmp_into`], which is
/// the only arm a delay-free program can reach.
fn cmp_truth(op: BinOp, k: f64) -> bool {
    match op {
        BinOp::Eq => k == 0.0,
        BinOp::Ne => k != 0.0,
        BinOp::Lt => k < 0.0,
        BinOp::Le => k <= 0.0,
        BinOp::Gt => k > 0.0,
        BinOp::Ge => k >= 0.0,
        _ => unreachable!("caller dispatches comparisons only"),
    }
}

/// Allocation-free equivalent of `set == IntervalSet::all()`: true iff the
/// (normalized) set is exactly `[0, ∞)`.
fn set_is_all(s: &IntervalSet) -> bool {
    matches!(s.intervals(),
        [iv] if iv.lo() == 0.0 && iv.lo_closed() && iv.hi() == f64::INFINITY && !iv.hi_closed())
}

/// Allocation-free mirror of the legacy `solve_cmp`: solves
/// `f(d) cmp 0` into `out`. Output-identical to the legacy routine,
/// including the point/complement structure of `Eq`/`Ne`.
fn solve_cmp_into(op: BinOp, f: Aff, out: &mut IntervalSet) {
    out.clear();
    if f.m == 0.0 {
        let truth = match op {
            BinOp::Eq => f.k == 0.0,
            BinOp::Ne => f.k != 0.0,
            BinOp::Lt => f.k < 0.0,
            BinOp::Le => f.k <= 0.0,
            BinOp::Gt => f.k > 0.0,
            BinOp::Ge => f.k >= 0.0,
            _ => unreachable!("caller dispatches comparisons only"),
        };
        if truth {
            out.set_all();
        }
        return;
    }
    let root = -f.k / f.m;
    let op = if f.m > 0.0 {
        op
    } else {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    };
    match op {
        BinOp::Eq => {
            if root >= 0.0 {
                out.set_point(root);
            }
        }
        BinOp::Ne => {
            if root >= 0.0 {
                // Complement of the point {root} in [0, ∞): a gap below
                // (empty when root == 0 or root == ∞ collapses it) and an
                // open tail above.
                if let Some(gap) = Interval::new(0.0, root, true, false) {
                    out.push_interval_unchecked(gap);
                }
                if let Some(tail) = Interval::new(root, f64::INFINITY, false, false) {
                    out.push_interval_unchecked(tail);
                }
            } else {
                out.set_all();
            }
        }
        BinOp::Lt => {
            if let Some(iv) = Interval::closed_open(0.0, root) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Le => {
            if let Some(iv) = Interval::closed(0.0, root) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Gt => {
            if let Some(iv) = Interval::new(root.max(0.0), f64::INFINITY, root < 0.0, false) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Ge => {
            if let Some(iv) = Interval::new(root.max(0.0), f64::INFINITY, true, false) {
                out.push_interval_unchecked(iv);
            }
        }
        _ => unreachable!(),
    }
}

/// Evaluates a guard code into `out` using the solver scratch.
fn eval_guard<P: ProfileHooks>(
    code: &GuardCode,
    nu: &Valuation,
    rates: &[f64],
    sv: &mut SolveScratch,
    out: &mut IntervalSet,
    prof: &mut P,
) -> Result<(), EvalError> {
    match code {
        GuardCode::Static(set) => out.copy_from(set),
        GuardCode::Prog(prog) => {
            if !P::ENABLED {
                if let Some(spec) = &prog.spec {
                    return sv.run_spec_into(spec, nu, rates, out);
                }
            }
            sv.run(prog, nu, rates, prof)?;
            std::mem::swap(out, &mut sv.sets[0]);
            sv.depth = 0;
        }
        GuardCode::DelayFree(prog) => {
            if delay_free_truth(prog, nu, sv, prof)? {
                out.set_all();
            } else {
                out.clear();
            }
        }
        GuardCode::Fallback(e) => {
            let rate = |v: VarId| rates.get(v.0).copied().unwrap_or(0.0);
            let env = DelayEnv::new(nu, &rate);
            *out = solve(e, &env)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Runtime: value programs
// ---------------------------------------------------------------------------

fn run_eval<P: ProfileHooks>(
    prog: &EvalProg,
    nu: &Valuation,
    stack: &mut Vec<Value>,
    prof: &mut P,
) -> Result<Value, EvalError> {
    if !P::ENABLED {
        if let Some(spec) = &prog.spec {
            return run_eval_spec(spec, nu);
        }
    }
    stack.clear();
    prof.eval_begin();
    let mut pc = 0usize;
    while pc < prog.ops.len() {
        if P::ENABLED {
            prof.eval_op(eval_op_index(&prog.ops[pc]));
        }
        match &prog.ops[pc] {
            EvalOp::Const(v) => stack.push(*v),
            EvalOp::Var(v) => stack.push(nu.get(*v)?),
            EvalOp::Not => {
                let v = stack.pop().expect("value stack underflow");
                stack.push(Value::Bool(!v.as_bool()?));
            }
            EvalOp::Neg => {
                let v = stack.pop().expect("value stack underflow");
                let r = match v {
                    Value::Int(i) => i.checked_neg().map(Value::Int).ok_or(EvalError::Overflow)?,
                    Value::Real(r) => Value::Real(-r),
                    v => return Err(EvalError::TypeConfusion { context: format!("negating {v}") }),
                };
                stack.push(r);
            }
            EvalOp::Bin(op) => {
                let vb = stack.pop().expect("value stack underflow");
                let va = stack.pop().expect("value stack underflow");
                stack.push(eval_bin(*op, va, vb)?);
            }
            EvalOp::AndJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    stack.push(Value::Bool(false));
                    pc += *n as usize;
                }
            }
            EvalOp::OrJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if cond {
                    stack.push(Value::Bool(true));
                    pc += *n as usize;
                }
            }
            EvalOp::ImpliesJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    stack.push(Value::Bool(true));
                    pc += *n as usize;
                }
            }
            EvalOp::CastBool => {
                let v = stack.pop().expect("value stack underflow");
                stack.push(Value::Bool(v.as_bool()?));
            }
            EvalOp::Xor => {
                let b = stack.pop().expect("value stack underflow").as_bool()?;
                let a = stack.pop().expect("value stack underflow").as_bool()?;
                stack.push(Value::Bool(a ^ b));
            }
            EvalOp::JumpIfFalse(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    pc += *n as usize;
                }
            }
            EvalOp::Jump(n) => pc += *n as usize,
            EvalOp::VarConstBin(op, v, k) => {
                let a = nu.get(*v)?;
                stack.push(eval_bin(*op, a, *k)?);
            }
            EvalOp::VarVarBin(op, va, vb) => {
                let a = nu.get(*va)?;
                let b = nu.get(*vb)?;
                stack.push(eval_bin(*op, a, b)?);
            }
            EvalOp::BinConst(op, k) => {
                let a = stack.pop().expect("value stack underflow");
                stack.push(eval_bin(*op, a, *k)?);
            }
            EvalOp::VarCmpConstJumpFalse { op, v, k, skip } => {
                let a = nu.get(*v)?;
                let cond = eval_bin(*op, a, *k)?.as_bool()?;
                if !cond {
                    pc += *skip as usize;
                }
            }
            EvalOp::VarSelConst { v, t, e } => {
                let c = nu.get(*v)?.as_bool()?;
                stack.push(if c { *t } else { *e });
            }
        }
        pc += 1;
    }
    Ok(stack.pop().expect("value program leaves one value"))
}

/// Evaluates a recognized whole-program value shape without the stack
/// machine — same read order and errors as running the fused program.
fn run_eval_spec(spec: &EvalSpec, nu: &Valuation) -> Result<Value, EvalError> {
    match spec {
        EvalSpec::Const(v) => Ok(*v),
        EvalSpec::Var(v) => nu.get(*v),
        EvalSpec::VarConstBin(op, v, k) => eval_bin(*op, nu.get(*v)?, *k),
        EvalSpec::VarVarBin(op, a, b) => eval_bin(*op, nu.get(*a)?, nu.get(*b)?),
        EvalSpec::VarSelConst(v, t, e) => {
            let c = nu.get(*v)?.as_bool()?;
            Ok(if c { *t } else { *e })
        }
        EvalSpec::VarConstBinConst(op1, v, k1, op2, k2) => {
            eval_bin(*op2, eval_bin(*op1, nu.get(*v)?, *k1)?, *k2)
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime: network stepping
// ---------------------------------------------------------------------------

impl Network {
    /// Recomputes the active rates into `rates` (clock baseline overlaid
    /// with the current locations' rates) — value-identical to
    /// [`Network::active_rates`].
    fn refresh_rates(&self, t: &StepTables, rates: &mut Vec<f64>, state: &NetState) {
        // Rate-free models keep an all-zero buffer forever: once filled it can
        // never change (base rates are zero and no location overlays a nonzero
        // rate), so the refresh is a no-op after the first call.
        if !t.has_rates && rates.len() == t.base_rates.len() {
            return;
        }
        rates.clear();
        rates.extend_from_slice(&t.base_rates);
        for (p, a) in self.automata().iter().enumerate() {
            for &(v, r) in &a.locations[state.locs[p].0].rates {
                rates[v.0] = r;
            }
        }
    }

    /// Recomputes the per-variable flow rates of `state` into the scratch
    /// rate buffer — the single refresh a rated stepping sequence (the
    /// `*_rated` methods) shares for a whole step. Rates depend only on
    /// the current locations, so the buffer stays valid until a transition
    /// fires; delays never invalidate it.
    pub fn rates_refresh(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        self.refresh_rates(t, &mut s.rates, state);
    }

    /// Allocation-free [`Network::delay_window`]: writes the invariant
    /// delay window of `state` into `out`.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn delay_window_into(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.refresh_rates(t, &mut s.rates, state);
        self.delay_window_rated(t, s, state, out)
    }

    /// [`Network::delay_window_into`] without the rate refresh: evaluates
    /// against the rates left in the scratch by [`Network::rates_refresh`]
    /// (or any refreshing `*_into` call). Valid as long as no transition
    /// has fired since the refresh — bit-identical to the refreshing form.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn delay_window_rated(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.delay_window_rated_prof(t, s, state, out, &mut NoopProfile)
    }

    /// [`Network::delay_window_rated`] with profiling hooks: records one
    /// delay-window solve plus every guard-program opcode executed. The
    /// [`NoopProfile`] instantiation is what the unprofiled entry point
    /// monomorphizes to — zero extra work.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn delay_window_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        out: &mut IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        prof.delay_solve();
        out.set_all();
        if !t.has_invariants {
            // The general path below reduces to `prefix_from_zero` on
            // `[0, ∞)`, which reproduces `set_all` bit-for-bit.
            return Ok(());
        }
        for (p, by_loc) in t.invariants.iter().enumerate() {
            let Some(code) = &by_loc[state.locs[p].0] else { continue };
            eval_guard(code, &state.nu, &s.rates, &mut s.solver, &mut s.guard_result, prof)?;
            let sat = &s.guard_result;
            let holds_now =
                sat.contains(0.0) || sat.inf().is_some_and(|lo| lo <= INVARIANT_TOLERANCE);
            if !holds_now {
                let a = &self.automata()[p];
                return Err(EvalError::InvariantViolated {
                    automaton: a.name.clone(),
                    location: a.locations[state.locs[p].0].name.clone(),
                });
            }
            out.intersect_into(sat, &mut s.temp_w);
            std::mem::swap(out, &mut s.temp_w);
        }
        if let Some((hi, closed)) = out.prefix_from_zero() {
            out.set_interval(
                Interval::new(0.0, hi, true, closed)
                    .expect("prefix window is nonempty: contains 0"),
            );
            return Ok(());
        }
        if let Some(first) = out.intervals().first().copied() {
            if first.lo() <= INVARIANT_TOLERANCE {
                out.set_interval(
                    Interval::new(0.0, first.hi(), true, first.hi_closed())
                        .expect("boundary window is nonempty"),
                );
                return Ok(());
            }
        }
        out.set_point(0.0);
        Ok(())
    }

    /// Allocation-free [`Network::guarded_candidates`]: fills the scratch
    /// candidate pool (read it back via [`StepScratch::candidates`]) in the
    /// exact legacy enumeration order.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn guarded_candidates_into(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
    ) -> Result<(), EvalError> {
        self.refresh_rates(t, &mut s.rates, state);
        self.guarded_candidates_rated(t, s, state)
    }

    /// [`Network::guarded_candidates_into`] without the rate refresh (see
    /// [`Network::delay_window_rated`] for the contract).
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn guarded_candidates_rated(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
    ) -> Result<(), EvalError> {
        self.guarded_candidates_rated_prof(t, s, state, &mut NoopProfile)
    }

    /// [`Network::guarded_candidates_rated`] with profiling hooks: records
    /// one guard evaluation (with its enabled/disabled outcome) per guard
    /// visited, plus every guard-program opcode executed.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn guarded_candidates_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        s.n_cands = 0;

        // Internal (τ) guarded transitions fire alone. Delay-free guards
        // short-circuit on the Boolean interpreter: disabled guards cost
        // one `run_bool`, enabled ones a `set_all` — no interval-set
        // round-trip (the windows are identical either way).
        //
        // On a begun path, a location whose guards are all delay-free is
        // skipped when its process has not moved and none of the
        // variables they read changed value since the last scan: the
        // guards would re-evaluate to the same truths, so the last
        // scan's enabled set is re-emitted in guard order.
        let reuse = s.inc.active;
        for (p, by_loc) in t.tau.iter().enumerate() {
            let loc = state.locs[p].0;
            let reads = if reuse { t.tau_reads[p][loc] } else { None };
            if let Some(mask) = reads {
                let (cached, mut bits) = s.inc.tau[p];
                if cached == loc && s.inc.changed & mask == 0 {
                    while bits != 0 {
                        let cg = &by_loc[loc][bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                        let c = next_cand(&mut s.cands, &mut s.n_cands);
                        c.action = ActionId::TAU;
                        c.parts.clear();
                        c.parts.push((ProcId(p), cg.trans));
                        c.window.set_all();
                        c.urgent = cg.urgent;
                    }
                    continue;
                }
            }
            let mut enabled_bits = 0u64;
            for (i, cg) in by_loc[loc].iter().enumerate() {
                let all = if let GuardCode::DelayFree(prog) = &cg.guard {
                    let enabled = delay_free_truth(prog, &state.nu, &mut s.solver, prof)?;
                    prof.guard_eval(p, cg.trans.0, enabled);
                    if !enabled {
                        continue;
                    }
                    if reads.is_some() {
                        enabled_bits |= 1 << i;
                    }
                    true
                } else {
                    eval_guard(
                        &cg.guard,
                        &state.nu,
                        &s.rates,
                        &mut s.solver,
                        &mut s.guard_result,
                        prof,
                    )?;
                    let enabled = !s.guard_result.is_empty();
                    prof.guard_eval(p, cg.trans.0, enabled);
                    if !enabled {
                        continue;
                    }
                    false
                };
                let c = next_cand(&mut s.cands, &mut s.n_cands);
                c.action = ActionId::TAU;
                c.parts.clear();
                c.parts.push((ProcId(p), cg.trans));
                if all {
                    c.window.set_all();
                } else {
                    std::mem::swap(&mut c.window, &mut s.guard_result);
                }
                c.urgent = cg.urgent;
            }
            if reuse {
                // A location that is not reusable must not leave a stale
                // entry behind: the process may come back to the cached
                // location after its reads changed unseen.
                s.inc.tau[p] = (if reads.is_some() { loc } else { NO_LOC }, enabled_bits);
            }
        }
        if reuse {
            // Every process's cache now matches the current valuation.
            s.inc.changed = 0;
        }

        // Synchronizing actions: every participant must join.
        for table in &t.sync {
            // Collect each participant's locally enabled a-transitions.
            s.n_opts = 0;
            s.opt_ranges.clear();
            let mut possible = true;
            for part in &table.parts {
                let start = s.n_opts;
                for cg in &part.by_loc[state.locs[part.proc.0].0] {
                    let all = if let GuardCode::DelayFree(prog) = &cg.guard {
                        let enabled = delay_free_truth(prog, &state.nu, &mut s.solver, prof)?;
                        prof.guard_eval(part.proc.0, cg.trans.0, enabled);
                        if !enabled {
                            continue;
                        }
                        true
                    } else {
                        eval_guard(
                            &cg.guard,
                            &state.nu,
                            &s.rates,
                            &mut s.solver,
                            &mut s.guard_result,
                            prof,
                        )?;
                        let enabled = !s.guard_result.is_empty();
                        prof.guard_eval(part.proc.0, cg.trans.0, enabled);
                        if !enabled {
                            continue;
                        }
                        false
                    };
                    let o = next_opt(&mut s.opts, &mut s.n_opts);
                    o.trans = cg.trans;
                    if all {
                        o.window.set_all();
                    } else {
                        std::mem::swap(&mut o.window, &mut s.guard_result);
                    }
                    o.urgent = cg.urgent;
                }
                if s.n_opts == start {
                    possible = false;
                    break;
                }
                s.opt_ranges.push((start, s.n_opts));
            }
            if !possible {
                continue;
            }
            // Cross product of the participants' choices, last participant
            // varying fastest (legacy order).
            s.n_combo_a = 0;
            {
                let c = next_combo(&mut s.combo_a, &mut s.n_combo_a);
                c.parts.clear();
                c.window.set_all();
                c.urgent = false;
            }
            for (pi, part) in table.parts.iter().enumerate() {
                let (lo, hi) = s.opt_ranges[pi];
                s.n_combo_b = 0;
                for ci in 0..s.n_combo_a {
                    for oi in lo..hi {
                        s.combo_a[ci].window.intersect_into(&s.opts[oi].window, &mut s.temp_w);
                        if s.temp_w.is_empty() {
                            continue;
                        }
                        let nc = next_combo(&mut s.combo_b, &mut s.n_combo_b);
                        nc.parts.clear();
                        nc.parts.extend_from_slice(&s.combo_a[ci].parts);
                        nc.parts.push((part.proc, s.opts[oi].trans));
                        std::mem::swap(&mut nc.window, &mut s.temp_w);
                        nc.urgent = s.combo_a[ci].urgent || s.opts[oi].urgent;
                    }
                }
                std::mem::swap(&mut s.combo_a, &mut s.combo_b);
                std::mem::swap(&mut s.n_combo_a, &mut s.n_combo_b);
                if s.n_combo_a == 0 {
                    break;
                }
            }
            for ci in 0..s.n_combo_a {
                let c = next_cand(&mut s.cands, &mut s.n_cands);
                c.action = table.action;
                c.parts.clear();
                c.parts.extend_from_slice(&s.combo_a[ci].parts);
                c.window.copy_from(&s.combo_a[ci].window);
                c.urgent = s.combo_a[ci].urgent;
            }
        }
        Ok(())
    }

    /// Allocation-free [`Network::markovian_candidates`]: fills the
    /// scratch Markovian list (read it back via
    /// [`StepScratch::markovian`]) in the legacy enumeration order.
    ///
    /// On a begun path (see [`StepScratch::begin_path`]) the list is
    /// patched in place: segments before the first process that moved
    /// since the last call are kept, and a call where no process moved
    /// keeps the list and its total. The list, its order and its total
    /// are the same as a full rebuild's.
    pub fn markovian_candidates_into(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        let inc = &mut s.inc;
        // Rebuild from the first process that moved: the segments before
        // it are unchanged. Without a begun path that is process 0.
        let first = if !inc.active {
            0
        } else if !inc.markov_built {
            inc.markov_built = true;
            0
        } else {
            match (0..t.markov.len()).find(|&p| inc.markov_loc[p] != state.locs[p].0) {
                Some(p) => p,
                None => return,
            }
        };
        s.markov.truncate(if inc.active { inc.markov_start[first] } else { 0 });
        for (p, by_loc) in t.markov.iter().enumerate().skip(first) {
            let loc = state.locs[p].0;
            if inc.active {
                inc.markov_start[p] = s.markov.len();
                inc.markov_loc[p] = loc;
            }
            for &(t_id, rate) in &by_loc[loc] {
                s.markov.push((ProcId(p), t_id, rate));
            }
        }
        if inc.active {
            inc.markov_start[t.markov.len()] = s.markov.len();
        }
        s.markov_total = s.markov.iter().map(|&(_, _, r)| r).sum();
    }

    /// In-place [`Network::advance`]: advances `state` by `d` against the
    /// caller-supplied (untruncated) invariant `window` — the same set the
    /// legacy method recomputes internally — including the
    /// boundary-overshoot retreat.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// advanced; callers reset per path.
    pub fn advance_mut(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        d: f64,
        window: &IntervalSet,
    ) -> Result<(), EvalError> {
        self.refresh_rates(t, &mut s.rates, state);
        self.advance_rated(t, s, state, d, window)
    }

    /// [`Network::advance_mut`] without rate refreshes: advancing never
    /// changes locations, so the scratch rates stay valid through the
    /// internal boundary-overshoot retreats too (see
    /// [`Network::delay_window_rated`] for the contract).
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// advanced; callers reset per path.
    pub fn advance_rated(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        d: f64,
        window: &IntervalSet,
    ) -> Result<(), EvalError> {
        self.advance_rated_prof(t, s, state, d, window, &mut NoopProfile)
    }

    /// [`Network::advance_rated`] with profiling hooks: records the flow
    /// re-establishment opcodes and any invariant re-checks the
    /// boundary-overshoot retreat performs.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// advanced; callers reset per path.
    pub fn advance_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        d: f64,
        window: &IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        debug_assert!(d >= 0.0, "negative delay");
        if !window.contains(d) {
            return Err(EvalError::DelayNotAllowed {
                requested: d,
                allowed_up_to: window.sup().unwrap_or(0.0),
            });
        }
        // A retreat restores the backup: every variable a read mask can
        // hold that differs from it was marked on the way, so the marks
        // stay a superset of the changes.
        if t.has_invariants {
            s.backup.copy_from(state);
        }
        advance_unchecked_mut(t, &s.rates, &mut s.vals, &mut s.inc.changed, state, d, prof)?;
        // Floating-point robustness: retreat from invariant-boundary
        // overshoot exactly like the legacy `advance`. Invariant-free
        // models have nothing to overshoot.
        if t.has_invariants && d > 0.0 && self.invariants_violated(t, s, state, prof) {
            for backoff in [1e-12, 1e-9] {
                state.copy_from(&s.backup);
                let d = d * (1.0 - backoff);
                advance_unchecked_mut(
                    t,
                    &s.rates,
                    &mut s.vals,
                    &mut s.inc.changed,
                    state,
                    d,
                    prof,
                )?;
                if !self.invariants_violated(t, s, state, prof) {
                    return Ok(());
                }
            }
            // Both retreats failed: return the full-d state, like legacy.
            state.copy_from(&s.backup);
            advance_unchecked_mut(t, &s.rates, &mut s.vals, &mut s.inc.changed, state, d, prof)?;
        }
        Ok(())
    }

    /// True if [`Network::delay_window_rated`] would fail on `state`. The
    /// scratch rates are already valid at every call site (locations are
    /// unchanged since the caller's refresh).
    fn invariants_violated<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        prof: &mut P,
    ) -> bool {
        let mut out = std::mem::take(&mut s.inv_check);
        let violated = self.delay_window_rated_prof(t, s, state, &mut out, prof).is_err();
        s.inv_check = out;
        violated
    }

    /// In-place [`Network::apply`]: fires the global transition given by
    /// its participant list, applying effects (read against the
    /// pre-state), moving locations, and re-establishing flows.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// updated; callers reset per path.
    pub fn apply_mut(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        parts: &[(ProcId, TransId)],
    ) -> Result<(), EvalError> {
        self.apply_mut_prof(t, s, state, parts, &mut NoopProfile)
    }

    /// [`Network::apply_mut`] with profiling hooks: records one firing per
    /// participant plus the effect- and flow-program opcodes executed.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// updated; callers reset per path.
    pub fn apply_mut_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        parts: &[(ProcId, TransId)],
        prof: &mut P,
    ) -> Result<(), EvalError> {
        s.writes.clear();
        let mut flow_mask = 0u64;
        for &(p, t_id) in parts {
            prof.fired(p.0, t_id.0);
            let ct = &t.trans[p.0][t_id.0];
            flow_mask |= ct.flow_mask;
            for eff in &ct.effects {
                let v = run_eval(&eff.prog, &state.nu, &mut s.vals, prof)?;
                let v = eff.ty.canonicalize(v);
                if !eff.ty.admits(v) {
                    if let (VarType::Int { lo, hi }, Value::Int(i)) = (eff.ty, v) {
                        return Err(EvalError::IntOutOfRange {
                            variable: self.name_of(eff.var).to_string(),
                            value: i,
                            lo,
                            hi,
                        });
                    }
                    return Err(EvalError::TypeConfusion {
                        context: format!(
                            "effect on {} produced {}",
                            self.name_of(eff.var),
                            v.kind()
                        ),
                    });
                }
                s.writes.push((eff.var, v));
            }
            state.locs[p.0] = ct.to;
        }
        for i in 0..s.writes.len() {
            let (var, v) = s.writes[i];
            set_tracked(&mut state.nu, var, v, &mut s.inc.changed)?;
        }
        run_flows_inner(t, flow_mask, &mut s.vals, &mut state.nu, &mut s.inc.changed, prof)
    }

    /// Compiles a standalone Boolean predicate (a property goal) for
    /// repeated window evaluation via
    /// [`Network::predicate_window_into`].
    pub fn compile_predicate(&self, e: &Expr) -> CompiledPredicate {
        self.compile_predicate_with(e, &CompileOptions::default())
    }

    /// [`Network::compile_predicate`] under explicit [`CompileOptions`]
    /// (pass [`CompileOptions::reference`] for the unfused reference
    /// predicate used by differential testing).
    pub fn compile_predicate_with(&self, e: &Expr, opts: &CompileOptions) -> CompiledPredicate {
        let rated = rated_vars(self);
        CompiledPredicate {
            code: specialize_delay_free(compile_guard(e, self, opts.optimize), &rated),
        }
    }

    /// Allocation-free equivalent of solving `pred` over the delay axis in
    /// `state` (the compiled counterpart of goal-window evaluation).
    ///
    /// # Errors
    /// Solver errors, as for guards.
    pub fn predicate_window_into(
        &self,
        s: &mut StepScratch,
        pred: &CompiledPredicate,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.active_rates_into(state, &mut s.rates);
        self.predicate_window_rated(s, pred, state, out)
    }

    /// [`Network::predicate_window_into`] without the rate refresh (see
    /// [`Network::delay_window_rated`] for the contract).
    ///
    /// # Errors
    /// Solver errors, as for guards.
    pub fn predicate_window_rated(
        &self,
        s: &mut StepScratch,
        pred: &CompiledPredicate,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.predicate_window_rated_prof(s, pred, state, out, &mut NoopProfile)
    }

    /// [`Network::predicate_window_rated`] with profiling hooks: records
    /// the predicate-program opcodes executed.
    ///
    /// # Errors
    /// Solver errors, as for guards.
    pub fn predicate_window_rated_prof<P: ProfileHooks>(
        &self,
        s: &mut StepScratch,
        pred: &CompiledPredicate,
        state: &NetState,
        out: &mut IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        eval_guard(&pred.code, &state.nu, &s.rates, &mut s.solver, out, prof)
    }
}

/// A compiled Boolean predicate over network state and delay (used for
/// property goals/hold conditions).
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    code: GuardCode,
}

impl CompiledPredicate {
    /// Verifies the predicate's compiled program (no-op for static and
    /// fallback forms); `n_vars` bounds variable references.
    ///
    /// # Errors
    /// The first violation found, as for [`StepTables::verify_bytecode`].
    pub fn verify(&self, n_vars: usize) -> Result<(), BytecodeError> {
        if let GuardCode::Prog(p) | GuardCode::DelayFree(p) = &self.code {
            verify_solve(p, n_vars).map_err(|(pc, reason)| BytecodeError {
                program: "predicate".to_string(),
                pc,
                reason,
            })?;
        }
        Ok(())
    }
}

/// Advances clocks/continuous variables and re-establishes flows, without
/// boundary snapping.
fn advance_unchecked_mut<P: ProfileHooks>(
    t: &StepTables,
    rates: &[f64],
    vals: &mut Vec<Value>,
    changed: &mut u64,
    state: &mut NetState,
    d: f64,
    prof: &mut P,
) -> Result<(), EvalError> {
    // Rated variables are never read by a delay-free guard, so no read
    // mask contains them: only the flow re-runs below record changes.
    let mut moved = false;
    for (i, r) in rates.iter().enumerate() {
        if *r != 0.0 {
            let cur = state.nu.get(VarId(i))?.as_real()?;
            state.nu.set(VarId(i), Value::Real(cur + r * d))?;
            moved = true;
        }
    }
    state.time += d;
    if !moved {
        // No rated variable changed, so every flow (a pure function of
        // the valuation — time is not in scope) re-evaluates to the value
        // it already established; skip the re-run.
        return Ok(());
    }
    run_flows_inner(t, t.advance_flow_mask, vals, &mut state.nu, changed, prof)
}

/// Re-establishes flows in definition (topological) order. Bit `i` of
/// `mask` clear means flow `i`'s reads are untouched by the triggering
/// writes (including transitively, via earlier flows), so it would
/// re-evaluate to the value it already holds — skip it. An all-ones mask
/// runs everything, which is also the fallback for >64 flows. Targets
/// whose value actually changes are marked in `changed`.
fn run_flows_inner<P: ProfileHooks>(
    t: &StepTables,
    mask: u64,
    vals: &mut Vec<Value>,
    nu: &mut Valuation,
    changed: &mut u64,
    prof: &mut P,
) -> Result<(), EvalError> {
    for (i, f) in t.flows.iter().enumerate() {
        if mask != u64::MAX && (mask >> i) & 1 == 0 {
            continue;
        }
        let v = run_eval(&f.prog, nu, vals, prof)?;
        let v = f.ty.canonicalize(v);
        if !f.ty.admits(v) {
            if let (VarType::Int { lo, hi }, Value::Int(i)) = (f.ty, v) {
                return Err(EvalError::IntOutOfRange {
                    variable: f.name.clone(),
                    value: i,
                    lo,
                    hi,
                });
            }
            return Err(EvalError::TypeConfusion {
                context: format!("flow into {} produced {}", f.name, v.kind()),
            });
        }
        set_tracked(nu, f.target, v, changed)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Profiling: the unified opcode namespace and the counter layout
// ---------------------------------------------------------------------------

/// Structural [`EvalOp`] opcodes (everything except `Bin`, which gets one
/// profiling slot per [`BinOp`]).
const N_EVAL_STRUCT_OPS: usize = 16;
/// Number of [`BinOp`] variants.
const N_BIN_OPS: usize = 16;
/// Number of [`SolveOp`] variants.
const N_SOLVE_OPS: usize = 28;
/// First id of the solver ops inside the unified namespace.
const SOLVE_OP_BASE: usize = N_EVAL_STRUCT_OPS + N_BIN_OPS;

/// Display names of the unified profiling opcode namespace, indexed by the
/// ids handed to [`ProfileHooks::eval_op`]: the value-program (`eval.*`)
/// opcodes first — with `EvalOp::Bin` split into one slot per [`BinOp`] so
/// digram mining sees the actual arithmetic — then the guard-solver
/// (`solve.*`) opcodes. [`profile_shape`] sizes the opcode counters from
/// this table's length.
pub const PROFILE_OP_NAMES: [&str; SOLVE_OP_BASE + N_SOLVE_OPS] = [
    "eval.const",
    "eval.var",
    "eval.not",
    "eval.neg",
    "eval.cast_bool",
    "eval.xor",
    "eval.and_jump",
    "eval.or_jump",
    "eval.implies_jump",
    "eval.jump_if_false",
    "eval.jump",
    "eval.var_const_bin",
    "eval.var_var_bin",
    "eval.bin_const",
    "eval.var_cmp_const_jump_false",
    "eval.var_sel_const",
    "eval.add",
    "eval.sub",
    "eval.mul",
    "eval.div",
    "eval.min",
    "eval.max",
    "eval.and",
    "eval.or",
    "eval.bin_xor",
    "eval.implies",
    "eval.eq",
    "eval.ne",
    "eval.lt",
    "eval.le",
    "eval.gt",
    "eval.ge",
    "solve.set_true",
    "solve.set_false",
    "solve.set_var",
    "solve.complement",
    "solve.intersect",
    "solve.union",
    "solve.xor",
    "solve.bool_eq",
    "solve.bool_ne",
    "solve.ite",
    "solve.cmp",
    "solve.cmp_var_const",
    "solve.cmp_const_var",
    "solve.aff_const",
    "solve.aff_var",
    "solve.aff_neg",
    "solve.aff_add",
    "solve.aff_sub",
    "solve.aff_mul",
    "solve.aff_div",
    "solve.aff_min",
    "solve.aff_max",
    "solve.aff_branch",
    "solve.aff_jump",
    "solve.set_var_not",
    "solve.aff_sel_var",
    "solve.cmp_var_const_and",
    "solve.cmp_var_const_or",
];

fn bin_op_index(op: BinOp) -> usize {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Min => 4,
        BinOp::Max => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
        BinOp::Xor => 8,
        BinOp::Implies => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::Gt => 14,
        BinOp::Ge => 15,
    }
}

#[inline]
fn eval_op_index(op: &EvalOp) -> usize {
    match op {
        EvalOp::Const(_) => 0,
        EvalOp::Var(_) => 1,
        EvalOp::Not => 2,
        EvalOp::Neg => 3,
        EvalOp::CastBool => 4,
        EvalOp::Xor => 5,
        EvalOp::AndJump(_) => 6,
        EvalOp::OrJump(_) => 7,
        EvalOp::ImpliesJump(_) => 8,
        EvalOp::JumpIfFalse(_) => 9,
        EvalOp::Jump(_) => 10,
        EvalOp::VarConstBin(..) => 11,
        EvalOp::VarVarBin(..) => 12,
        EvalOp::BinConst(..) => 13,
        EvalOp::VarCmpConstJumpFalse { .. } => 14,
        EvalOp::VarSelConst { .. } => 15,
        EvalOp::Bin(b) => N_EVAL_STRUCT_OPS + bin_op_index(*b),
    }
}

#[inline]
fn solve_op_index(op: &SolveOp) -> usize {
    SOLVE_OP_BASE
        + match op {
            SolveOp::SetTrue => 0,
            SolveOp::SetFalse => 1,
            SolveOp::SetVar(_) => 2,
            SolveOp::Complement => 3,
            SolveOp::Intersect => 4,
            SolveOp::Union => 5,
            SolveOp::Xor => 6,
            SolveOp::BoolEq => 7,
            SolveOp::BoolNe => 8,
            SolveOp::IteSet => 9,
            SolveOp::Cmp(_) => 10,
            SolveOp::CmpVarConst(..) => 11,
            SolveOp::CmpConstVar(..) => 12,
            SolveOp::AffConst(_) => 13,
            SolveOp::AffVar(_) => 14,
            SolveOp::AffNeg => 15,
            SolveOp::AffAdd => 16,
            SolveOp::AffSub => 17,
            SolveOp::AffMul(_) => 18,
            SolveOp::AffDiv(_) => 19,
            SolveOp::AffMin(_) => 20,
            SolveOp::AffMax(_) => 21,
            SolveOp::AffBranch { .. } => 22,
            SolveOp::AffJump(_) => 23,
            SolveOp::SetVarNot(_) => 24,
            SolveOp::AffSelVar { .. } => 25,
            SolveOp::CmpVarConstAnd(..) => 26,
            SolveOp::CmpVarConstOr(..) => 27,
        }
}

/// The fused opcode (if any) whose introduction covers the profiled
/// digram `(a, b)`, both named as in [`PROFILE_OP_NAMES`]. This is the
/// map `slimsim profile --suggest-fusions` renders so users can see which
/// hot digrams the peephole pass already folds and which remain open.
#[must_use]
pub fn fusion_for_digram(a: &str, b: &str) -> Option<&'static str> {
    match (a, b) {
        // `x <op> k`: AffVar;AffConst;Cmp — both digrams of the window.
        ("solve.aff_var", "solve.aff_const") => Some("solve.cmp_var_const"),
        ("solve.aff_const", "solve.cmp") => Some("solve.cmp_var_const"),
        // `k <op> x`, the mirrored window.
        ("solve.aff_const", "solve.aff_var") => Some("solve.cmp_const_var"),
        ("solve.aff_var", "solve.cmp") => Some("solve.cmp_const_var"),
        // `!b` as a guard atom.
        ("solve.set_var", "solve.complement") => Some("solve.set_var_not"),
        // Conjunction / disjunction tails: the compare (itself fused)
        // followed by the combine with the set below it.
        ("solve.cmp_var_const", "solve.intersect") => Some("solve.cmp_var_const_and"),
        ("solve.cmp_var_const", "solve.union") => Some("solve.cmp_var_const_or"),
        // `if b then t else e` over constants: every digram of the
        // five-op branch diamond folds into the one selector op.
        ("solve.set_var", "solve.aff_branch")
        | ("solve.aff_branch", "solve.aff_const")
        | ("solve.aff_const", "solve.aff_jump")
        | ("solve.aff_jump", "solve.aff_const") => Some("solve.aff_sel_var"),
        // Value programs: `x <op> k`, `x <op> y`, `<top> <op> k`.
        ("eval.var", "eval.const") => Some("eval.var_const_bin"),
        ("eval.var", "eval.var") => Some("eval.var_var_bin"),
        ("eval.const", _) if b.starts_with("eval.") && is_profiled_bin(b) => Some("eval.bin_const"),
        // `if x <op> k { … }`: comparison feeding a conditional jump.
        (_, "eval.jump_if_false") if is_profiled_bin(a) => Some("eval.var_cmp_const_jump_false"),
        // `if b then t else e` over constants on the eval side: the
        // five-op branch diamond `Var; JumpIfFalse; Const; Jump; Const`.
        ("eval.var", "eval.jump_if_false")
        | ("eval.jump_if_false", "eval.const")
        | ("eval.const", "eval.jump")
        | ("eval.jump", "eval.const") => Some("eval.var_sel_const"),
        _ => None,
    }
}

/// Whether `name` (a [`PROFILE_OP_NAMES`] entry) is itself a fused
/// superinstruction — a digram touching one of these is already the
/// *output* of the peephole pass, since profiled runs execute the fused
/// bytecode.
#[must_use]
pub fn is_fused_op_name(name: &str) -> bool {
    matches!(
        name,
        "solve.cmp_var_const"
            | "solve.cmp_const_var"
            | "solve.set_var_not"
            | "solve.aff_sel_var"
            | "solve.cmp_var_const_and"
            | "solve.cmp_var_const_or"
            | "eval.var_const_bin"
            | "eval.var_var_bin"
            | "eval.bin_const"
            | "eval.var_cmp_const_jump_false"
            | "eval.var_sel_const"
    )
}

/// Whether `name` is one of the per-[`BinOp`] `eval.*` profiling slots.
fn is_profiled_bin(name: &str) -> bool {
    let lo = N_EVAL_STRUCT_OPS;
    let hi = N_EVAL_STRUCT_OPS + N_BIN_OPS;
    PROFILE_OP_NAMES[lo..hi].contains(&name)
}

/// Builds the dense counter layout a [`slim_obs::profile::KernelProfile`]
/// needs to profile this network's compiled kernel: the unified opcode
/// count plus flat per-(process, transition) and per-(process, location)
/// index spaces in declaration order.
pub fn profile_shape(net: &Network) -> ProfileShape {
    let mut trans_offsets = Vec::with_capacity(net.automata().len() + 1);
    let mut loc_offsets = Vec::with_capacity(net.automata().len() + 1);
    trans_offsets.push(0);
    loc_offsets.push(0);
    for a in net.automata() {
        let t = *trans_offsets.last().expect("seeded with 0") + a.transitions.len();
        trans_offsets.push(t);
        let l = *loc_offsets.last().expect("seeded with 0") + a.locations.len();
        loc_offsets.push(l);
    }
    ProfileShape { n_ops: PROFILE_OP_NAMES.len(), trans_offsets, loc_offsets }
}

/// Builds display labels aligned with [`profile_shape`]: opcode names from
/// [`PROFILE_OP_NAMES`], `"process: from -> to"` transition labels and
/// `"process.location"` location labels. Source spans are left unset;
/// front ends that kept the AST overlay them (see `slimsim profile`).
pub fn profile_labels(net: &Network) -> ProfileLabels {
    let op_names = PROFILE_OP_NAMES.iter().map(|s| (*s).to_string()).collect();
    let mut transitions = Vec::new();
    let mut locations = Vec::new();
    for a in net.automata() {
        for tr in &a.transitions {
            let label = format!(
                "{}: {} -> {}",
                a.name, a.locations[tr.from.0].name, a.locations[tr.to.0].name
            );
            transitions.push((label, None));
        }
        for l in &a.locations {
            locations.push(format!("{}.{}", a.name, l.name));
        }
    }
    ProfileLabels { op_names, transitions, locations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Effect;
    use crate::network::NetworkBuilder;
    use crate::network::{AutomatonBuilder, GuardedCandidate};

    /// Deterministic linear-congruential driver for the differential walk.
    fn lcg(s: &mut u64) -> u64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// A network exercising sync cross-products, urgency, Markovian races,
    /// invariants with rates, flows, and most guard constructs the
    /// bytecode compiler handles natively.
    fn torture_net() -> Network {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let temp = net.var("temp", VarType::Continuous, Value::Real(0.0));
        let b = net.var("b", VarType::Bool, Value::Bool(false));
        let n = net.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let r = net.var("r", VarType::Real, Value::Real(0.0));
        let sel = net.var("sel", VarType::Real, Value::Real(0.0));
        net.flow(r, Expr::var(n).add(Expr::int(1)));
        let go = net.action("go");

        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location_with("l0", Expr::var(c).le(Expr::real(8.0)), [(temp, 0.5)]);
        let l1 = a.location_with("l1", Expr::var(temp).le(Expr::real(6.0)), [(temp, 1.0)]);
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).ge(Expr::real(1.0)).and(Expr::var(c).le(Expr::real(5.0))),
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)).min(Expr::int(10)))],
            l1,
        );
        a.guarded_urgent(
            l0,
            ActionId::TAU,
            Expr::var(c).ge(Expr::real(3.0)),
            [Effect::assign(c, Expr::real(0.0))],
            l0,
        );
        // Guard-construct torture: data-free self loops.
        a.guarded(l0, ActionId::TAU, Expr::var(b).xor(Expr::var(c).gt(Expr::real(6.0))), [], l0);
        a.guarded(l0, ActionId::TAU, Expr::var(c).gt(Expr::real(1.0)).eq(Expr::var(b)), [], l0);
        a.guarded(
            l0,
            ActionId::TAU,
            (Expr::var(c).div(Expr::real(2.0)).le(Expr::real(3.0)))
                .and(Expr::real(2.0).mul(Expr::var(c)).ge(Expr::real(1.0))),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).min(Expr::var(c).add(Expr::real(2.0))).ge(Expr::real(3.0)),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(
                Expr::var(b),
                Expr::var(c).le(Expr::real(4.0)),
                Expr::var(c).ge(Expr::real(6.0)),
            ),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).lt(Expr::real(3.0)).not().implies(Expr::var(b)),
            [],
            l0,
        );
        // Numeric `if` with a delay-independent condition: compiled via
        // the lazy branch ops.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).le(Expr::ite(Expr::var(b), Expr::real(4.0), Expr::real(7.0))),
            [],
            l0,
        );
        a.guarded(l1, ActionId::TAU, Expr::int(1).lt(Expr::int(2)), [], l1);
        a.guarded(
            l1,
            ActionId::TAU,
            Expr::ite(
                Expr::var(b),
                Expr::var(temp).le(Expr::real(2.0)),
                Expr::var(temp).ge(Expr::real(1.0)),
            ),
            [
                Effect::assign(b, Expr::var(b).not()),
                Effect::assign(c, Expr::real(0.0)),
                // Eval-side branch diamond: `if b then 2 else 5`.
                Effect::assign(sel, Expr::ite(Expr::var(b), Expr::real(2.0), Expr::real(5.0))),
            ],
            l0,
        );
        // Markovian race in a dedicated location (locations may not mix
        // guarded and Markovian transitions).
        let l2 = a.location("mk");
        a.guarded(l1, ActionId::TAU, Expr::var(temp).ge(Expr::real(0.5)), [], l2);
        a.markovian(
            l2,
            2.0,
            [Effect::assign(n, Expr::var(n).sub(Expr::int(1)).max(Expr::int(0)))],
            l0,
        );
        a.markovian(l2, 0.5, [], l1);
        a.guarded(l0, go, Expr::var(c).le(Expr::real(4.0)), [], l0);
        a.guarded(l0, go, Expr::var(c).ge(Expr::real(2.0)), [], l1);
        net.add_automaton(a);

        let mut bb = AutomatonBuilder::new("b");
        let m0 = bb.location("m0");
        let m1 = bb.location("m1");
        bb.guarded(m0, go, Expr::TRUE, [], m1);
        bb.guarded(m1, go, Expr::var(b).eq(Expr::FALSE), [], m0);
        bb.guarded(m1, ActionId::TAU, Expr::var(n).ge(Expr::int(1)), [], m0);
        net.add_automaton(bb);

        net.build().expect("torture net validates")
    }

    fn assert_cands_eq(legacy: &[GuardedCandidate], compiled: &[CandidateBuf]) {
        assert_eq!(legacy.len(), compiled.len(), "candidate count");
        for (l, c) in legacy.iter().zip(compiled) {
            assert_eq!(l.transition.action, c.action);
            assert_eq!(l.transition.parts, c.parts);
            assert_eq!(l.window, c.window);
            assert_eq!(l.urgent, c.urgent);
        }
    }

    /// The core differential test: a long pseudo-random walk where every
    /// step compares the compiled kernel against the legacy allocating
    /// API — windows, candidates, Markovian races, `advance`, `apply`.
    #[test]
    fn compiled_kernel_matches_legacy_walk() {
        let net = torture_net();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut seed = 0xfeed_5eed_u64;

        for path in 0..16u64 {
            seed ^= path.wrapping_mul(0x9e37_79b9);
            let mut st = net.initial_state().unwrap();
            let mut st_c = st.clone();
            let mut window = IntervalSet::empty();
            // Odd paths scan incrementally, even paths in full.
            if path % 2 == 1 {
                s.begin_path(&tables);
            }
            for _ in 0..60 {
                assert_eq!(st, st_c, "states diverged");
                let w = net.delay_window(&st);
                let w_c = net.delay_window_into(&tables, &mut s, &st_c, &mut window);
                match (&w, &w_c) {
                    (Ok(wl), Ok(())) => assert_eq!(*wl, window, "delay windows diverged"),
                    (Err(el), Err(ec)) => {
                        assert_eq!(el, ec);
                        break;
                    }
                    _ => panic!("delay window result kind diverged: {w:?} vs {w_c:?}"),
                }
                let w = w.unwrap();

                let cands = net.guarded_candidates(&st).unwrap();
                net.guarded_candidates_into(&tables, &mut s, &st_c).unwrap();
                assert_cands_eq(&cands, s.candidates());

                let markov = net.markovian_candidates(&st);
                net.markovian_candidates_into(&tables, &mut s, &st_c);
                assert_eq!(markov.len(), s.markovian().len());
                for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                    assert_eq!(l.transition.parts, vec![(p, t)]);
                    assert_eq!(l.rate, rate);
                }
                let total: f64 = markov.iter().map(|m| m.rate).sum();
                assert_eq!(total.to_bits(), s.markovian_total().to_bits());

                // Drive: prefer a guarded candidate whose window intersects
                // the invariant window; otherwise race a Markovian jump.
                let pick = lcg(&mut seed) as usize;
                let fired = cands
                    .iter()
                    .cycle()
                    .skip(pick % cands.len().max(1))
                    .take(cands.len())
                    .find(|cand| !cand.window.intersect(&w).is_empty());
                if let Some(cand) = fired {
                    let joint = cand.window.intersect(&w);
                    let frac = (lcg(&mut seed) % 101) as f64 / 100.0;
                    let d = joint.earliest_point().unwrap()
                        + joint.sup().filter(|s| s.is_finite()).map_or(0.0, |sup| {
                            (sup - joint.earliest_point().unwrap()).max(0.0) * frac * 0.5
                        });
                    let d = if joint.contains(d) { d } else { joint.earliest_point().unwrap() };
                    let adv = net.advance(&st, d);
                    let adv_c = net.advance_mut(&tables, &mut s, &mut st_c, d, &window);
                    match (adv, adv_c) {
                        (Ok(next), Ok(())) => st = next,
                        (Err(el), Err(ec)) => {
                            assert_eq!(el, ec);
                            break;
                        }
                        (a, b) => panic!("advance diverged: {a:?} vs {b:?}"),
                    }
                    assert_eq!(st, st_c, "advance diverged");
                    let ap = net.apply(&st, &cand.transition);
                    let ap_c = net.apply_mut(&tables, &mut s, &mut st_c, &cand.transition.parts);
                    match (ap, ap_c) {
                        (Ok(next), Ok(())) => st = next,
                        (Err(el), Err(ec)) => {
                            assert_eq!(el, ec);
                            break;
                        }
                        (a, b) => panic!("apply diverged: {a:?} vs {b:?}"),
                    }
                } else if !markov.is_empty() {
                    let sup = w.sup().unwrap_or(0.0);
                    let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                    let next = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    st = next;
                    assert_eq!(st, st_c, "advance diverged");
                    let m = &markov[lcg(&mut seed) as usize % markov.len()];
                    let next = net.apply(&st, &m.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &m.transition.parts).unwrap();
                    st = next;
                } else {
                    break;
                }
            }
        }
    }

    #[test]
    fn state_independent_guard_is_precomputed() {
        let mut net = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::int(1).lt(Expr::int(2)), [], l0);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        assert!(
            matches!(tables.tau[0][0][0].guard, GuardCode::Static(ref s) if !s.is_empty()),
            "constant guard should be classified state-independent"
        );
    }

    #[test]
    fn numeric_ite_guard_compiles_and_matches() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let b = net.var("b", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        // Numeric `if` in guard position: compiled lazily, both branches.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(Expr::var(b), Expr::real(1.0), Expr::real(2.0)).le(Expr::var(c)),
            [],
            l0,
        );
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        assert!(
            matches!(tables.tau[0][0][0].guard, GuardCode::Prog(_)),
            "numeric `if` guard should compile to bytecode"
        );

        let mut s = StepScratch::new();
        for b_val in [false, true] {
            let mut st = net.initial_state().unwrap();
            st.nu.set(b, Value::Bool(b_val)).unwrap();
            let cands = net.guarded_candidates(&st).unwrap();
            net.guarded_candidates_into(&tables, &mut s, &st).unwrap();
            assert_cands_eq(&cands, s.candidates());
        }
    }

    #[test]
    fn numeric_ite_delay_dependent_condition_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        // At c = 0 the condition `c > 1` holds on (1, ∞): neither always
        // nor never, so the branch selection is delay-dependent.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(Expr::var(c).gt(Expr::real(1.0)), Expr::real(1.0), Expr::real(2.0))
                .le(Expr::var(c)),
            [],
            l0,
        );
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
        assert!(matches!(legacy, EvalError::NonLinear { .. }));
    }

    #[test]
    fn ill_typed_guard_falls_back_and_errors_identically() {
        // Validated networks never contain ill-typed guards; assemble
        // without validation to exercise the AST-fallback safety net.
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(c).le(Expr::TRUE), [], l0);
        net.add_automaton(a);
        let net = net.assemble_for_validation().unwrap();
        let tables = net.compile();
        assert!(matches!(tables.tau[0][0][0].guard, GuardCode::Fallback(_)));

        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
    }

    #[test]
    fn nonlinear_guard_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(1.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(c).mul(Expr::var(c)).gt(Expr::real(1.0)), [], l0);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
        assert!(matches!(legacy, EvalError::NonLinear { .. }));
    }

    #[test]
    fn predicate_window_matches_guard_solver() {
        let net = torture_net();
        let c = net.var_id("c").unwrap();
        let pred_expr = Expr::var(c).ge(Expr::real(2.0)).and(Expr::var(c).le(Expr::real(7.0)));
        let pred = net.compile_predicate(&pred_expr);
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let mut out = IntervalSet::empty();
        net.predicate_window_into(&mut s, &pred, &st, &mut out).unwrap();
        let rates = net.active_rates(&st);
        let rate = |v: VarId| rates[v.0];
        let env = DelayEnv::new(&st.nu, &rate);
        assert_eq!(out, solve(&pred_expr, &env).unwrap());
    }

    #[test]
    fn invariant_violation_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(5.0));
        let mut a = AutomatonBuilder::new("a");
        a.location_with("l0", Expr::var(c).le(Expr::real(1.0)), []);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.delay_window(&st).unwrap_err();
        let mut out = IntervalSet::empty();
        let compiled = net.delay_window_into(&tables, &mut s, &st, &mut out).unwrap_err();
        assert_eq!(legacy, compiled);
    }

    #[test]
    fn verifier_accepts_all_compiled_programs() {
        let tables = torture_net().compile();
        let report = tables.verify_bytecode().expect("compiler output verifies");
        assert!(report.guard_programs > 0, "torture net has compiled guards");
        assert!(report.value_programs > 0, "torture net has effects/flows");
        assert!(report.ops > 0);
        assert_eq!(report.fallback_guards, 0, "torture net compiles fully");
        assert_eq!(
            report.programs(),
            report.guard_programs + report.value_programs + report.static_guards
        );
    }

    /// Find the first compiled guard program in the τ tables (mutably).
    fn first_tau_prog(tables: &mut StepTables) -> &mut SolveProg {
        tables
            .tau
            .iter_mut()
            .flatten()
            .flatten()
            .find_map(|cg| match &mut cg.guard {
                GuardCode::Prog(p) => Some(p),
                _ => None,
            })
            .expect("torture net has a compiled tau guard")
    }

    #[test]
    fn verifier_rejects_corrupted_programs() {
        // Stack underflow: an extra Intersect with only one set pushed.
        let mut tables = torture_net().compile();
        first_tau_prog(&mut tables).ops.insert(1, SolveOp::Intersect);
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("underflow"), "got: {err}");

        // Jump out of bounds.
        let mut tables = torture_net().compile();
        let prog = first_tau_prog(&mut tables);
        prog.ops.push(SolveOp::AffJump(u32::MAX));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("jump target"), "got: {err}");

        // Wrong final depth: a trailing extra set.
        let mut tables = torture_net().compile();
        first_tau_prog(&mut tables).ops.push(SolveOp::SetTrue);
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("ends with"), "got: {err}");

        // Context index out of range on an error-reporting op.
        let mut tables = torture_net().compile();
        let prog = first_tau_prog(&mut tables);
        let n_ctx = prog.ctx.len() as u32;
        prog.ops.insert(0, SolveOp::AffConst(1.0));
        prog.ops.insert(1, SolveOp::AffConst(2.0));
        prog.ops.insert(2, SolveOp::AffMul(n_ctx));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("context index"), "got: {err}");

        // Variable reference past the table width, in a value program.
        let mut tables = torture_net().compile();
        let n_vars = tables.base_rates.len();
        let eff = tables
            .trans
            .iter_mut()
            .flatten()
            .find_map(|ct| ct.effects.first_mut())
            .expect("torture net has an effect");
        eff.prog.ops.insert(0, EvalOp::Var(VarId(n_vars)));
        eff.prog.ops.insert(1, EvalOp::Bin(BinOp::Add));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("out of bounds"), "got: {err}");
        assert!(err.program.contains("effect"), "got: {err}");
    }

    #[test]
    fn verifier_rejects_wrong_final_depth_in_value_program() {
        let mut tables = torture_net().compile();
        let flow = tables.flows.first_mut().expect("torture net has a flow");
        flow.prog.ops.push(EvalOp::Const(Value::Int(0)));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("ends with"), "got: {err}");
        assert!(err.program.contains("flow"), "got: {err}");
    }

    #[test]
    fn profile_op_names_are_unique_and_dense() {
        let mut seen = std::collections::HashSet::new();
        for name in PROFILE_OP_NAMES {
            assert!(seen.insert(name), "duplicate opcode name {name}");
        }
        assert_eq!(PROFILE_OP_NAMES.len(), N_EVAL_STRUCT_OPS + N_BIN_OPS + N_SOLVE_OPS);
        assert_eq!(eval_op_index(&EvalOp::Bin(BinOp::Ge)), SOLVE_OP_BASE - 1);
        assert_eq!(
            solve_op_index(&SolveOp::CmpVarConstOr(BinOp::Le, VarId(0), 1.0)),
            PROFILE_OP_NAMES.len() - 1
        );
        assert_eq!(
            PROFILE_OP_NAMES[solve_op_index(&SolveOp::CmpVarConstAnd(BinOp::Le, VarId(0), 1.0))],
            "solve.cmp_var_const_and"
        );
        assert_eq!(
            PROFILE_OP_NAMES
                [eval_op_index(&EvalOp::VarConstBin(BinOp::Add, VarId(0), Value::Int(1)))],
            "eval.var_const_bin"
        );
        assert_eq!(
            PROFILE_OP_NAMES[solve_op_index(&SolveOp::SetVarNot(VarId(0)))],
            "solve.set_var_not"
        );
    }

    #[test]
    fn fusion_digram_map_names_exist_in_namespace() {
        // Every digram endpoint and every suggested fusion the map can
        // emit must be a real opcode name, or `--suggest-fusions` would
        // render labels the profiler never produces.
        let pairs = [
            ("solve.aff_var", "solve.aff_const"),
            ("solve.aff_const", "solve.cmp"),
            ("solve.aff_const", "solve.aff_var"),
            ("solve.aff_var", "solve.cmp"),
            ("solve.set_var", "solve.complement"),
            ("solve.set_var", "solve.aff_branch"),
            ("solve.aff_branch", "solve.aff_const"),
            ("solve.aff_const", "solve.aff_jump"),
            ("solve.aff_jump", "solve.aff_const"),
            ("solve.cmp_var_const", "solve.intersect"),
            ("solve.cmp_var_const", "solve.union"),
            ("eval.var", "eval.const"),
            ("eval.var", "eval.var"),
            ("eval.const", "eval.min"),
            ("eval.ge", "eval.jump_if_false"),
            ("eval.var", "eval.jump_if_false"),
            ("eval.jump_if_false", "eval.const"),
            ("eval.const", "eval.jump"),
            ("eval.jump", "eval.const"),
        ];
        for (a, b) in pairs {
            let fused = fusion_for_digram(a, b)
                .unwrap_or_else(|| panic!("({a}, {b}) should suggest a fusion"));
            for name in [a, b, fused] {
                assert!(PROFILE_OP_NAMES.contains(&name), "unknown opcode name {name}");
            }
        }
        assert_eq!(fusion_for_digram("eval.const", "eval.var"), None);
        assert_eq!(fusion_for_digram("solve.intersect", "solve.intersect"), None);
    }

    #[test]
    fn profile_shape_and_labels_align() {
        let net = torture_net();
        let shape = profile_shape(&net);
        let labels = profile_labels(&net);
        assert_eq!(shape.n_ops, PROFILE_OP_NAMES.len());
        assert_eq!(labels.op_names.len(), shape.n_ops);
        assert_eq!(labels.transitions.len(), shape.n_trans());
        assert_eq!(labels.locations.len(), shape.n_locs());
        let total: usize = net.automata().iter().map(|a| a.transitions.len()).sum();
        assert_eq!(shape.n_trans(), total);
    }

    /// The profiled kernel is count-deterministic and the profiled step
    /// sequence leaves the state exactly where the unprofiled one does.
    #[test]
    fn profiled_walk_is_deterministic_and_state_identical() {
        use slim_obs::profile::KernelProfile;

        let net = torture_net();
        let tables = net.compile();

        let run_walk = |prof: &mut KernelProfile| {
            let mut s = StepScratch::new();
            let mut seed = 0x0bad_cafe_u64;
            let mut st = net.initial_state().unwrap();
            let mut window = IntervalSet::empty();
            for _ in 0..200 {
                net.rates_refresh(&tables, &mut s, &st);
                if net.delay_window_rated_prof(&tables, &mut s, &st, &mut window, prof).is_err() {
                    break;
                }
                net.guarded_candidates_rated_prof(&tables, &mut s, &st, prof).unwrap();
                let n = s.candidates().len();
                if n == 0 {
                    break;
                }
                let pick = lcg(&mut seed) as usize % n;
                let cand = &s.candidates()[pick];
                let joint = cand.window.intersect(&window);
                let Some(d) = joint.earliest_point() else { continue };
                let parts: Vec<_> = cand.parts.clone();
                if net.advance_rated_prof(&tables, &mut s, &mut st, d, &window, prof).is_err() {
                    break;
                }
                if net.apply_mut_prof(&tables, &mut s, &mut st, &parts, prof).is_err() {
                    break;
                }
            }
            st
        };

        let shape = profile_shape(&net);
        let mut p1 = KernelProfile::new(shape.clone());
        let st1 = run_walk(&mut p1);
        let mut p2 = KernelProfile::new(shape);
        let st2 = run_walk(&mut p2);

        assert_eq!(st1, st2, "profiled walk must be deterministic");
        assert!(p1.total_ops() > 0, "walk executed bytecode");
        assert!(p1.delay_solve_count() > 0, "walk solved delay windows");
        assert_eq!(p1.op_counts(), p2.op_counts());
        assert_eq!(p1.digram_counts(), p2.digram_counts());
        let fired: u64 = (0..p1.shape().n_trans()).map(|i| p1.fired_count(i)).sum();
        assert!(fired > 0, "walk fired transitions");
        let (evals, truth): (u64, u64) = (0..p1.shape().n_trans())
            .map(|i| p1.guard_counts(i))
            .fold((0, 0), |(e, t), (ge, gt)| (e + ge, t + gt));
        assert!(evals >= truth && evals > 0, "guard eval counts recorded");
    }

    fn collect_solve(t: &StepTables) -> Vec<&SolveProg> {
        fn push<'a>(out: &mut Vec<&'a SolveProg>, code: &'a GuardCode) {
            if let GuardCode::Prog(p) | GuardCode::DelayFree(p) = code {
                out.push(p);
            }
        }
        let mut out = Vec::new();
        for cg in t.tau.iter().flatten().flatten() {
            push(&mut out, &cg.guard);
        }
        for table in &t.sync {
            for cg in table.parts.iter().flat_map(|p| p.by_loc.iter().flatten()) {
                push(&mut out, &cg.guard);
            }
        }
        for inv in t.invariants.iter().flatten().flatten() {
            push(&mut out, inv);
        }
        out
    }

    fn collect_eval(t: &StepTables) -> Vec<&EvalProg> {
        let mut out: Vec<&EvalProg> = t
            .trans
            .iter()
            .flatten()
            .flat_map(|ct| ct.effects.iter().map(|eff| &eff.prog))
            .collect();
        out.extend(t.flows.iter().map(|f| &f.prog));
        out
    }

    /// The peephole pass rewrites the statically hot windows the digram
    /// reports identified, and the whole-program recognizers fire on the
    /// shapes the zoo models actually use.
    #[test]
    fn fusion_rewrites_hot_windows() {
        let net = torture_net();
        let tables = net.compile();

        let solve = collect_solve(&tables);
        // `c <= (if b then 4 else 7)`: the five-op branch diamond folds
        // into one selector dispatch.
        assert!(
            solve.iter().any(|p| p.ops.iter().any(|o| matches!(o, SolveOp::AffSelVar { .. }))),
            "Boolean-conditioned numeric if should fuse to AffSelVar"
        );
        // `c >= 1 && c <= 5` fuses its conjunction tail into one
        // compare-and-intersect dispatch and specializes to a
        // conjunction of compare atoms.
        assert!(
            solve.iter().any(|p| p.ops.iter().any(|o| matches!(o, SolveOp::CmpVarConstAnd(..)))),
            "conjunction tail should fuse to CmpVarConstAnd"
        );
        assert!(
            solve
                .iter()
                .any(|p| matches!(&p.spec, Some(GuardSpec::Conj(atoms)) if atoms.len() == 2)),
            "two-sided clock window should specialize to Conj"
        );
        // `c >= 3` (the urgent reset guard) is a single fused compare.
        assert!(
            solve.iter().any(|p| matches!(&p.spec, Some(GuardSpec::CmpVarConst(..)))),
            "single compare guard should specialize"
        );

        let eval = collect_eval(&tables);
        // The counter bump inside `(n + 1) min 10` and the flow `n + 1`.
        assert!(
            eval.iter().any(|p| p.ops.iter().any(|o| matches!(o, EvalOp::VarConstBin(..)))),
            "var-const arithmetic should fuse"
        );
        // ... and the clamped update specializes whole-program.
        assert!(
            eval.iter().any(|p| matches!(&p.spec, Some(EvalSpec::VarConstBinConst(..)))),
            "(n + 1) min 10 should specialize to VarConstBinConst"
        );
        // `r := if b then 2 else 5` folds its five-op branch diamond into
        // one selector dispatch and specializes whole-program.
        assert!(
            eval.iter().any(|p| matches!(&p.spec, Some(EvalSpec::VarSelConst(..)))),
            "Boolean select over constants should specialize to VarSelConst"
        );

        // `!b` as a guard compiles to the one-op SetVarNot and specializes.
        let mut nb = NetworkBuilder::new();
        let b = nb.var("b", VarType::Bool, Value::Bool(true));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(b).not(), [], l0);
        nb.add_automaton(a);
        let t2 = nb.build().unwrap().compile();
        assert!(
            collect_solve(&t2).iter().any(|p| matches!(&p.spec, Some(GuardSpec::BoolVarNot(_)))),
            "negated Boolean guard should specialize to BoolVarNot"
        );
    }

    /// `CompileOptions::reference()` must produce the maximally plain
    /// kernel: no fused opcodes, no whole-program shapes, no flow masking
    /// — the fixed point the fusion-equivalence oracle diffs against.
    #[test]
    fn reference_compile_disables_fusion_spec_and_masks() {
        let net = torture_net();
        let t = net.compile_with(&CompileOptions::reference());
        for p in collect_solve(&t) {
            assert!(p.spec.is_none(), "reference solve program carries a spec");
            assert!(
                !p.ops.iter().any(|o| matches!(
                    o,
                    SolveOp::CmpVarConst(..)
                        | SolveOp::CmpConstVar(..)
                        | SolveOp::SetVarNot(_)
                        | SolveOp::AffSelVar { .. }
                        | SolveOp::CmpVarConstAnd(..)
                        | SolveOp::CmpVarConstOr(..)
                )),
                "reference solve program contains fused ops"
            );
        }
        for p in collect_eval(&t) {
            assert!(p.spec.is_none(), "reference eval program carries a spec");
            assert!(
                !p.ops.iter().any(|o| matches!(
                    o,
                    EvalOp::VarConstBin(..)
                        | EvalOp::VarVarBin(..)
                        | EvalOp::BinConst(..)
                        | EvalOp::VarCmpConstJumpFalse { .. }
                        | EvalOp::VarSelConst { .. }
                )),
                "reference eval program contains fused ops"
            );
        }
        assert_eq!(t.advance_flow_mask, u64::MAX);
        for ct in t.trans.iter().flatten() {
            assert_eq!(ct.flow_mask, u64::MAX);
        }
        // The fused tables, by contrast, do mask.
        let fused = net.compile();
        assert_ne!(fused.advance_flow_mask, u64::MAX);
    }

    /// The unprofiled kernel takes the whole-program shortcuts and the
    /// masked flow path; the profiled kernel executes every fused program
    /// op by op. Both must land in exactly the same states.
    #[test]
    fn spec_shortcut_matches_program_execution() {
        use slim_obs::profile::KernelProfile;

        fn walk<P: ProfileHooks>(net: &Network, tables: &StepTables, prof: &mut P) -> NetState {
            let mut s = StepScratch::new();
            let mut seed = 0x5bec_14e5_u64;
            let mut st = net.initial_state().unwrap();
            let mut window = IntervalSet::empty();
            for _ in 0..200 {
                net.rates_refresh(tables, &mut s, &st);
                if net.delay_window_rated_prof(tables, &mut s, &st, &mut window, prof).is_err() {
                    break;
                }
                net.guarded_candidates_rated_prof(tables, &mut s, &st, prof).unwrap();
                let n = s.candidates().len();
                if n == 0 {
                    break;
                }
                let pick = lcg(&mut seed) as usize % n;
                let cand = &s.candidates()[pick];
                let joint = cand.window.intersect(&window);
                let Some(d) = joint.earliest_point() else { continue };
                let parts: Vec<_> = cand.parts.clone();
                if net.advance_rated_prof(tables, &mut s, &mut st, d, &window, prof).is_err() {
                    break;
                }
                if net.apply_mut_prof(tables, &mut s, &mut st, &parts, prof).is_err() {
                    break;
                }
            }
            st
        }

        let net = torture_net();
        let tables = net.compile();
        let st_spec = walk(&net, &tables, &mut NoopProfile);
        let mut prof = KernelProfile::new(profile_shape(&net));
        let st_prog = walk(&net, &tables, &mut prof);
        assert_eq!(st_spec, st_prog, "spec shortcut diverged from program execution");
        assert!(prof.total_ops() > 0, "profiled walk executed bytecode");
    }

    /// Write-set masks cover exactly the flows a transition's effects (or
    /// the rated variables, for delay advancement) can reach.
    #[test]
    fn flow_masks_track_write_sets() {
        let net = torture_net();
        let t = net.compile();
        assert_eq!(t.flows.len(), 1, "torture net has the one flow r := n + 1");
        // The flow reads `n`, which never carries a rate: delay
        // advancement can always skip re-establishing it.
        assert_eq!(t.advance_flow_mask, 0);
        let (mut hit, mut miss) = (false, false);
        for (p, by_proc) in t.trans.iter().enumerate() {
            for (i, ct) in by_proc.iter().enumerate() {
                let writes_n = net.automata()[p].transitions[i]
                    .effects
                    .iter()
                    .any(|e| net.name_of(e.var) == "n");
                if writes_n {
                    assert_eq!(ct.flow_mask, 1, "writer of n must re-run the flow");
                    hit = true;
                } else {
                    assert_eq!(ct.flow_mask, 0, "non-writer of n must skip the flow");
                    miss = true;
                }
            }
        }
        assert!(hit && miss, "torture net has both kinds of transition");
    }

    /// The verifier's stack-effect tables cover the fused opcodes:
    /// corrupted fused programs are rejected, well-formed ones pass.
    #[test]
    fn corrupted_fused_programs_are_rejected() {
        let sp = |ops: Vec<SolveOp>| SolveProg { ops, ctx: Vec::new(), spec: None };
        // Out-of-bounds variables inside fused ops.
        assert!(verify_solve(&sp(vec![SolveOp::SetVarNot(VarId(7))]), 2).is_err());
        assert!(
            verify_solve(&sp(vec![SolveOp::AffSelVar { v: VarId(7), t: 1.0, e: 0.0 }]), 2).is_err()
        );
        // AffSelVar leaves an affine operand, not a solved window.
        let (_, reason) =
            verify_solve(&sp(vec![SolveOp::AffSelVar { v: VarId(0), t: 1.0, e: 0.0 }]), 2)
                .unwrap_err();
        assert!(reason.contains("ends with"), "got: {reason}");
        assert!(verify_solve(&sp(vec![SolveOp::SetVarNot(VarId(0))]), 2).is_ok());

        let ep = |ops: Vec<EvalOp>| EvalProg { ops, spec: None };
        // BinConst pops an operand no one pushed.
        let (_, reason) =
            verify_eval(&ep(vec![EvalOp::BinConst(BinOp::Add, Value::Int(1))]), 2).unwrap_err();
        assert!(reason.contains("underflow"), "got: {reason}");
        assert!(
            verify_eval(&ep(vec![EvalOp::VarVarBin(BinOp::Add, VarId(0), VarId(9))]), 2).is_err()
        );
        // The fused compare-and-branch may not jump past the end.
        let bad_jump = vec![
            EvalOp::VarCmpConstJumpFalse { op: BinOp::Ge, v: VarId(0), k: Value::Int(1), skip: 3 },
            EvalOp::Const(Value::Int(1)),
        ];
        let (_, reason) = verify_eval(&ep(bad_jump), 2).unwrap_err();
        assert!(reason.contains("out of bounds"), "got: {reason}");
        assert!(verify_eval(
            &ep(vec![EvalOp::VarConstBin(BinOp::Add, VarId(0), Value::Int(1))]),
            2
        )
        .is_ok());

        // End to end: a tampered fused flow program fails table
        // verification.
        let mut tables = torture_net().compile();
        let flow = tables.flows.first_mut().expect("torture net has a flow");
        flow.prog.ops = vec![EvalOp::VarVarBin(BinOp::Add, VarId(0), VarId(99))];
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("out of bounds"), "got: {err}");
    }

    /// Counts guard evaluations per `(process, transition)`.
    #[derive(Default)]
    struct EvalCounter(std::collections::BTreeMap<(usize, usize), u64>);

    impl EvalCounter {
        fn of(&self, p: usize, t: usize) -> u64 {
            self.0.get(&(p, t)).copied().unwrap_or(0)
        }

        fn total(&self) -> u64 {
            self.0.values().sum()
        }
    }

    impl ProfileHooks for EvalCounter {
        const ENABLED: bool = true;

        fn guard_eval(&mut self, proc: usize, trans: usize, _enabled: bool) {
            *self.0.entry((proc, trans)).or_default() += 1;
        }
    }

    /// One incremental scan, checked against the legacy full scan.
    fn scan_and_check(
        net: &Network,
        tables: &StepTables,
        s: &mut StepScratch,
        st: &NetState,
        prof: &mut EvalCounter,
    ) {
        net.rates_refresh(tables, s, st);
        net.guarded_candidates_rated_prof(tables, s, st, prof).unwrap();
        assert_cands_eq(&net.guarded_candidates(st).unwrap(), s.candidates());
        net.markovian_candidates_into(tables, s, st);
        let legacy = net.markovian_candidates(st);
        assert_eq!(legacy.len(), s.markovian().len());
        let total: f64 = legacy.iter().map(|m| m.rate).sum();
        assert_eq!(total.to_bits(), s.markovian_total().to_bits());
    }

    /// A process that leaves a location, while elsewhere sees a variable
    /// its old location's guards read change, and comes back: the old
    /// location is re-evaluated, not answered from a stale scan — whether
    /// or not the location in between is itself reusable.
    #[test]
    fn incremental_rescans_a_location_revisited_after_its_reads_changed() {
        for reusable_b in [true, false] {
            let mut nb = NetworkBuilder::new();
            let x = nb.var("x", VarType::Int { lo: 0, hi: 5 }, Value::Int(0));
            let flag = nb.var("flag", VarType::Bool, Value::Bool(true));
            let c = nb.var("c", VarType::Clock, Value::Real(0.0));
            let mut p = AutomatonBuilder::new("p");
            let (a, b) = (p.location("a"), p.location("b"));
            p.guarded(a, ActionId::TAU, Expr::var(x).eq(Expr::int(0)), [], b); // t0
            p.guarded(a, ActionId::TAU, Expr::var(x).eq(Expr::int(1)), [], a); // t1
            let back = if reusable_b { Expr::var(flag) } else { Expr::var(c).ge(Expr::real(0.0)) };
            p.guarded(b, ActionId::TAU, back, [], a); // t2
            nb.add_automaton(p);
            let mut q = AutomatonBuilder::new("q");
            let q0 = q.location("q0");
            q.guarded(q0, ActionId::TAU, Expr::var(flag), [Effect::assign(x, Expr::int(1))], q0);
            nb.add_automaton(q);
            let net = nb.build().unwrap();
            let tables = net.compile();
            assert_eq!(tables.tau_reads[0][1].is_some(), reusable_b);
            let mut s = StepScratch::new();
            let mut st = net.initial_state().unwrap();
            let mut prof = EvalCounter::default();
            s.begin_path(&tables);

            scan_and_check(&net, &tables, &mut s, &st, &mut prof);
            net.apply_mut(&tables, &mut s, &mut st, &[(ProcId(0), TransId(0))]).unwrap(); // a → b
            scan_and_check(&net, &tables, &mut s, &st, &mut prof);
            assert_eq!(prof.of(0, 2), 1, "the new location is scanned");
            net.apply_mut(&tables, &mut s, &mut st, &[(ProcId(1), TransId(0))]).unwrap(); // x := 1
            scan_and_check(&net, &tables, &mut s, &st, &mut prof);
            if reusable_b {
                assert_eq!(prof.of(0, 2), 1, "b reads only `flag`: no re-scan");
            }
            net.apply_mut(&tables, &mut s, &mut st, &[(ProcId(0), TransId(2))]).unwrap(); // b → a
            let before = prof.of(0, 0);
            scan_and_check(&net, &tables, &mut s, &st, &mut prof);
            assert_eq!(prof.of(0, 0), before + 1, "the revisited location is re-evaluated");
            assert_eq!(s.candidates()[0].parts, vec![(ProcId(0), TransId(1))]);
        }
    }

    /// The re-scan trigger is a change of value: an effect that stores
    /// the value a variable already holds re-scans nothing, and a flow
    /// re-run re-scans its readers only when its value changes.
    #[test]
    fn incremental_rescans_on_value_change_only() {
        let mut nb = NetworkBuilder::new();
        let n = nb.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let hi = nb.var("hi", VarType::Bool, Value::Bool(false));
        nb.flow(hi, Expr::var(n).ge(Expr::int(2)));
        let mut w = AutomatonBuilder::new("w");
        let w0 = w.location("w0");
        w.guarded(
            w0,
            ActionId::TAU,
            Expr::var(n).lt(Expr::int(10)),
            [Effect::assign(n, Expr::var(n))],
            w0,
        );
        w.guarded(
            w0,
            ActionId::TAU,
            Expr::var(n).lt(Expr::int(10)),
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)))],
            w0,
        );
        nb.add_automaton(w);
        let mut m = AutomatonBuilder::new("m");
        let m0 = m.location("m0");
        m.guarded(m0, ActionId::TAU, Expr::var(hi), [], m0);
        nb.add_automaton(m);
        let net = nb.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        let mut prof = EvalCounter::default();
        let (same, bump) = ([(ProcId(0), TransId(0))], [(ProcId(0), TransId(1))]);
        s.begin_path(&tables);

        scan_and_check(&net, &tables, &mut s, &st, &mut prof);
        assert_eq!((prof.of(0, 0), prof.of(1, 0)), (1, 1));
        net.apply_mut(&tables, &mut s, &mut st, &same).unwrap(); // n := n
        scan_and_check(&net, &tables, &mut s, &st, &mut prof);
        assert_eq!((prof.of(0, 0), prof.of(1, 0)), (1, 1), "same value: nothing re-scanned");
        net.apply_mut(&tables, &mut s, &mut st, &bump).unwrap(); // n = 1, hi stays false
        scan_and_check(&net, &tables, &mut s, &st, &mut prof);
        assert_eq!((prof.of(0, 0), prof.of(1, 0)), (2, 1), "flow re-ran to the same value");
        net.apply_mut(&tables, &mut s, &mut st, &bump).unwrap(); // n = 2, hi becomes true
        scan_and_check(&net, &tables, &mut s, &st, &mut prof);
        assert_eq!((prof.of(0, 0), prof.of(1, 0)), (3, 2), "flow changed value: re-scan");
        assert!(s.candidates().iter().any(|c| c.parts == [(ProcId(1), TransId(0))]));
    }

    /// Networks with more than 64 variables, the reference compilation
    /// and paths begun in full-scan mode scan every guard on every step;
    /// the engine's gate asks for a location of [`MIN_REUSE_GUARDS`]
    /// reusable guards.
    #[test]
    fn incremental_falls_back_to_full_scans() {
        let build = |extra_vars: usize, guards: usize| {
            let mut nb = NetworkBuilder::new();
            let n = nb.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
            for i in 0..extra_vars {
                nb.var(format!("extra{i}"), VarType::Int { lo: 0, hi: 1 }, Value::Int(0));
            }
            let mut w = AutomatonBuilder::new("w");
            let w0 = w.location("w0");
            for k in 0..guards {
                w.guarded(w0, ActionId::TAU, Expr::var(n).ge(Expr::int(k as i64)), [], w0);
            }
            nb.add_automaton(w);
            nb.build().unwrap()
        };
        assert!(!build(0, MIN_REUSE_GUARDS - 1).compile().incremental_pays());
        assert!(build(0, MIN_REUSE_GUARDS).compile().incremental_pays());
        assert!(!build(64, MIN_REUSE_GUARDS).compile().incremental_pays());
        assert!(!build(0, MIN_REUSE_GUARDS)
            .compile_with(&CompileOptions::reference())
            .incremental_pays());

        let steps = 6;
        let guards = MIN_REUSE_GUARDS;
        for (extra_vars, opts, begin, full) in [
            (0, CompileOptions::default(), true, false),
            (64, CompileOptions::default(), true, true),
            (0, CompileOptions::reference(), true, true),
            (0, CompileOptions::default(), false, true),
        ] {
            let net = build(extra_vars, guards);
            let tables = net.compile_with(&opts);
            let mut s = StepScratch::new();
            let mut st = net.initial_state().unwrap();
            let mut prof = EvalCounter::default();
            s.begin_path(&tables);
            if !begin {
                s.begin_full_path();
            }
            for _ in 0..steps {
                scan_and_check(&net, &tables, &mut s, &st, &mut prof);
                net.apply_mut(&tables, &mut s, &mut st, &[(ProcId(0), TransId(0))]).unwrap();
            }
            // Nothing ever changes value, so a reused scan runs once.
            let want = if full { guards * steps } else { guards } as u64;
            assert_eq!(
                prof.total(),
                want,
                "{} variables, {opts:?}, begin {begin}",
                net.vars().len()
            );
        }
    }

    /// The patched Markovian list equals a full rebuild — order, rates
    /// and total — while processes whose segments differ in length move
    /// in every order, a location without Markovian transitions included.
    #[test]
    fn markovian_list_patch_matches_full_rebuild() {
        let mut nb = NetworkBuilder::new();
        for name in ["p", "q", "r"] {
            let mut a = AutomatonBuilder::new(name);
            let (up, degraded, down) =
                (a.location("up"), a.location("degraded"), a.location("down"));
            a.markovian(up, 1.0, [], degraded);
            a.markovian(up, 0.25, [], down);
            a.markovian(up, 0.125, [], up);
            a.markovian(degraded, 2.0, [], up);
            a.guarded(down, ActionId::TAU, Expr::TRUE, [], up);
            nb.add_automaton(a);
        }
        let net = nb.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        let mut prof = EvalCounter::default();
        let mut seed = 0x3a5c_u64;
        s.begin_path(&tables);
        for _ in 0..200 {
            scan_and_check(&net, &tables, &mut s, &st, &mut prof);
            let markov = net.markovian_candidates(&st);
            for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                assert_eq!(l.transition.parts, vec![(p, t)]);
                assert_eq!(l.rate, rate);
            }
            let cands = s.candidates().to_vec();
            let n = markov.len() + cands.len();
            let pick = lcg(&mut seed) as usize % n;
            let parts = match markov.get(pick) {
                Some(m) => m.transition.parts.clone(),
                None => cands[pick - markov.len()].parts.clone(),
            };
            net.apply_mut(&tables, &mut s, &mut st, &parts).unwrap();
        }
    }

    /// A fused conjunction tail over a clock (`b && c >= 5`) is not
    /// delay-free: its window depends on the delay.
    #[test]
    fn fused_clock_conjunction_tail_is_not_delay_free() {
        let mut nb = NetworkBuilder::new();
        let c = nb.var("c", VarType::Clock, Value::Real(0.0));
        let b = nb.var("b", VarType::Bool, Value::Bool(true));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(b).and(Expr::var(c).ge(Expr::real(5.0))), [], l0);
        nb.add_automaton(a);
        let net = nb.build().unwrap();
        let tables = net.compile();
        let GuardCode::Prog(prog) = &tables.tau[0][0][0].guard else {
            panic!("clock guard tiered as {:?}", tables.tau[0][0][0].guard)
        };
        assert!(prog.ops.iter().any(|op| matches!(op, SolveOp::CmpVarConstAnd(..))));
        let st = net.initial_state().unwrap();
        let mut s = StepScratch::new();
        net.guarded_candidates_into(&tables, &mut s, &st).unwrap();
        assert_cands_eq(&net.guarded_candidates(&st).unwrap(), s.candidates());
    }
}
