//! Netlist compilation: lowers a validated stage-2 [`Program`] into a
//! specialized straight-line plan executed once per extracted unit.
//!
//! The interpreter in [`crate::program`] re-resolves wire names through a
//! string-keyed map and allocates per statement on every unit. The
//! compiler does all of that once per configuration:
//!
//! 1. **resolve** — wire/register names become dense slot indices; wires
//!    are renamed SSA-style so rebinding (`a := ...; a := ...`) costs
//!    nothing at run time and plain `ID` aliases are copy-propagated away;
//! 2. **fold** — operations whose operands are all literals are evaluated
//!    at compile time, `MUX` with a literal condition selects its arm, and
//!    shift-by-≥32 / and-with-0 style identities collapse;
//! 3. **DCE** — nets that never reach `Output`, `Output.valid`, or a live
//!    register (including its reset signal) are eliminated, with register
//!    liveness run to a fixpoint;
//! 4. **fuse** — single-use `SHR`-then-`AND` and `AND`-then-`SHL` chains
//!    with literal shift/mask become one compiled op;
//! 5. **order + emit** — statements are topologically ordered (stable
//!    Kahn, original order preserved among ready statements) and emitted
//!    as a flat `Vec<CompiledStmt>` over dense temporary slots.
//!
//! [`CompiledProgram::step`] is bit-equal to [`Program::step_in`] by
//! construction (enforced by proptests and the corruption harness) and is
//! infallible: a program that passed [`Program::validate`] cannot fault at
//! run time. Cycle accounting is untouched — the engine charges per
//! extracted unit, and compilation never changes how many units a block
//! consumes or whether a unit produces a value.

use crate::config::EngineConfig;
use crate::program::{ExecError, Op, Operand, Program};
use std::collections::HashMap;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A compiled operand: where a value comes from at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Compile-time constant.
    Lit(u32),
    /// The stage input (the extracted payload unit).
    Input,
    /// Register slot, read pre-commit (start-of-cycle value).
    Reg(u16),
    /// Temporary slot written earlier in the same cycle.
    Tmp(u32),
}

/// Where a compiled statement writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dst {
    /// Temporary slot.
    Tmp(u32),
    /// Next-state value of register slot (committed at cycle end).
    RegNext(u16),
    /// The `Output` port.
    Output,
    /// The `Output.valid` port.
    Valid,
}

/// A compiled functional unit. Base ops mirror [`Op`]; the fused variants
/// carry their literal shift/mask inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CKind {
    Shr,
    Shl,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mux,
    Id,
    /// `(x >> shift) & mask`, with `shift < 32` guaranteed by folding.
    ShrAnd {
        shift: u32,
        mask: u32,
    },
    /// `(x & mask) << shift`, with `shift < 32` guaranteed by folding.
    AndShl {
        mask: u32,
        shift: u32,
    },
}

impl CKind {
    fn from_op(op: Op) -> CKind {
        match op {
            Op::Shr => CKind::Shr,
            Op::Shl => CKind::Shl,
            Op::And => CKind::And,
            Op::Or => CKind::Or,
            Op::Xor => CKind::Xor,
            Op::Add => CKind::Add,
            Op::Sub => CKind::Sub,
            Op::Mux => CKind::Mux,
            Op::Id => CKind::Id,
        }
    }

    /// How many of the three operand slots this kind reads.
    fn arg_count(self) -> usize {
        match self {
            CKind::Mux => 3,
            CKind::Id | CKind::ShrAnd { .. } | CKind::AndShl { .. } => 1,
            _ => 2,
        }
    }
}

/// One straight-line compiled statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledStmt {
    kind: CKind,
    args: [Src; 3],
    dst: Dst,
}

/// How a compiled register resets after commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reset {
    /// No reset signal.
    Never,
    /// Signal is a wire's final value this cycle (literal, input, or
    /// temporary — register-sourced wires are materialized into a
    /// temporary at compile time so the pre-commit value is read).
    Wire(Src),
    /// Signal is a register, read *post-commit and post-earlier-resets*,
    /// exactly as the interpreter's sequential reset loop does.
    Reg(u16),
}

/// A compiled register: initial value plus reset behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledReg {
    init: u32,
    reset: Reset,
}

/// Compile-time disposition of `Output.valid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValidMode {
    /// No valid statement, or it folded to a nonzero constant.
    Always,
    /// Folded to constant zero: the unit never produces a value (the
    /// engine's stall guard trips, as with the interpreter).
    Never,
    /// Evaluated per unit.
    Dynamic,
}

/// Optimization statistics for one compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Statements in the source program.
    pub source_statements: usize,
    /// Statements in the compiled plan.
    pub compiled_statements: usize,
    /// Statements removed by constant folding / algebraic simplification.
    pub folded: usize,
    /// `ID` aliases removed by copy propagation.
    pub aliased: usize,
    /// Shift/mask chains fused into a single compiled op.
    pub fused: usize,
    /// Statements removed as dead (shadowed writes or nets that never
    /// reach an output or live register).
    pub eliminated: usize,
    /// Temporary slots in the compiled plan.
    pub tmp_slots: usize,
    /// Live registers kept in the compiled plan.
    pub registers: usize,
}

/// Mutable per-execution state of a compiled plan. Allocated once per
/// block decode; nothing inside allocates per unit.
#[derive(Debug, Clone)]
pub struct CompiledState {
    regs: Vec<u32>,
    next: Vec<u32>,
    tmps: Vec<u32>,
    out: u32,
    valid: u32,
}

/// A stage-2 program lowered to a flat statement list over dense slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    stmts: Vec<CompiledStmt>,
    regs: Vec<CompiledReg>,
    n_tmps: usize,
    has_output: bool,
    valid: ValidMode,
    stats: PlanStats,
}

impl CompiledProgram {
    /// Lowers a program. The program should already have passed
    /// [`Program::validate`]; compilation re-checks name resolution.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on reads of undefined wires or arity
    /// mismatches (impossible for validated programs).
    pub fn compile(program: &Program) -> Result<CompiledProgram, ExecError> {
        Compiler::new(program).run()
    }

    /// Optimization statistics for this plan.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Creates the mutable state for one execution (one block decode).
    pub fn new_state(&self) -> CompiledState {
        let inits: Vec<u32> = self.regs.iter().map(|r| r.init).collect();
        CompiledState {
            next: inits.clone(),
            regs: inits,
            tmps: vec![0; self.n_tmps],
            out: 0,
            valid: 0,
        }
    }

    #[inline]
    fn read(&self, src: Src, input: u32, st: &CompiledState) -> u32 {
        match src {
            Src::Lit(v) => v,
            Src::Input => input,
            Src::Reg(i) => st.regs[i as usize],
            Src::Tmp(t) => st.tmps[t as usize],
        }
    }

    /// Runs one cycle with payload `input`. Bit-equal to
    /// [`Program::step_in`] on the source program, but infallible and free of
    /// per-unit allocation or string hashing.
    #[inline]
    pub fn step(&self, input: u32, st: &mut CompiledState) -> Option<u32> {
        for s in &self.stmts {
            let a = self.read(s.args[0], input, st);
            let v = match s.kind {
                CKind::Id => a,
                CKind::Shr => a.checked_shr(self.read(s.args[1], input, st)).unwrap_or(0),
                CKind::Shl => a.checked_shl(self.read(s.args[1], input, st)).unwrap_or(0),
                CKind::And => a & self.read(s.args[1], input, st),
                CKind::Or => a | self.read(s.args[1], input, st),
                CKind::Xor => a ^ self.read(s.args[1], input, st),
                CKind::Add => a.wrapping_add(self.read(s.args[1], input, st)),
                CKind::Sub => a.wrapping_sub(self.read(s.args[1], input, st)),
                CKind::Mux => {
                    if a != 0 {
                        self.read(s.args[1], input, st)
                    } else {
                        self.read(s.args[2], input, st)
                    }
                }
                CKind::ShrAnd { shift, mask } => (a >> shift) & mask,
                CKind::AndShl { mask, shift } => (a & mask) << shift,
            };
            match s.dst {
                Dst::Tmp(t) => st.tmps[t as usize] = v,
                Dst::RegNext(i) => st.next[i as usize] = v,
                Dst::Output => st.out = v,
                Dst::Valid => st.valid = v,
            }
        }
        if !self.regs.is_empty() {
            // Commit at the clock edge, then apply synchronous resets
            // sequentially in declaration order (a reset sourced from a
            // register sees earlier resets, matching the interpreter).
            st.regs.copy_from_slice(&st.next);
            for (i, r) in self.regs.iter().enumerate() {
                let sig = match r.reset {
                    Reset::Never => continue,
                    Reset::Wire(src) => self.read(src, input, st),
                    Reset::Reg(j) => st.regs[j as usize],
                };
                if sig != 0 {
                    st.regs[i] = r.init;
                }
            }
            st.next.copy_from_slice(&st.regs);
        }
        let is_valid = match self.valid {
            ValidMode::Always => true,
            ValidMode::Never => false,
            ValidMode::Dynamic => st.valid != 0,
        };
        if is_valid && self.has_output {
            Some(st.out)
        } else {
            None
        }
    }
}

/// Evaluates a base op over constants, mirroring the interpreter exactly.
fn fold_const(op: Op, v: [u32; 3]) -> u32 {
    match op {
        Op::Shr => v[0].checked_shr(v[1]).unwrap_or(0),
        Op::Shl => v[0].checked_shl(v[1]).unwrap_or(0),
        Op::And => v[0] & v[1],
        Op::Or => v[0] | v[1],
        Op::Xor => v[0] ^ v[1],
        Op::Add => v[0].wrapping_add(v[1]),
        Op::Sub => v[0].wrapping_sub(v[1]),
        Op::Mux => {
            if v[0] != 0 {
                v[1]
            } else {
                v[2]
            }
        }
        Op::Id => v[0],
    }
}

/// Tries to collapse an operation to a single source: constant folding,
/// `MUX` arm selection, and cheap algebraic identities. Every rewrite here
/// is exact under the interpreter's wrapping/checked semantics.
fn simplify(op: Op, a: &[Src]) -> Option<Src> {
    if op == Op::Id {
        return Some(a[0]);
    }
    let lits: Option<Vec<u32>> = a
        .iter()
        .map(|s| if let Src::Lit(v) = s { Some(*v) } else { None })
        .collect();
    if let Some(l) = lits {
        let mut v = [0u32; 3];
        v[..l.len()].copy_from_slice(&l);
        return Some(Src::Lit(fold_const(op, v)));
    }
    match op {
        Op::Mux => match a[0] {
            Src::Lit(c) => Some(if c != 0 { a[1] } else { a[2] }),
            _ if a[1] == a[2] => Some(a[1]),
            _ => None,
        },
        Op::Shr | Op::Shl => match a[1] {
            Src::Lit(0) => Some(a[0]),
            Src::Lit(s) if s >= 32 => Some(Src::Lit(0)),
            _ => None,
        },
        Op::And => {
            if a[0] == Src::Lit(0) || a[1] == Src::Lit(0) {
                Some(Src::Lit(0))
            } else if a[1] == Src::Lit(u32::MAX) {
                Some(a[0])
            } else if a[0] == Src::Lit(u32::MAX) {
                Some(a[1])
            } else {
                None
            }
        }
        Op::Or | Op::Xor | Op::Add => {
            if a[1] == Src::Lit(0) {
                Some(a[0])
            } else if a[0] == Src::Lit(0) {
                Some(a[1])
            } else {
                None
            }
        }
        Op::Sub => {
            if a[1] == Src::Lit(0) {
                Some(a[0])
            } else {
                None
            }
        }
        _ => None,
    }
}

struct Compiler<'p> {
    program: &'p Program,
    reg_index: HashMap<&'p str, u16>,
    bindings: HashMap<&'p str, Src>,
    stmts: Vec<CompiledStmt>,
    next_tmp: u32,
    stats: PlanStats,
}

impl<'p> Compiler<'p> {
    fn new(program: &'p Program) -> Self {
        let reg_index = program
            .regs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.as_str(), i as u16))
            .collect();
        Compiler {
            program,
            reg_index,
            bindings: HashMap::new(),
            stmts: Vec::new(),
            next_tmp: 0,
            stats: PlanStats {
                source_statements: program.statements.len(),
                ..PlanStats::default()
            },
        }
    }

    fn resolve(&self, name: &str) -> Result<Src, ExecError> {
        // Operand reads of the name `Input` always see the stage input,
        // even if a wire of that name was assigned (the interpreter's
        // read path checks `Input` first).
        if name == "Input" {
            return Ok(Src::Input);
        }
        if let Some(&i) = self.reg_index.get(name) {
            return Ok(Src::Reg(i));
        }
        if let Some(&src) = self.bindings.get(name) {
            return Ok(src);
        }
        Err(ExecError {
            reason: format!("read of undefined wire {name}"),
        })
    }

    fn emit(&mut self, kind: CKind, args: [Src; 3], dst: Dst) {
        self.stmts.push(CompiledStmt { kind, args, dst });
    }

    /// Pass 1: resolve names, SSA-rename wires, fold constants, record
    /// reset sources.
    fn build(&mut self) -> Result<Vec<CompiledReg>, ExecError> {
        let program = self.program;
        for st in &program.statements {
            if st.args.len() != st.op.arity() {
                return Err(ExecError {
                    reason: format!(
                        "{:?} takes {} operands, got {}",
                        st.op,
                        st.op.arity(),
                        st.args.len()
                    ),
                });
            }
            let mut args = [Src::Lit(0); 3];
            for (slot, a) in args.iter_mut().zip(&st.args) {
                *slot = match a {
                    Operand::Literal(v) => Src::Lit(*v),
                    Operand::Name(n) => self.resolve(n)?,
                };
            }
            let folded = simplify(st.op, &args[..st.op.arity()]);
            let dst = match st.dest.as_str() {
                "Output" => Dst::Output,
                "Output.valid" => Dst::Valid,
                name => {
                    if let Some(&i) = self.reg_index.get(name) {
                        Dst::RegNext(i)
                    } else if let Some(src) = folded {
                        // A folded wire needs no statement at all: later
                        // reads bind straight to the source. (A wire
                        // literally named `Input` is still recorded — it
                        // is unreadable as an operand but visible to the
                        // interpreter's reset-signal lookup.)
                        if st.op == Op::Id {
                            self.stats.aliased += 1;
                        } else {
                            self.stats.folded += 1;
                        }
                        self.bindings.insert(&st.dest, src);
                        continue;
                    } else {
                        let t = self.next_tmp;
                        self.next_tmp += 1;
                        self.bindings.insert(&st.dest, Src::Tmp(t));
                        Dst::Tmp(t)
                    }
                }
            };
            match folded {
                Some(src) => {
                    // Port writes still need the statement, but it becomes
                    // a plain Id of the folded source.
                    if st.op != Op::Id {
                        self.stats.folded += 1;
                    }
                    self.emit(CKind::Id, [src, Src::Lit(0), Src::Lit(0)], dst);
                }
                None => self.emit(CKind::from_op(st.op), args, dst),
            }
        }

        // Resolve reset signals. The interpreter looks resets up in the
        // wire map first, then the post-commit register file, defaulting
        // to 0 for names that were only ever output ports.
        let mut regs = Vec::with_capacity(program.regs.len());
        for r in &program.regs {
            let reset = if r.reset_signal.is_empty() {
                Reset::Never
            } else if let Some(&j) = self.reg_index.get(r.reset_signal.as_str()) {
                Reset::Reg(j)
            } else {
                match self.bindings.get(r.reset_signal.as_str()).copied() {
                    // A wire aliasing a register holds the *pre-commit*
                    // value; materialize it into a temporary so the reset
                    // (which runs post-commit) reads the right cycle.
                    Some(Src::Reg(j)) => {
                        let t = self.next_tmp;
                        self.next_tmp += 1;
                        self.emit(
                            CKind::Id,
                            [Src::Reg(j), Src::Lit(0), Src::Lit(0)],
                            Dst::Tmp(t),
                        );
                        Reset::Wire(Src::Tmp(t))
                    }
                    Some(src) => Reset::Wire(src),
                    // Never-bound names (e.g. `Output`) read as constant 0.
                    None => Reset::Never,
                }
            };
            regs.push(CompiledReg {
                init: r.init,
                reset,
            });
        }
        Ok(regs)
    }

    /// Pass 2: last-write-wins on the output/valid/register ports, then
    /// dead-net elimination with register liveness run to a fixpoint.
    fn eliminate_dead(
        &mut self,
        regs: Vec<CompiledReg>,
    ) -> (Vec<CompiledStmt>, Vec<CompiledReg>, bool, ValidMode) {
        let n_regs = regs.len();
        let mut out_root = None;
        let mut valid_root = None;
        let mut reg_write: Vec<Option<usize>> = vec![None; n_regs];
        for (i, s) in self.stmts.iter().enumerate() {
            match s.dst {
                Dst::Output => out_root = Some(i),
                Dst::Valid => valid_root = Some(i),
                Dst::RegNext(r) => reg_write[r as usize] = Some(i),
                Dst::Tmp(_) => {}
            }
        }

        // A constant `Output.valid` needs no per-unit statement.
        let valid_mode = match valid_root {
            None => ValidMode::Always,
            Some(i) => match (self.stmts[i].kind, self.stmts[i].args[0]) {
                (CKind::Id, Src::Lit(0)) => {
                    valid_root = None;
                    ValidMode::Never
                }
                (CKind::Id, Src::Lit(_)) => {
                    valid_root = None;
                    ValidMode::Always
                }
                _ => ValidMode::Dynamic,
            },
        };
        let has_output = out_root.is_some();

        let mut def_of_tmp: HashMap<u32, usize> = HashMap::new();
        for (i, s) in self.stmts.iter().enumerate() {
            if let Dst::Tmp(t) = s.dst {
                def_of_tmp.insert(t, i);
            }
        }

        enum Work {
            Stmt(usize),
            Reg(usize),
        }
        let mut live = vec![false; self.stmts.len()];
        let mut reg_live = vec![false; n_regs];
        let mut work: Vec<Work> = Vec::new();
        work.extend(out_root.map(Work::Stmt));
        work.extend(valid_root.map(Work::Stmt));
        while let Some(item) = work.pop() {
            match item {
                Work::Stmt(i) => {
                    if live[i] {
                        continue;
                    }
                    live[i] = true;
                    let s = self.stmts[i];
                    for &arg in &s.args[..s.kind.arg_count()] {
                        match arg {
                            Src::Tmp(t) => {
                                if let Some(&d) = def_of_tmp.get(&t) {
                                    work.push(Work::Stmt(d));
                                }
                            }
                            Src::Reg(r) => work.push(Work::Reg(r as usize)),
                            Src::Lit(_) | Src::Input => {}
                        }
                    }
                }
                Work::Reg(r) => {
                    if reg_live[r] {
                        continue;
                    }
                    reg_live[r] = true;
                    if let Some(w) = reg_write[r] {
                        work.push(Work::Stmt(w));
                    }
                    match regs[r].reset {
                        Reset::Wire(Src::Tmp(t)) => {
                            if let Some(&d) = def_of_tmp.get(&t) {
                                work.push(Work::Stmt(d));
                            }
                        }
                        Reset::Reg(j) => work.push(Work::Reg(j as usize)),
                        _ => {}
                    }
                }
            }
        }

        // Keep live statements; remap surviving register slots densely.
        let mut reg_map: Vec<Option<u16>> = vec![None; n_regs];
        let mut kept_regs = Vec::new();
        for (i, keep) in reg_live.iter().enumerate() {
            if *keep {
                reg_map[i] = Some(kept_regs.len() as u16);
                kept_regs.push(regs[i]);
            }
        }
        let remap_src = |src: Src| match src {
            Src::Reg(r) => Src::Reg(reg_map[r as usize].unwrap_or(0)),
            other => other,
        };
        for r in &mut kept_regs {
            match &mut r.reset {
                Reset::Wire(src) => *src = remap_src(*src),
                Reset::Reg(j) => *j = reg_map[*j as usize].unwrap_or(0),
                Reset::Never => {}
            }
        }
        let mut kept = Vec::new();
        for (i, s) in self.stmts.iter().enumerate() {
            if !live[i] {
                self.stats.eliminated += 1;
                continue;
            }
            let mut s = *s;
            for arg in &mut s.args {
                *arg = remap_src(*arg);
            }
            if let Dst::RegNext(r) = s.dst {
                s.dst = Dst::RegNext(reg_map[r as usize].unwrap_or(0));
            }
            kept.push(s);
        }
        (kept, kept_regs, has_output, valid_mode)
    }

    /// Pass 3: fuse single-use literal shift/mask chains.
    fn fuse(&mut self, stmts: Vec<CompiledStmt>, regs: &[CompiledReg]) -> Vec<CompiledStmt> {
        let mut def: HashMap<u32, usize> = HashMap::new();
        let mut uses: HashMap<u32, usize> = HashMap::new();
        for (i, s) in stmts.iter().enumerate() {
            if let Dst::Tmp(t) = s.dst {
                def.insert(t, i);
            }
            for &arg in &s.args[..s.kind.arg_count()] {
                if let Src::Tmp(t) = arg {
                    *uses.entry(t).or_insert(0) += 1;
                }
            }
        }
        for r in regs {
            if let Reset::Wire(Src::Tmp(t)) = r.reset {
                *uses.entry(t).or_insert(0) += 1;
            }
        }

        let mut stmts = stmts;
        let mut dead = vec![false; stmts.len()];
        for j in 0..stmts.len() {
            let s = stmts[j];
            // AND(t, mask) where t = SHR(x, sh) and t is single-use.
            if s.kind == CKind::And {
                let (t, mask) = match (s.args[0], s.args[1]) {
                    (Src::Tmp(t), Src::Lit(m)) | (Src::Lit(m), Src::Tmp(t)) => (t, m),
                    _ => continue,
                };
                let Some(&i) = def.get(&t) else { continue };
                if dead[i] || uses.get(&t) != Some(&1) {
                    continue;
                }
                let d = stmts[i];
                if d.kind == CKind::Shr {
                    if let Src::Lit(shift) = d.args[1] {
                        stmts[j] = CompiledStmt {
                            kind: CKind::ShrAnd { shift, mask },
                            args: [d.args[0], Src::Lit(0), Src::Lit(0)],
                            dst: s.dst,
                        };
                        dead[i] = true;
                        self.stats.fused += 1;
                    }
                }
            } else if s.kind == CKind::Shl {
                // SHL(t, sh) where t = AND(x, mask) and t is single-use.
                let (t, shift) = match (s.args[0], s.args[1]) {
                    (Src::Tmp(t), Src::Lit(sh)) => (t, sh),
                    _ => continue,
                };
                if shift >= 32 {
                    continue;
                }
                let Some(&i) = def.get(&t) else { continue };
                if dead[i] || uses.get(&t) != Some(&1) {
                    continue;
                }
                let d = stmts[i];
                if d.kind == CKind::And {
                    let (x, mask) = match (d.args[0], d.args[1]) {
                        (x, Src::Lit(m)) | (Src::Lit(m), x) => (x, m),
                        _ => continue,
                    };
                    stmts[j] = CompiledStmt {
                        kind: CKind::AndShl { mask, shift },
                        args: [x, Src::Lit(0), Src::Lit(0)],
                        dst: s.dst,
                    };
                    dead[i] = true;
                    self.stats.fused += 1;
                }
            }
        }
        stmts
            .into_iter()
            .zip(dead)
            .filter_map(|(s, d)| if d { None } else { Some(s) })
            .collect()
    }

    /// Pass 4: stable topological order (Kahn with a min-index heap, so an
    /// already-ordered list is emitted unchanged), then dense renumbering
    /// of the temporary slots.
    fn order_and_renumber(
        &mut self,
        stmts: Vec<CompiledStmt>,
        regs: &mut [CompiledReg],
    ) -> Vec<CompiledStmt> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut def: HashMap<u32, usize> = HashMap::new();
        for (i, s) in stmts.iter().enumerate() {
            if let Dst::Tmp(t) = s.dst {
                def.insert(t, i);
            }
        }
        let mut indegree = vec![0usize; stmts.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); stmts.len()];
        for (j, s) in stmts.iter().enumerate() {
            for &arg in &s.args[..s.kind.arg_count()] {
                if let Src::Tmp(t) = arg {
                    if let Some(&i) = def.get(&t) {
                        dependents[i].push(j);
                        indegree[j] += 1;
                    }
                }
            }
        }
        let mut ready: BinaryHeap<Reverse<usize>> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order = Vec::with_capacity(stmts.len());
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        // SSA over temporaries cannot cycle; a shortfall would mean a
        // compiler bug, in which case the original order is kept (it is
        // always executable).
        if order.len() != stmts.len() {
            order = (0..stmts.len()).collect();
        }

        let mut tmp_map: HashMap<u32, u32> = HashMap::new();
        let mut out = Vec::with_capacity(stmts.len());
        for &i in &order {
            let mut s = stmts[i];
            if let Dst::Tmp(t) = s.dst {
                let n = tmp_map.len() as u32;
                tmp_map.insert(t, n);
                s.dst = Dst::Tmp(n);
            }
            out.push(s);
        }
        let remap = |src: &mut Src| {
            if let Src::Tmp(t) = src {
                *t = tmp_map.get(t).copied().unwrap_or(0);
            }
        };
        for s in &mut out {
            for arg in &mut s.args {
                remap(arg);
            }
        }
        for r in regs {
            if let Reset::Wire(src) = &mut r.reset {
                remap(src);
            }
        }
        self.stats.tmp_slots = tmp_map.len();
        out
    }

    fn run(mut self) -> Result<CompiledProgram, ExecError> {
        let regs = self.build()?;
        let (stmts, mut regs, has_output, valid) = self.eliminate_dead(regs);
        let stmts = self.fuse(stmts, &regs);
        let stmts = self.order_and_renumber(stmts, &mut regs);
        self.stats.compiled_statements = stmts.len();
        self.stats.registers = regs.len();
        let n_tmps = self.stats.tmp_slots;
        Ok(CompiledProgram {
            stmts,
            regs,
            n_tmps,
            has_output,
            valid,
            stats: self.stats,
        })
    }
}

/// Largest number of distinct configurations kept in the process-wide
/// plan cache. Random configurations (e.g. the corruption harness) stop
/// being cached past this point instead of growing the cache unboundedly.
const PLAN_CACHE_CAP: usize = 128;

static PLAN_CACHE: Mutex<Vec<(EngineConfig, Arc<CompiledProgram>)>> = Mutex::new(Vec::new());
/// Netlist compilations performed by this process; cache hits (repeated
/// construction of engines with equal configurations) do not count.
#[cfg(test)]
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// Returns the compiled plan for `config`, compiling at most once per
/// distinct configuration.
pub(crate) fn plan_for(config: &EngineConfig) -> Result<Arc<CompiledProgram>, ExecError> {
    let mut cache = PLAN_CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, plan)) = cache.iter().find(|(c, _)| c == config) {
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(CompiledProgram::compile(&config.program)?);
    #[cfg(test)]
    COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
    if cache.len() < PLAN_CACHE_CAP {
        cache.push((config.clone(), Arc::clone(&plan)));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::program::{RegDecl, Statement};

    fn name(n: &str) -> Operand {
        Operand::Name(n.into())
    }

    fn lit(v: u32) -> Operand {
        Operand::Literal(v)
    }

    fn st(dest: &str, op: Op, args: Vec<Operand>) -> Statement {
        Statement {
            dest: dest.into(),
            op,
            args,
        }
    }

    fn run_both(p: &Program, inputs: &[u32]) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
        p.validate().unwrap();
        let plan = CompiledProgram::compile(p).unwrap();
        let mut interp_state = p.fresh_state();
        let mut comp_state = plan.new_state();
        let mut interp = Vec::new();
        let mut comp = Vec::new();
        let mut wires = HashMap::new();
        for &x in inputs {
            interp.push(p.step_in(x, &mut interp_state, &mut wires).unwrap());
            comp.push(plan.step(x, &mut comp_state));
        }
        (interp, comp)
    }

    #[test]
    fn identity_compiles_to_single_statement() {
        let p = Program::identity();
        let plan = CompiledProgram::compile(&p).unwrap();
        let s = plan.stats();
        assert_eq!(s.source_statements, 2);
        // `Output := Input` survives; the constant-1 valid is elided.
        assert_eq!(s.compiled_statements, 1);
        assert_eq!(plan.valid, ValidMode::Always);
        let mut state = plan.new_state();
        assert_eq!(plan.step(42, &mut state), Some(42));
    }

    #[test]
    fn constant_folding_collapses_literal_chains() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("a", Op::Add, vec![lit(3), lit(4)]),
                st("b", Op::Shl, vec![name("a"), lit(2)]),
                st("Output", Op::Or, vec![name("b"), name("Input")]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().folded, 2);
        assert_eq!(plan.stats().compiled_statements, 1);
        let mut state = plan.new_state();
        assert_eq!(plan.step(1, &mut state), Some(28 | 1));
    }

    #[test]
    fn dead_nets_are_eliminated() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("unused", Op::Xor, vec![name("Input"), name("Input")]),
                st("also_unused", Op::Add, vec![name("unused"), lit(9)]),
                st("Output", Op::Id, vec![name("Input")]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().eliminated, 2);
        assert_eq!(plan.stats().compiled_statements, 1);
        let (i, c) = run_both(&p, &[1, 2, 3]);
        assert_eq!(i, c);
    }

    #[test]
    fn dead_register_update_is_dropped() {
        let p = Program {
            regs: vec![RegDecl {
                name: "Ghost".into(),
                init: 7,
                reset_signal: String::new(),
            }],
            statements: vec![
                st("Ghost", Op::Add, vec![name("Ghost"), name("Input")]),
                st("Output", Op::Id, vec![name("Input")]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().registers, 0);
        let (i, c) = run_both(&p, &[5, 6, 7]);
        assert_eq!(i, c);
    }

    #[test]
    fn shr_and_chain_fuses() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("t", Op::Shr, vec![name("Input"), lit(4)]),
                st("Output", Op::And, vec![name("t"), lit(0xF)]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().fused, 1);
        assert_eq!(plan.stats().compiled_statements, 1);
        let (i, c) = run_both(&p, &[0xABCD, 0, u32::MAX]);
        assert_eq!(i, c);
    }

    #[test]
    fn and_shl_chain_fuses() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("m", Op::And, vec![name("Input"), lit(0x7F)]),
                st("Output", Op::Shl, vec![name("m"), lit(8)]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().fused, 1);
        let (i, c) = run_both(&p, &[0x1FF, 0x80, 3]);
        assert_eq!(i, c);
    }

    #[test]
    fn multi_use_intermediate_is_not_fused() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("t", Op::Shr, vec![name("Input"), lit(4)]),
                st("masked", Op::And, vec![name("t"), lit(0xF)]),
                st("Output", Op::Add, vec![name("masked"), name("t")]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().fused, 0);
        let (i, c) = run_both(&p, &[0xFFFF, 0x10, 0]);
        assert_eq!(i, c);
    }

    #[test]
    fn shadowed_output_write_uses_last() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("Output", Op::Id, vec![lit(1)]),
                st("Output", Op::Add, vec![name("Input"), lit(10)]),
            ],
        };
        let (i, c) = run_both(&p, &[0, 5]);
        assert_eq!(i, c);
        assert_eq!(c, vec![Some(10), Some(15)]);
    }

    #[test]
    fn wire_rebinding_reads_latest_value() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("a", Op::Id, vec![name("Input")]),
                st("b", Op::Add, vec![name("a"), lit(1)]),
                st("a", Op::Add, vec![name("a"), lit(100)]),
                st("Output", Op::Add, vec![name("a"), name("b")]),
            ],
        };
        let (i, c) = run_both(&p, &[0, 7]);
        assert_eq!(i, c);
        assert_eq!(c, vec![Some(101), Some(115)]);
    }

    #[test]
    fn reset_from_register_alias_reads_pre_commit_value() {
        // `sig` aliases register R; the reset must see R's value from the
        // start of the cycle, not the freshly committed one.
        let p = Program {
            regs: vec![RegDecl {
                name: "R".into(),
                init: 0,
                reset_signal: "sig".into(),
            }],
            statements: vec![
                st("sig", Op::Id, vec![name("R")]),
                st("R", Op::Add, vec![name("R"), name("Input")]),
                st("Output", Op::Id, vec![name("R")]),
            ],
        };
        let (i, c) = run_both(&p, &[1, 1, 1, 1]);
        assert_eq!(i, c);
    }

    #[test]
    fn reset_from_other_register_sees_committed_value() {
        let p = Program {
            regs: vec![
                RegDecl {
                    name: "A".into(),
                    init: 0,
                    reset_signal: "B".into(),
                },
                RegDecl {
                    name: "B".into(),
                    init: 0,
                    reset_signal: String::new(),
                },
            ],
            statements: vec![
                st("A", Op::Add, vec![name("A"), lit(1)]),
                st("B", Op::Id, vec![name("Input")]),
                st("Output", Op::Id, vec![name("A")]),
            ],
        };
        let (i, c) = run_both(&p, &[0, 0, 1, 0, 1, 1, 0]);
        assert_eq!(i, c);
    }

    #[test]
    fn reset_signal_naming_output_never_fires() {
        // `Output` validates as a reset signal but is not a wire, so the
        // interpreter reads it as constant 0.
        let p = Program {
            regs: vec![RegDecl {
                name: "Acc".into(),
                init: 0,
                reset_signal: "Output".into(),
            }],
            statements: vec![
                st("Acc", Op::Add, vec![name("Acc"), name("Input")]),
                st("Output", Op::Id, vec![name("Acc")]),
            ],
        };
        let (i, c) = run_both(&p, &[1, 2, 3]);
        assert_eq!(i, c);
    }

    #[test]
    fn mux_with_literal_condition_folds() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("x", Op::Mux, vec![lit(1), name("Input"), lit(99)]),
                st("Output", Op::Id, vec![name("x")]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.stats().compiled_statements, 1);
        let (i, c) = run_both(&p, &[4, 5]);
        assert_eq!(i, c);
    }

    #[test]
    fn never_valid_program_produces_nothing() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("Output", Op::Id, vec![name("Input")]),
                st("Output.valid", Op::Id, vec![lit(0)]),
            ],
        };
        let plan = CompiledProgram::compile(&p).unwrap();
        assert_eq!(plan.valid, ValidMode::Never);
        let (i, c) = run_both(&p, &[1, 2]);
        assert_eq!(i, c);
        assert_eq!(c, vec![None, None]);
    }

    #[test]
    fn plan_cache_hits_do_not_recompile() {
        let config = EngineConfig {
            extractor: crate::config::ExtractorConfig {
                kind: crate::ExtractorKind::FixedWidth,
            },
            program: Program {
                regs: vec![],
                statements: vec![st("Output", Op::Xor, vec![name("Input"), lit(0xDEAD_0001)])],
            },
            exceptions: crate::config::ExceptionConfig::default(),
            delta: crate::config::DeltaConfig::default(),
        };
        let a = plan_for(&config).unwrap();
        let b = plan_for(&config).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn compile_count_is_monotonic() {
        let before = compile_count();
        let config = EngineConfig {
            extractor: crate::config::ExtractorConfig {
                kind: crate::ExtractorKind::FixedWidth,
            },
            program: Program {
                regs: vec![],
                statements: vec![st("Output", Op::Xor, vec![name("Input"), lit(0xDEAD_0002)])],
            },
            exceptions: crate::config::ExceptionConfig::default(),
            delta: crate::config::DeltaConfig::default(),
        };
        plan_for(&config).unwrap();
        assert!(compile_count() > before);
        let mid = compile_count();
        for _ in 0..10 {
            plan_for(&config).unwrap();
        }
        // Other tests may compile concurrently, but these ten repeats must
        // not add ten compiles themselves; give them a small margin.
        assert!(compile_count() - mid < 10);
    }
}
