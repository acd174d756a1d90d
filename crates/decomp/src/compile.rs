//! The resolved stage-2 netlist: every name of a [`Program`] bound to a
//! slot of one value file, once, so a cycle reads and writes by index.

use crate::program::{ExecError, Op, Operand, Program};

/// Where an operand comes from: an immediate or a slot of the value file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Lit(u32),
    Slot(usize),
}

/// Where a statement's result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// A wire's slot; a rebound wire keeps its slot.
    Wire(usize),
    /// A register's pending (next-cycle) value, by declaration index.
    Reg(usize),
    Output,
    Valid,
}

/// One register: its init (and reset) value and the slot its reset
/// signal is read from, if it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reg {
    init: u32,
    reset: Option<usize>,
}

/// A stage-2 program checked and resolved in one pass.
///
/// The value file has slot 0 for `Input`, slots `1..=R` for the `R`
/// registers' start-of-cycle values, then one slot per distinct wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    statements: Vec<(Op, [Src; 3], Dest)>,
    regs: Vec<Reg>,
    slots: usize,
}

/// The running state of one [`CompiledProgram`]: its value file and the
/// registers' pending values. Made by [`CompiledProgram::state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    values: Vec<u32>,
    pending: Vec<u32>,
}

impl CompiledProgram {
    /// Checks `program` and resolves every name it reads or writes.
    ///
    /// # Errors
    ///
    /// The first violation found: a register declared twice or named
    /// after a port, an operand count that does not match its unit, or a
    /// read — by an operand or a reset signal — of `Output`,
    /// `Output.valid` or a name that is neither a register nor a wire
    /// assigned before it.
    pub fn compile(program: &Program) -> Result<CompiledProgram, ExecError> {
        let fault = |reason: String| ExecError { reason };
        let names = &program.regs;
        for (i, r) in names.iter().enumerate() {
            let port = ["Input", "Output", "Output.valid"].contains(&r.name.as_str());
            if port || names[..i].iter().any(|q| q.name == r.name) {
                return Err(fault(format!("duplicate definition of {}", r.name)));
            }
        }
        let reg = |n: &str| names.iter().position(|r| r.name == n);
        // Wire name → slot, in order of first binding.
        let mut wires: Vec<(&str, usize)> = Vec::new();
        let wire = |wires: &[(&str, usize)], n: &str| {
            wires.iter().find(|&&(w, _)| w == n).map(|&(_, s)| s)
        };
        // The slot a name reads: its wire as last bound, else its register.
        let read = |wires: &[(&str, usize)], n: &str| match n {
            "Output" | "Output.valid" => Err(fault(format!("read of write-only port {n}"))),
            _ => wire(wires, n)
                .or(reg(n).map(|i| 1 + i))
                .ok_or_else(|| fault(format!("read of undefined wire {n}"))),
        };

        let mut statements = Vec::with_capacity(program.statements.len());
        for st in &program.statements {
            if st.args.len() != st.op.arity() {
                return Err(fault(format!(
                    "{:?} takes {} operands, got {}",
                    st.op,
                    st.op.arity(),
                    st.args.len()
                )));
            }
            let mut srcs = [Src::Lit(0); 3];
            for (src, arg) in srcs.iter_mut().zip(&st.args) {
                *src = match arg {
                    Operand::Literal(v) => Src::Lit(*v),
                    Operand::Name(n) if n == "Input" => Src::Slot(0),
                    Operand::Name(n) => Src::Slot(read(&wires, n)?),
                };
            }
            let dest = match (st.dest.as_str(), reg(&st.dest)) {
                ("Output", _) => Dest::Output,
                ("Output.valid", _) => Dest::Valid,
                (_, Some(i)) => Dest::Reg(i),
                (d, None) => Dest::Wire(match wire(&wires, d) {
                    Some(slot) => slot,
                    None => {
                        let slot = 1 + names.len() + wires.len();
                        wires.push((d, slot));
                        slot
                    }
                }),
            };
            statements.push((st.op, srcs, dest));
        }

        let mut regs = Vec::with_capacity(names.len());
        for r in names {
            let reset = match r.reset_signal.as_str() {
                "" => None,
                n => Some(read(&wires, n).map_err(|e| {
                    fault(format!("reset signal of register {}: {}", r.name, e.reason))
                })?),
            };
            regs.push(Reg {
                init: r.init,
                reset,
            });
        }
        let slots = 1 + names.len() + wires.len();
        Ok(CompiledProgram {
            statements,
            regs,
            slots,
        })
    }

    /// The state a block's decode starts from: every register at its
    /// init value.
    pub fn state(&self) -> State {
        let mut values = vec![0; self.slots];
        let pending: Vec<u32> = self.regs.iter().map(|r| r.init).collect();
        values[1..=pending.len()].copy_from_slice(&pending);
        State { values, pending }
    }

    /// Runs one cycle with payload `input`. Returns `Some(value)` when
    /// `Output` was written and `Output.valid` is nonzero.
    ///
    /// Registers read their start-of-cycle value, commit at the clock
    /// edge, then apply synchronous resets in declaration order, reading
    /// post-commit values; shifts by 32 or more yield zero; the last
    /// write to a port wins, and `Output.valid` defaults to asserted.
    ///
    /// # Panics
    ///
    /// If `state` was made by another, smaller program.
    pub fn step(&self, input: u32, state: &mut State) -> Option<u32> {
        let State { values, pending } = state;
        values[0] = input;
        let mut output = None;
        let mut valid = 1;
        for &(op, srcs, dest) in &self.statements {
            let [a, b, c] = srcs.map(|s| match s {
                Src::Lit(v) => v,
                Src::Slot(i) => values[i],
            });
            let v = match op {
                Op::Shr => a.checked_shr(b).unwrap_or(0),
                Op::Shl => a.checked_shl(b).unwrap_or(0),
                Op::And => a & b,
                Op::Or => a | b,
                Op::Xor => a ^ b,
                Op::Add => a.wrapping_add(b),
                Op::Sub => a.wrapping_sub(b),
                Op::Mux if a != 0 => b,
                Op::Mux => c,
                Op::Id => a,
            };
            match dest {
                Dest::Wire(i) => values[i] = v,
                Dest::Reg(i) => pending[i] = v,
                Dest::Output => output = Some(v),
                Dest::Valid => valid = v,
            }
        }

        // The clock edge: every register takes its pending value, then
        // the synchronous resets read what was committed. (A loop, not
        // `copy_from_slice`: a memcpy call per unit costs more than the
        // usual zero to two registers.)
        for (value, &p) in values[1..].iter_mut().zip(pending.iter()) {
            *value = p;
        }
        for (i, r) in self.regs.iter().enumerate() {
            if r.reset.is_some_and(|s| values[s] != 0) {
                values[1 + i] = r.init;
                pending[i] = r.init;
            }
        }
        output.filter(|_| valid != 0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::program::{RegDecl, Statement};
    use crate::EngineConfig;

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

    /// Compiles `p` and runs it over `inputs` from its start state.
    fn run(p: &Program, inputs: &[u32]) -> Vec<Option<u32>> {
        let program = CompiledProgram::compile(p).unwrap();
        let mut state = program.state();
        inputs
            .iter()
            .map(|&x| program.step(x, &mut state))
            .collect()
    }

    #[test]
    fn compile_validates() {
        assert!(CompiledProgram::compile(&Program::identity()).is_ok());
        let p = Program {
            regs: vec![],
            statements: vec![st("Output", Op::Id, vec![name("ghost")])],
        };
        assert!(CompiledProgram::compile(&p).is_err());
    }

    #[test]
    fn reading_a_port_is_rejected() {
        // As an operand, after the port was written.
        for port in ["Output", "Output.valid"] {
            let p = Program {
                regs: vec![],
                statements: vec![
                    st(port, Op::Id, vec![name("Input")]),
                    st("x", Op::Id, vec![name(port)]),
                    st("Output", Op::Id, vec![name("x")]),
                ],
            };
            let err = CompiledProgram::compile(&p).unwrap_err();
            assert!(err.reason.contains("write-only port"), "{err}");
        }
        // As a reset signal.
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
        let err = CompiledProgram::compile(&p).unwrap_err();
        assert!(err.reason.contains("write-only port"), "{err}");
        // And in configuration text.
        for text in [
            "Extractor[0].use = 1\nOutput := Input\nx := ID(Output)\n",
            "Extractor[0].use = 1\nRegInit( Acc, 0, Output )\nAcc := ADD(Acc, Input)\nOutput := Acc\n",
        ] {
            let err = EngineConfig::parse(text).unwrap_err();
            assert!(err.reason.contains("write-only port"), "{err}");
        }
    }

    #[test]
    fn identity_compiles_to_single_statement() {
        // `Output := Input` is the one statement writing `Output`; the
        // other sets the constant-1 valid.
        let p = Program::identity();
        let writes = p.statements.iter().filter(|s| s.dest == "Output").count();
        assert_eq!(writes, 1);
        assert_eq!(
            run(&p, &[42, 0, u32::MAX]),
            [Some(42), Some(0), Some(u32::MAX)]
        );
    }

    #[test]
    fn constant_folding_collapses_literal_chains() {
        // (3 + 4) << 2 = 28, or'ed with the input.
        let p = Program {
            regs: vec![],
            statements: vec![
                st("a", Op::Add, vec![lit(3), lit(4)]),
                st("b", Op::Shl, vec![name("a"), lit(2)]),
                st("Output", Op::Or, vec![name("b"), name("Input")]),
            ],
        };
        assert_eq!(run(&p, &[1, 0, 3]), [Some(29), Some(28), Some(31)]);
    }

    #[test]
    fn dead_nets_are_eliminated() {
        // Nets nothing reads leave the output untouched.
        let p = Program {
            regs: vec![],
            statements: vec![
                st("unused", Op::Xor, vec![name("Input"), name("Input")]),
                st("also_unused", Op::Add, vec![name("unused"), lit(9)]),
                st("Output", Op::Id, vec![name("Input")]),
            ],
        };
        assert_eq!(run(&p, &[1, 2, 3]), [Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn dead_register_update_is_dropped() {
        // A register nothing reads never reaches the output.
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
        assert_eq!(run(&p, &[5, 6, 7]), [Some(5), Some(6), Some(7)]);
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
        assert_eq!(
            run(&p, &[0xABCD, 0, u32::MAX]),
            [Some(0xC), Some(0), Some(0xF)]
        );
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
        assert_eq!(
            run(&p, &[0x1FF, 0x80, 3]),
            [Some(0x7F00), Some(0), Some(0x300)]
        );
    }

    #[test]
    fn multi_use_intermediate_is_not_fused() {
        // `t` feeds both the mask and the sum, so both see the same value.
        let p = Program {
            regs: vec![],
            statements: vec![
                st("t", Op::Shr, vec![name("Input"), lit(4)]),
                st("masked", Op::And, vec![name("t"), lit(0xF)]),
                st("Output", Op::Add, vec![name("masked"), name("t")]),
            ],
        };
        assert_eq!(
            run(&p, &[0xFFFF, 0x10, 0]),
            [Some(0xF + 0xFFF), Some(2), Some(0)]
        );
    }
}
