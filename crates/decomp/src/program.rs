//! The stage-2 programmable datapath: a register-transfer program over
//! wires and registers, in the named form a configuration file spells
//! out. [`CompiledProgram`](crate::CompiledProgram) resolves it to slots
//! and runs it once per extracted payload unit.

/// A primitive functional unit of the manipulation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Logical shift right.
    Shr,
    /// Logical shift left.
    Shl,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// `MUX(cond, a, b)`: `a` if `cond != 0`, else `b`.
    Mux,
    /// Pass-through of a single operand.
    Id,
}

impl Op {
    /// Number of operands the unit takes.
    pub fn arity(self) -> usize {
        match self {
            Op::Mux => 3,
            Op::Id => 1,
            _ => 2,
        }
    }

    /// Parses an op mnemonic as written in config files
    /// (case-insensitive, without allocating).
    pub fn parse(s: &str) -> Option<Op> {
        const MNEMONICS: [(&str, Op); 9] = [
            ("SHR", Op::Shr),
            ("SHL", Op::Shl),
            ("AND", Op::And),
            ("OR", Op::Or),
            ("XOR", Op::Xor),
            ("ADD", Op::Add),
            ("SUB", Op::Sub),
            ("MUX", Op::Mux),
            ("ID", Op::Id),
        ];
        MNEMONICS
            .iter()
            .find(|(m, _)| s.eq_ignore_ascii_case(m))
            .map(|&(_, op)| op)
    }
}

/// An operand: a literal, a wire/register read, or the stage input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// Immediate constant.
    Literal(u32),
    /// Named wire or register.
    Name(String),
}

/// One connection: `dest := OP(args...)`, or a plain alias
/// `dest := name/literal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Destination wire, register, `Output`, or `Output.valid`.
    pub dest: String,
    /// The functional unit.
    pub op: Op,
    /// Its operands.
    pub args: Vec<Operand>,
}

/// A register declaration: `RegInit(name, init, reset_signal)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegDecl {
    /// Register name.
    pub name: String,
    /// Initial (and reset) value.
    pub init: u32,
    /// Wire whose nonzero value re-initializes the register after the
    /// cycle; empty string means never reset.
    pub reset_signal: String,
}

/// The complete stage-2 program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Register declarations.
    pub regs: Vec<RegDecl>,
    /// Statements, executed in order every cycle.
    pub statements: Vec<Statement>,
}

/// Why a program does not compile: a read of a wire never assigned, of
/// a write-only port, a wrong operand count or a duplicate register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// What is wrong with the program.
    pub reason: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage-2 program does not compile: {}", self.reason)
    }
}

impl std::error::Error for ExecError {}

impl Program {
    /// The identity program: `Output := Input`, always valid.
    pub fn identity() -> Self {
        Program {
            regs: Vec::new(),
            statements: vec![
                Statement {
                    dest: "Output".into(),
                    op: Op::Id,
                    args: vec![Operand::Name("Input".into())],
                },
                Statement {
                    dest: "Output.valid".into(),
                    op: Op::Id,
                    args: vec![Operand::Literal(1)],
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::CompiledProgram;

    fn name(n: &str) -> Operand {
        Operand::Name(n.into())
    }

    fn lit(v: u32) -> Operand {
        Operand::Literal(v)
    }

    #[test]
    fn identity_passes_through() {
        let p = Program::identity();
        let p = CompiledProgram::compile(&p).unwrap();
        let mut st = p.state();
        assert_eq!(p.step(42, &mut st), Some(42));
        assert_eq!(p.step(0, &mut st), Some(0));
    }

    #[test]
    fn accumulator_program() {
        // Running sum of inputs, always valid.
        let p = Program {
            regs: vec![RegDecl {
                name: "Acc".into(),
                init: 0,
                reset_signal: String::new(),
            }],
            statements: vec![
                Statement {
                    dest: "sum".into(),
                    op: Op::Add,
                    args: vec![name("Acc"), name("Input")],
                },
                Statement {
                    dest: "Acc".into(),
                    op: Op::Id,
                    args: vec![name("sum")],
                },
                Statement {
                    dest: "Output".into(),
                    op: Op::Id,
                    args: vec![name("sum")],
                },
            ],
        };
        let p = CompiledProgram::compile(&p).unwrap();
        let mut st = p.state();
        assert_eq!(p.step(1, &mut st), Some(1));
        assert_eq!(p.step(2, &mut st), Some(3));
        assert_eq!(p.step(4, &mut st), Some(7));
    }

    #[test]
    fn reset_reinitializes_register() {
        // Accumulate; reset when input has bit 7 set.
        let p = Program {
            regs: vec![RegDecl {
                name: "Acc".into(),
                init: 0,
                reset_signal: "flush".into(),
            }],
            statements: vec![
                Statement {
                    dest: "flush".into(),
                    op: Op::Shr,
                    args: vec![name("Input"), lit(7)],
                },
                Statement {
                    dest: "pay".into(),
                    op: Op::And,
                    args: vec![name("Input"), lit(0x7F)],
                },
                Statement {
                    dest: "sum".into(),
                    op: Op::Add,
                    args: vec![name("Acc"), name("pay")],
                },
                Statement {
                    dest: "Acc".into(),
                    op: Op::Id,
                    args: vec![name("sum")],
                },
                Statement {
                    dest: "Output".into(),
                    op: Op::Id,
                    args: vec![name("sum")],
                },
                Statement {
                    dest: "Output.valid".into(),
                    op: Op::Id,
                    args: vec![name("flush")],
                },
            ],
        };
        let p = CompiledProgram::compile(&p).unwrap();
        let mut st = p.state();
        assert_eq!(p.step(3, &mut st), None, "no terminator yet");
        assert_eq!(p.step(0x85, &mut st), Some(8), "3 + 5, terminator seen");
        assert_eq!(p.step(0x81, &mut st), Some(1), "register was reset");
    }

    #[test]
    fn mux_selects() {
        let p = Program {
            regs: vec![],
            statements: vec![Statement {
                dest: "Output".into(),
                op: Op::Mux,
                args: vec![name("Input"), lit(10), lit(20)],
            }],
        };
        let p = CompiledProgram::compile(&p).unwrap();
        let mut st = p.state();
        assert_eq!(p.step(1, &mut st), Some(10));
        assert_eq!(p.step(0, &mut st), Some(20));
    }

    #[test]
    fn validate_rejects_undefined_wire() {
        let p = Program {
            regs: vec![],
            statements: vec![Statement {
                dest: "Output".into(),
                op: Op::Id,
                args: vec![name("ghost")],
            }],
        };
        assert!(CompiledProgram::compile(&p).is_err());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let p = Program {
            regs: vec![],
            statements: vec![Statement {
                dest: "Output".into(),
                op: Op::Add,
                args: vec![lit(1)],
            }],
        };
        assert!(CompiledProgram::compile(&p).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_register() {
        let p = Program {
            regs: vec![
                RegDecl {
                    name: "R".into(),
                    init: 0,
                    reset_signal: String::new(),
                },
                RegDecl {
                    name: "R".into(),
                    init: 0,
                    reset_signal: String::new(),
                },
            ],
            statements: vec![],
        };
        assert!(CompiledProgram::compile(&p).is_err());
    }

    #[test]
    fn shift_overflow_yields_zero() {
        let p = Program {
            regs: vec![],
            statements: vec![Statement {
                dest: "Output".into(),
                op: Op::Shl,
                args: vec![name("Input"), lit(40)],
            }],
        };
        let p = CompiledProgram::compile(&p).unwrap();
        let mut st = p.state();
        assert_eq!(p.step(1, &mut st), Some(0));
    }

    #[test]
    fn op_parse() {
        assert_eq!(Op::parse("shr"), Some(Op::Shr));
        assert_eq!(Op::parse("MUX"), Some(Op::Mux));
        assert_eq!(Op::parse("nope"), None);
        assert_eq!(Op::Mux.arity(), 3);
        assert_eq!(Op::Id.arity(), 1);
    }

    fn st(dest: &str, op: Op, args: Vec<Operand>) -> Statement {
        Statement {
            dest: dest.into(),
            op,
            args,
        }
    }

    fn reg(name: &str, reset_signal: &str) -> RegDecl {
        RegDecl {
            name: name.into(),
            init: 0,
            reset_signal: reset_signal.into(),
        }
    }

    /// Compiles `p` and runs it over `inputs` from its start state.
    fn run(p: &Program, inputs: &[u32]) -> Vec<Option<u32>> {
        let p = CompiledProgram::compile(p).unwrap();
        let mut state = p.state();
        inputs.iter().map(|&x| p.step(x, &mut state)).collect()
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
        assert_eq!(run(&p, &[0, 5]), [Some(10), Some(15)]);
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
        assert_eq!(run(&p, &[0, 7]), [Some(101), Some(115)]);
    }

    #[test]
    fn mux_with_literal_condition_selects_its_arm() {
        let p = Program {
            regs: vec![],
            statements: vec![
                st("x", Op::Mux, vec![lit(1), name("Input"), lit(99)]),
                st("Output", Op::Id, vec![name("x")]),
            ],
        };
        assert_eq!(run(&p, &[4, 5]), [Some(4), Some(5)]);
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
        assert_eq!(run(&p, &[1, 2]), [None, None]);
    }

    #[test]
    fn reset_from_register_alias_reads_pre_commit_value() {
        // `sig` aliases register R, so the reset sees R's value from the
        // start of the cycle: R counts 0, 1 and resets, never reaching 2.
        let p = Program {
            regs: vec![reg("R", "sig")],
            statements: vec![
                st("sig", Op::Id, vec![name("R")]),
                st("R", Op::Add, vec![name("R"), name("Input")]),
                st("Output", Op::Id, vec![name("R")]),
            ],
        };
        assert_eq!(run(&p, &[1, 1, 1, 1]), [Some(0), Some(1), Some(0), Some(1)]);
    }

    #[test]
    fn reset_from_other_register_sees_committed_value() {
        // A counts up and resets in the cycle that commits a nonzero B.
        let p = Program {
            regs: vec![reg("A", "B"), reg("B", "")],
            statements: vec![
                st("A", Op::Add, vec![name("A"), lit(1)]),
                st("B", Op::Id, vec![name("Input")]),
                st("Output", Op::Id, vec![name("A")]),
            ],
        };
        let outputs = run(&p, &[0, 0, 1, 0, 1, 1, 0]);
        let expect = [0, 1, 2, 0, 1, 0, 0].map(Some);
        assert_eq!(outputs, expect);
    }

    #[test]
    fn reset_signal_naming_output_never_fires() {
        // `Output` is a write-only port: a reset signal naming it would
        // read a constant 0, so the program does not compile.
        let p = Program {
            regs: vec![reg("Acc", "Output")],
            statements: vec![
                st("Acc", Op::Add, vec![name("Acc"), name("Input")]),
                st("Output", Op::Id, vec![name("Acc")]),
            ],
        };
        assert!(CompiledProgram::compile(&p).is_err());
    }
}
