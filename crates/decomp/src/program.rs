//! The stage-2 programmable datapath: a register-transfer program over
//! wires and registers, interpreted once per extracted payload unit.

use std::collections::HashMap;

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

/// An execution fault (tests the validator missed, e.g. a read of a wire
/// never assigned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description of the fault.
    pub reason: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage-2 program fault: {}", self.reason)
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

    /// Statically checks the program: operand arity, reads of undefined
    /// wires, duplicate registers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), ExecError> {
        let mut defined: Vec<&str> = vec!["Input"];
        for r in &self.regs {
            if defined.contains(&r.name.as_str()) {
                return Err(ExecError {
                    reason: format!("duplicate definition of {}", r.name),
                });
            }
            defined.push(&r.name);
        }
        let reg_names: Vec<&str> = self.regs.iter().map(|r| r.name.as_str()).collect();
        let mut assigned: Vec<&str> = Vec::new();
        for st in &self.statements {
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
            for a in &st.args {
                if let Operand::Name(n) = a {
                    let readable = n == "Input"
                        || reg_names.contains(&n.as_str())
                        || assigned.contains(&n.as_str());
                    if !readable {
                        return Err(ExecError {
                            reason: format!("read of undefined wire {n}"),
                        });
                    }
                }
            }
            if !reg_names.contains(&st.dest.as_str()) {
                assigned.push(&st.dest);
            }
        }
        // Reset signals must name assigned wires or registers.
        for r in &self.regs {
            if !r.reset_signal.is_empty()
                && !assigned.contains(&r.reset_signal.as_str())
                && !reg_names.contains(&r.reset_signal.as_str())
            {
                return Err(ExecError {
                    reason: format!(
                        "reset signal {} of register {} is never assigned",
                        r.reset_signal, r.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Creates the mutable register file for one execution.
    pub fn fresh_state(&self) -> RegFile {
        RegFile {
            values: self.regs.iter().map(|r| (r.name.clone(), r.init)).collect(),
        }
    }

    /// Runs one cycle with payload `input`, updating `state`. Returns
    /// `Some(value)` when `Output.valid` evaluated nonzero. `wires` is
    /// scratch: cleared on entry, so a block-decode loop can reuse one
    /// map instead of rebuilding the environment on every unit.
    ///
    /// Registers read their start-of-cycle value, commit at the end of
    /// the cycle, then apply synchronous resets in declaration order;
    /// shifts by 32 or more yield zero; the last write to a port wins, and
    /// `Output.valid` defaults to asserted.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on reads of undefined wires (a validated
    /// program cannot fault) or when `state` is another program's
    /// register file.
    pub fn step_in<'p>(
        &'p self,
        input: u32,
        state: &mut RegFile,
        wires: &mut HashMap<&'p str, u32>,
    ) -> Result<Option<u32>, ExecError> {
        wires.clear();
        let read =
            |name: &str, wires: &HashMap<&str, u32>, state: &RegFile| -> Result<u32, ExecError> {
                if name == "Input" {
                    return Ok(input);
                }
                if let Some(&v) = wires.get(name) {
                    return Ok(v);
                }
                if let Some(v) = state.values.get(name) {
                    return Ok(*v);
                }
                Err(ExecError {
                    reason: format!("read of undefined wire {name}"),
                })
            };
        let eval =
            |a: &Operand, wires: &HashMap<&str, u32>, state: &RegFile| -> Result<u32, ExecError> {
                match a {
                    Operand::Literal(v) => Ok(*v),
                    Operand::Name(n) => read(n, wires, state),
                }
            };

        let mut reg_next: Vec<(usize, u32)> = Vec::new();
        let mut output = None;
        let mut valid = None;
        for st in &self.statements {
            let vals: Vec<u32> = st
                .args
                .iter()
                .map(|a| eval(a, wires, state))
                .collect::<Result<_, _>>()?;
            let v = match st.op {
                Op::Shr => vals[0].checked_shr(vals[1]).unwrap_or(0),
                Op::Shl => vals[0].checked_shl(vals[1]).unwrap_or(0),
                Op::And => vals[0] & vals[1],
                Op::Or => vals[0] | vals[1],
                Op::Xor => vals[0] ^ vals[1],
                Op::Add => vals[0].wrapping_add(vals[1]),
                Op::Sub => vals[0].wrapping_sub(vals[1]),
                Op::Mux => {
                    if vals[0] != 0 {
                        vals[1]
                    } else {
                        vals[2]
                    }
                }
                Op::Id => vals[0],
            };
            match st.dest.as_str() {
                "Output" => output = Some(v),
                "Output.valid" => valid = Some(v),
                dest => {
                    if let Some(i) = self.regs.iter().position(|r| r.name == dest) {
                        reg_next.push((i, v));
                    } else {
                        wires.insert(dest, v);
                    }
                }
            }
        }

        // Commit register writes (registers update at the clock edge).
        for (i, v) in reg_next {
            *state.reg_mut(&self.regs[i].name)? = v;
        }
        // Apply resets after commit, as a synchronous reset would.
        for r in &self.regs {
            if !r.reset_signal.is_empty() {
                let sig = if let Some(&v) = wires.get(r.reset_signal.as_str()) {
                    v
                } else {
                    state.values.get(&r.reset_signal).copied().unwrap_or(0)
                };
                if sig != 0 {
                    *state.reg_mut(&r.name)? = r.init;
                }
            }
        }

        let is_valid = valid.unwrap_or(1) != 0;
        Ok(if is_valid { output } else { None })
    }
}

/// The register file of one running program instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFile {
    values: HashMap<String, u32>,
}

impl RegFile {
    fn reg_mut(&mut self, name: &str) -> Result<&mut u32, ExecError> {
        self.values.get_mut(name).ok_or_else(|| ExecError {
            reason: format!("register {name} is not in this register file"),
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn name(n: &str) -> Operand {
        Operand::Name(n.into())
    }

    fn lit(v: u32) -> Operand {
        Operand::Literal(v)
    }

    fn step(p: &Program, input: u32, state: &mut RegFile) -> Result<Option<u32>, ExecError> {
        p.step_in(input, state, &mut HashMap::new())
    }

    #[test]
    fn identity_passes_through() {
        let p = Program::identity();
        p.validate().unwrap();
        let mut st = p.fresh_state();
        assert_eq!(step(&p, 42, &mut st).unwrap(), Some(42));
        assert_eq!(step(&p, 0, &mut st).unwrap(), Some(0));
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
        p.validate().unwrap();
        let mut st = p.fresh_state();
        assert_eq!(step(&p, 1, &mut st).unwrap(), Some(1));
        assert_eq!(step(&p, 2, &mut st).unwrap(), Some(3));
        assert_eq!(step(&p, 4, &mut st).unwrap(), Some(7));
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
        p.validate().unwrap();
        let mut st = p.fresh_state();
        assert_eq!(step(&p, 3, &mut st).unwrap(), None, "no terminator yet");
        assert_eq!(
            step(&p, 0x85, &mut st).unwrap(),
            Some(8),
            "3 + 5, terminator seen"
        );
        assert_eq!(
            step(&p, 0x81, &mut st).unwrap(),
            Some(1),
            "register was reset"
        );
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
        p.validate().unwrap();
        let mut st = p.fresh_state();
        assert_eq!(step(&p, 1, &mut st).unwrap(), Some(10));
        assert_eq!(step(&p, 0, &mut st).unwrap(), Some(20));
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
        assert!(p.validate().is_err());
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
        assert!(p.validate().is_err());
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
        assert!(p.validate().is_err());
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
        let mut st = p.fresh_state();
        assert_eq!(step(&p, 1, &mut st).unwrap(), Some(0));
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

    /// Validates `p` and runs it over `inputs` from a fresh register file.
    fn run(p: &Program, inputs: &[u32]) -> Vec<Option<u32>> {
        p.validate().unwrap();
        let mut state = p.fresh_state();
        let mut wires = HashMap::new();
        inputs
            .iter()
            .map(|&x| p.step_in(x, &mut state, &mut wires).unwrap())
            .collect()
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
        // `Output` validates as a reset signal but is not a wire, so it
        // reads as constant 0.
        let p = Program {
            regs: vec![reg("Acc", "Output")],
            statements: vec![
                st("Acc", Op::Add, vec![name("Acc"), name("Input")]),
                st("Output", Op::Id, vec![name("Acc")]),
            ],
        };
        assert_eq!(run(&p, &[1, 2, 3]), [Some(0), Some(1), Some(3)]);
    }
}
