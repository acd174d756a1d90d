//! The validate-and-wrap handle for a stage-2 program.

use crate::program::{ExecError, Program};

/// A stage-2 program that passed [`Program::validate`]. Decoding runs
/// through [`DecompEngine`](crate::DecompEngine), which validates its
/// program on construction; this handle only names that check.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram(Program);

impl CompiledProgram {
    /// Validates `program` and wraps a copy of it.
    ///
    /// # Errors
    ///
    /// The first violation [`Program::validate`] finds.
    pub fn compile(program: &Program) -> Result<CompiledProgram, ExecError> {
        program.validate()?;
        Ok(CompiledProgram(program.clone()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::program::{Op, Operand, RegDecl, Statement};
    use std::collections::HashMap;

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

    /// Compiles `p` and runs the wrapped program over `inputs` from a
    /// fresh register file.
    fn run(p: &Program, inputs: &[u32]) -> Vec<Option<u32>> {
        let CompiledProgram(program) = CompiledProgram::compile(p).unwrap();
        assert_eq!(&program, p, "the handle wraps the program unchanged");
        let mut state = program.fresh_state();
        let mut wires = HashMap::new();
        inputs
            .iter()
            .map(|&x| program.step_in(x, &mut state, &mut wires).unwrap())
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
