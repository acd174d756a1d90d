//! Compiler ⇔ interpreter equivalence on *random* stage-2 programs.
//!
//! The generator builds arbitrary valid programs — wire rebinding, `Mux`
//! paths, register updates, reset signals (including register-sourced
//! ones), shadowed `Output` writes, missing `Output.valid` — and asserts
//! that the compiled plan produces exactly the interpreter's output
//! sequence for every input stream.

use boss_compress::{codec_for, Scheme};
use boss_decomp::{
    reference, CompiledProgram, DecompEngine, Op, Operand, Program, RegDecl, Statement,
};
use proptest::prelude::*;
use std::collections::HashMap;

const OPS: [Op; 9] = [
    Op::Shr,
    Op::Shl,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Add,
    Op::Sub,
    Op::Mux,
    Op::Id,
];

#[derive(Debug, Clone)]
struct StmtSpec {
    op: u8,
    dest: u8,
    picks: [u16; 3],
    lits: [u32; 3],
}

fn arb_stmt_spec() -> impl Strategy<Value = StmtSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        prop::collection::vec(any::<u16>(), 3),
        prop::collection::vec(
            prop_oneof![
                3 => any::<u32>(),
                // Small literals hit the fold/fuse paths (shifts < 32, masks).
                2 => 0u32..40,
            ],
            3,
        ),
    )
        .prop_map(|(op, dest, picks, lits)| StmtSpec {
            op,
            dest,
            picks: [picks[0], picks[1], picks[2]],
            lits: [lits[0], lits[1], lits[2]],
        })
}

/// Deterministically builds a *valid-by-construction* program from specs:
/// operands only ever reference `Input`, literals, registers, or wires
/// assigned earlier.
fn build_program(
    n_regs: usize,
    inits: Vec<u32>,
    resets: Vec<u16>,
    specs: Vec<StmtSpec>,
) -> Program {
    let regs: Vec<String> = (0..n_regs).map(|i| format!("r{i}")).collect();
    let mut wires: Vec<String> = Vec::new();
    let mut statements = Vec::new();
    let mut has_output = false;
    for (si, spec) in specs.iter().enumerate() {
        let op = OPS[spec.op as usize % OPS.len()];
        let mut args = Vec::new();
        for k in 0..op.arity() {
            let pool = 2 + n_regs + wires.len();
            let pick = spec.picks[k] as usize % pool;
            args.push(match pick {
                0 => Operand::Literal(spec.lits[k]),
                1 => Operand::Name("Input".into()),
                p if p < 2 + n_regs => Operand::Name(regs[p - 2].clone()),
                p => Operand::Name(wires[p - 2 - n_regs].clone()),
            });
        }
        let dest = match spec.dest % 8 {
            4 if n_regs > 0 => regs[spec.picks[0] as usize % n_regs].clone(),
            5 => {
                has_output = true;
                "Output".into()
            }
            6 => "Output.valid".into(),
            _ => {
                let w = format!("w{si}");
                wires.push(w.clone());
                w
            }
        };
        statements.push(Statement { dest, op, args });
    }
    if !has_output {
        // Keep most generated programs observable; ~never-valid and
        // no-output cases are still covered when `dest % 8 == 6` shadows
        // validity with zero, and by the dedicated engine stall tests.
        statements.push(Statement {
            dest: "Output".into(),
            op: Op::Id,
            args: vec![wires
                .last()
                .map(|w| Operand::Name(w.clone()))
                .unwrap_or(Operand::Name("Input".into()))],
        });
    }
    let reg_decls = (0..n_regs)
        .map(|i| {
            let pool = 1 + n_regs + wires.len();
            let pick = resets[i] as usize % pool;
            let reset_signal = match pick {
                0 => String::new(),
                p if p < 1 + n_regs => regs[p - 1].clone(),
                p => wires[p - 1 - n_regs].clone(),
            };
            RegDecl {
                name: regs[i].clone(),
                init: inits[i],
                reset_signal,
            }
        })
        .collect();
    Program {
        regs: reg_decls,
        statements,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core property: for any valid program and input stream, the
    /// compiled plan's per-cycle outputs equal the interpreter's.
    #[test]
    fn compiled_plan_matches_interpreter_on_random_programs(
        n_regs in 0usize..3,
        inits in prop::collection::vec(any::<u32>(), 3),
        resets in prop::collection::vec(any::<u16>(), 3),
        specs in prop::collection::vec(arb_stmt_spec(), 1..14),
        inputs in prop::collection::vec(any::<u32>(), 1..128),
    ) {
        let program = build_program(n_regs, inits, resets, specs);
        program.validate().expect("generated programs are valid by construction");
        let plan = CompiledProgram::compile(&program).expect("validated programs compile");
        let mut interp_state = program.fresh_state();
        let mut comp_state = plan.new_state();
        let mut wires = HashMap::new();
        for (i, &x) in inputs.iter().enumerate() {
            let interpreted = program
                .step_in(x, &mut interp_state, &mut wires)
                .expect("validated programs cannot fault");
            let compiled = plan.step(x, &mut comp_state);
            prop_assert_eq!(interpreted, compiled, "cycle {} of {:?}", i, program);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The shipped scheme configurations decode bit-equal (values *and*
    /// cycles) interpreted vs compiled across widths 0–32 and block
    /// lengths 1–128.
    #[test]
    fn scheme_configs_decode_bit_equal_across_widths(
        raw in prop::collection::vec(any::<u32>(), 1..129),
        base in any::<u32>(),
    ) {
        for width in 0..=32u32 {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
            for scheme in [Scheme::Bp, Scheme::OptPfd, Scheme::Vb] {
                let codec = codec_for(scheme);
                let mut data = Vec::new();
                let info = codec.encode(&values, &mut data).unwrap();
                let engine = DecompEngine::for_scheme(scheme).unwrap();
                let compiled = engine.decode(&data, &info).unwrap();
                let interpreted = reference::decode(engine.config(), &data, &info).unwrap();
                prop_assert_eq!(&compiled, &interpreted, "scheme {} width {}", scheme, width);
                let c_docs = engine.decode_docids(&data, &info, base).unwrap();
                let i_docs =
                    reference::decode_docids(engine.config(), &data, &info, base).unwrap();
                prop_assert_eq!(c_docs, i_docs, "docids, scheme {} width {}", scheme, width);
            }
        }
    }
}

/// Register reset via the VB flush signal, driven through both paths over
/// a long stream (registers carry state across every unit).
#[test]
fn vb_register_resets_match_over_long_streams() {
    let values: Vec<u32> = (0..4096u32)
        .map(|i| i.wrapping_mul(2654435761) >> (i % 27))
        .collect();
    let codec = codec_for(Scheme::Vb);
    let mut data = Vec::new();
    let info = codec.encode(&values, &mut data).unwrap();
    let engine = DecompEngine::for_scheme(Scheme::Vb).unwrap();
    let compiled = engine.decode(&data, &info).unwrap();
    let interpreted = reference::decode(engine.config(), &data, &info).unwrap();
    assert_eq!(compiled, interpreted);
    assert_eq!(compiled.values, values);
}
