//! The load-bearing properties of the programmable decompression module:
//! for every scheme, the configured datapath decodes *bit-identically* to
//! the software codec, and the configuration's cost descriptor prices
//! every valid block at exactly the cycles the engine returns; and the
//! resolved netlist runs every program cycle for cycle like a by-name
//! interpreter of the same program.

use boss_compress::{codec_for, Scheme};
use boss_decomp::{
    CompiledProgram, DecompEngine, Op, Operand, Program, RegDecl, Statement, PIPELINE_FILL_CYCLES,
};
use proptest::prelude::*;

/// The paper's five evaluated schemes plus the Group-Varint extension —
/// every stock configuration in `boss_decomp::schemes`.
const STOCK_SCHEMES: [Scheme; 6] = [
    Scheme::Bp,
    Scheme::Vb,
    Scheme::OptPfd,
    Scheme::S16,
    Scheme::S8b,
    Scheme::GroupVarint,
];

fn check_equivalence(scheme: Scheme, values: &[u32]) {
    let codec = codec_for(scheme);
    let mut data = Vec::new();
    let Ok(info) = codec.encode(values, &mut data) else {
        return; // S16 range limits: nothing to compare.
    };
    let engine = DecompEngine::for_scheme(scheme).unwrap();
    let decoded = engine.decode(&data, &info).unwrap();
    let mut expect = Vec::new();
    codec.decode(&data, &info, &mut expect).unwrap();
    assert_eq!(decoded.values, expect, "scheme {scheme}");
    // The datapath prices itself: what the descriptor charges from the
    // stream's size and descriptor alone is what decoding it cost.
    let cost = engine.config().decode_cost();
    assert_eq!(
        cost.units(data.len() as u64, &info) + PIPELINE_FILL_CYCLES,
        decoded.cycles,
        "descriptor vs engine cycles, {scheme}"
    );
}

fn gap_stream() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            4 => 0u32..16,
            3 => 0u32..256,
            2 => 0u32..65536,
            1 => 0u32..(1 << 27),
        ],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_codec_on_gap_streams(values in gap_stream()) {
        for s in STOCK_SCHEMES {
            check_equivalence(s, &values);
        }
    }

    #[test]
    fn engine_matches_codec_on_arbitrary_u32(values in prop::collection::vec(any::<u32>(), 0..200)) {
        for s in STOCK_SCHEMES {
            check_equivalence(s, &values);
        }
    }

    #[test]
    fn stage4_matches_manual_prefix_sum(values in gap_stream(), base in 0u32..1000) {
        let codec = codec_for(Scheme::Vb);
        let mut data = Vec::new();
        let info = codec.encode(&values, &mut data).unwrap();
        let engine = DecompEngine::for_scheme(Scheme::Vb).unwrap();
        let got = engine.decode_docids(&data, &info, base).unwrap();
        let mut prev = base;
        let expect: Vec<u32> = values.iter().map(|&g| { prev = prev.wrapping_add(g); prev }).collect();
        prop_assert_eq!(got.values, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Width sweep for the word-level kernel reroute: the resolved
    /// netlist must stay bit-equal to the `boss-compress` decoders for
    /// every bit width 0–32 and block lengths 1–128, including through the
    /// stage-4 delta path.
    #[test]
    fn netlist_matches_codecs_across_all_bit_widths(
        raw in prop::collection::vec(any::<u32>(), 1..129),
        base in any::<u32>(),
    ) {
        for width in 0..=32u32 {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
            for s in [Scheme::Bp, Scheme::OptPfd] {
                check_equivalence(s, &values);
                // decode_docids (netlist stage 4) vs the codec's fused /
                // two-pass decode_d1.
                let codec = codec_for(s);
                let mut data = Vec::new();
                let info = codec.encode(&values, &mut data).unwrap();
                let engine = DecompEngine::for_scheme(s).unwrap();
                let got = engine.decode_docids(&data, &info, base).unwrap();
                let mut expect = Vec::new();
                codec.decode_d1(&data, &info, base, &mut expect).unwrap();
                prop_assert_eq!(&got.values, &expect, "scheme {} width {}", s, width);
            }
        }
    }
}

#[test]
fn cycle_counts_scale_with_encoded_size() {
    // VB charges one cycle per byte; BP one per field.
    let values = vec![1_000_000u32; 128]; // 3 bytes each in VB
    let mut data = Vec::new();
    let info = codec_for(Scheme::Vb).encode(&values, &mut data).unwrap();
    let vb = DecompEngine::for_scheme(Scheme::Vb).unwrap();
    let d = vb.decode(&data, &info).unwrap();
    assert!(d.cycles >= 3 * 128, "one unit per byte: {}", d.cycles);

    let mut data_bp = Vec::new();
    let info_bp = codec_for(Scheme::Bp).encode(&values, &mut data_bp).unwrap();
    let bp = DecompEngine::for_scheme(Scheme::Bp).unwrap();
    let d_bp = bp.decode(&data_bp, &info_bp).unwrap();
    assert!(d_bp.cycles < d.cycles, "BP extracts one field per cycle");

    // Group-Varint's extractor hands stage 2 one assembled field per
    // cycle, so its price is the value count, not its 3-bytes-a-value
    // stream length.
    let mut data_gvb = Vec::new();
    let codec = codec_for(Scheme::GroupVarint);
    let info_gvb = codec.encode(&values, &mut data_gvb).unwrap();
    let gvb = DecompEngine::for_scheme(Scheme::GroupVarint).unwrap();
    let d_gvb = gvb.decode(&data_gvb, &info_gvb).unwrap();
    assert_eq!(d_gvb.cycles, 128 + PIPELINE_FILL_CYCLES);
    assert_eq!(
        gvb.config()
            .decode_cost()
            .units(data_gvb.len() as u64, &info_gvb),
        128
    );
}

#[test]
fn engine_rejects_corrupt_pfd_exceptions() {
    let mut values = vec![1u32; 64];
    values[10] = 1 << 25;
    let mut data = Vec::new();
    let info = codec_for(Scheme::OptPfd)
        .encode(&values, &mut data)
        .unwrap();
    // Break the patch area alignment.
    data.push(0xEE);
    let engine = DecompEngine::for_scheme(Scheme::OptPfd).unwrap();
    assert!(engine.decode(&data, &info).is_err());
}

#[test]
fn custom_scheme_via_config_text() {
    // A user-defined scheme: fixed-width fields with every payload XORed
    // with 0b1010 — exercising the "new decompression scheme by composing
    // primitives" claim of Section III-B.
    let config = "
Extractor[0].use = 1
x := XOR(Input, 0xA)
Output := x
Output.valid := 1
UseDelta = 0
";
    let engine = DecompEngine::from_config_text(config).unwrap();
    // Encode with BP, expect XORed output.
    let values = [0u32, 1, 2, 15];
    let mut data = Vec::new();
    let info = codec_for(Scheme::Bp).encode(&values, &mut data).unwrap();
    let out = engine.decode(&data, &info).unwrap();
    assert_eq!(out.values, vec![10, 11, 8, 5]);
}

#[test]
fn group_varint_extension_end_to_end() {
    // The sixth scheme added after the fact: encoder in boss-compress,
    // extractor flavor + config in boss-decomp, bit-equal decode.
    use boss_decomp::ExtractorKind;
    let values: Vec<u32> = (0..300u32)
        .map(|i| {
            let h = i.wrapping_mul(2654435761);
            h % [1u32 << 7, 1 << 14, 1 << 22, 1 << 31][(h % 4) as usize]
        })
        .collect();
    check_equivalence(Scheme::GroupVarint, &values);
    let engine = DecompEngine::for_scheme(Scheme::GroupVarint).unwrap();
    assert_eq!(engine.config().extractor.kind, ExtractorKind::GroupVarint);
    // And stage 4 works for it like any other scheme.
    let codec = codec_for(Scheme::GroupVarint);
    let gaps = [5u32, 0, 3];
    let mut data = Vec::new();
    let info = codec.encode(&gaps, &mut data).unwrap();
    let out = engine.decode_docids(&data, &info, 100).unwrap();
    assert_eq!(out.values, vec![105, 105, 108]);
}

/// Register resets via the VB flush signal over a long stream: the
/// registers carry state across every unit of the block.
#[test]
fn vb_register_resets_match_over_long_streams() {
    let values: Vec<u32> = (0..4096u32)
        .map(|i| i.wrapping_mul(2654435761) >> (i % 27))
        .collect();
    let mut data = Vec::new();
    let info = codec_for(Scheme::Vb).encode(&values, &mut data).unwrap();
    let engine = DecompEngine::for_scheme(Scheme::Vb).unwrap();
    assert_eq!(engine.decode(&data, &info).unwrap().values, values);
}

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
                // Small literals make in-range shifts and narrow masks.
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

/// Deterministically builds a program from specs, valid by construction:
/// operands only ever reference `Input`, literals, registers, or wires
/// assigned earlier. Wires are rebound, ports shadowed, `Output.valid`
/// often left unassigned, and registers reset from wires or registers.
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
            // Rebind an earlier wire now and then.
            7 if !wires.is_empty() => wires[spec.picks[1] as usize % wires.len()].clone(),
            _ => {
                let w = format!("w{si}");
                wires.push(w.clone());
                w
            }
        };
        statements.push(Statement { dest, op, args });
    }
    if !has_output {
        // Keep most generated programs observable; no-output programs are
        // the engine's stall tests.
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

/// The stage-2 semantics as a by-name interpreter: a check of which
/// names are readable, then one cycle that looks every operand up in a
/// wire map and a register map. The resolved netlist is held to it.
mod oracle {
    use super::{Op, Operand, Program};
    use std::collections::HashMap;

    /// `Err` on a wrong operand count, a duplicate register, a read of a
    /// wire not yet assigned, or a reset signal never assigned.
    pub(super) fn validate(p: &Program) -> Result<(), String> {
        let mut defined: Vec<&str> = vec!["Input"];
        for r in &p.regs {
            if defined.contains(&r.name.as_str()) {
                return Err(format!("duplicate definition of {}", r.name));
            }
            defined.push(&r.name);
        }
        let reg_names: Vec<&str> = p.regs.iter().map(|r| r.name.as_str()).collect();
        let mut assigned: Vec<&str> = Vec::new();
        for st in &p.statements {
            if st.args.len() != st.op.arity() {
                return Err(format!("{:?} arity", st.op));
            }
            for a in &st.args {
                if let Operand::Name(n) = a {
                    let readable = n == "Input"
                        || reg_names.contains(&n.as_str())
                        || assigned.contains(&n.as_str());
                    if !readable {
                        return Err(format!("read of undefined wire {n}"));
                    }
                }
            }
            if !reg_names.contains(&st.dest.as_str()) {
                assigned.push(&st.dest);
            }
        }
        for r in &p.regs {
            let n = r.reset_signal.as_str();
            if !n.is_empty() && !assigned.contains(&n) && !reg_names.contains(&n) {
                return Err(format!("reset signal {n} is never assigned"));
            }
        }
        Ok(())
    }

    /// Every register at its init value.
    pub(super) fn fresh_state(p: &Program) -> HashMap<String, u32> {
        p.regs.iter().map(|r| (r.name.clone(), r.init)).collect()
    }

    /// One cycle: `Input` first, then this cycle's wires, then the
    /// registers' start-of-cycle values; register writes commit at the
    /// end, then resets apply in declaration order.
    pub(super) fn step(p: &Program, input: u32, regs: &mut HashMap<String, u32>) -> Option<u32> {
        let mut wires: HashMap<&str, u32> = HashMap::new();
        let mut reg_next: Vec<(&str, u32)> = Vec::new();
        let mut output = None;
        let mut valid = None;
        for st in &p.statements {
            let vals: Vec<u32> = st
                .args
                .iter()
                .map(|a| match a {
                    Operand::Literal(v) => *v,
                    Operand::Name(n) if n == "Input" => input,
                    Operand::Name(n) => wires.get(n.as_str()).copied().unwrap_or_else(|| regs[n]),
                })
                .collect();
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
                d if regs.contains_key(d) => reg_next.push((d, v)),
                d => {
                    wires.insert(d, v);
                }
            }
        }
        for (r, v) in reg_next {
            regs.insert(r.to_owned(), v);
        }
        for r in &p.regs {
            let n = r.reset_signal.as_str();
            if !n.is_empty() {
                let sig = wires.get(n).or_else(|| regs.get(n)).copied().unwrap_or(0);
                if sig != 0 {
                    regs.insert(r.name.clone(), r.init);
                }
            }
        }
        if valid.unwrap_or(1) != 0 {
            output
        } else {
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated program compiles, and on any unit stream each
    /// cycle's output is the by-name interpreter's. `step` cannot fail,
    /// so "a compiled program never faults" needs no test of its own.
    ///
    /// The resolved netlist also copies a reset value into the register's
    /// pending slot. Leaving that copy out is an equivalent mutant: every
    /// statement runs every cycle, so a register that is written at all
    /// is rewritten before the next clock edge, and one that is never
    /// written keeps its init value in both places.
    #[test]
    fn compiled_programs_match_the_interpreter(
        n_regs in 0usize..3,
        inits in prop::collection::vec(any::<u32>(), 3),
        resets in prop::collection::vec(any::<u16>(), 3),
        specs in prop::collection::vec(arb_stmt_spec(), 1..14),
        inputs in prop::collection::vec(any::<u32>(), 1..128),
    ) {
        let program = build_program(n_regs, inits, resets, specs);
        oracle::validate(&program).expect("generated programs are valid by construction");
        let compiled = CompiledProgram::compile(&program).expect("a valid program compiles");
        let mut state = compiled.state();
        let mut regs = oracle::fresh_state(&program);
        for (i, &x) in inputs.iter().enumerate() {
            let want = oracle::step(&program, x, &mut regs);
            prop_assert_eq!(compiled.step(x, &mut state), want, "cycle {} of {:?}", i, program);
        }
    }
}
