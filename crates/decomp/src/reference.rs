//! The interpreter oracle: the original statement-walking execution of a
//! stage-2 program ([`Program::step_in`](crate::Program::step_in), one
//! wire-environment lookup per operand per unit), run through the same
//! stages 1, 3 and 4 as [`DecompEngine`](crate::DecompEngine). Tests and
//! the corruption harness compare the engine's compiled plan with it on
//! values, cycles and typed errors; no production path may call it, and
//! it knows nothing of the plan compiler it judges.

use crate::config::EngineConfig;
use crate::engine::{apply_delta, run_stages, Decoded, EngineError};
use boss_compress::BlockInfo;
use std::collections::HashMap;

/// Decodes one block under `config` to its raw encoded values, without
/// stage 4 — the oracle for [`DecompEngine::decode`](crate::DecompEngine::decode).
///
/// # Errors
///
/// Codec truncation/corruption, stage-2 program faults (the program is
/// not pre-validated here), and the stall guard.
pub fn decode(
    config: &EngineConfig,
    data: &[u8],
    info: &BlockInfo,
) -> Result<Decoded, EngineError> {
    let program = &config.program;
    let mut state = program.fresh_state();
    // The wire environment is hoisted out of the unit loop.
    let mut wires = HashMap::new();
    let mut values = Vec::new();
    let cycles = run_stages(config, data, info, &mut values, |unit| {
        program.step_in(unit, &mut state, &mut wires)
    })?;
    Ok(Decoded { values, cycles })
}

/// [`decode`] followed by stage 4 — the oracle for
/// [`DecompEngine::decode_docids`](crate::DecompEngine::decode_docids).
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_docids(
    config: &EngineConfig,
    data: &[u8],
    info: &BlockInfo,
    base: u32,
) -> Result<Decoded, EngineError> {
    let mut decoded = decode(config, data, info)?;
    apply_delta(config, base, &mut decoded.values);
    Ok(decoded)
}
