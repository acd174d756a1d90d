//! The decompression engine: runs a four-stage configuration block by
//! block, clocking the resolved stage-2 netlist once per extracted unit.

use crate::compile::CompiledProgram;
use crate::config::EngineConfig;
use crate::extract::{Extractor, ExtractorKind};
use crate::program::ExecError;
use crate::schemes;
use boss_compress::{BlockInfo, Scheme};

/// Depth of the hardware pipeline; added once per decoded stream to the
/// cycle count.
pub const PIPELINE_FILL_CYCLES: u64 = 4;

/// Bytes of one stage-3 exception patch: a `u16` index and the `u32` high
/// bits.
const PATCH_BYTES: usize = 6;

/// What a configuration's datapath charges to decode one stream, as a
/// function of the stream's size alone: one cycle per extraction unit —
/// a byte under [`ExtractorKind::ByteHeader`], an emitted field under
/// every other extractor — plus one per exception patch when stage 3 is
/// enabled. [`DecodeCost::units`] plus [`PIPELINE_FILL_CYCLES`] is the
/// cycle count [`DecompEngine::decode_into`] returns for every valid
/// block of the stock configurations (a property test holds the two
/// together), so a timing model can price a block from its metadata
/// without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCost {
    unit_is_byte: bool,
    patches: bool,
}

impl DecodeCost {
    /// Cycles, before pipeline fill, to decode a stream of `stream_bytes`
    /// encoded bytes described by `info`.
    pub fn units(self, stream_bytes: u64, info: &BlockInfo) -> u64 {
        let patch_bytes = if self.patches {
            stream_bytes.saturating_sub(u64::from(info.exception_offset))
        } else {
            0
        };
        let units = if self.unit_is_byte {
            stream_bytes - patch_bytes
        } else {
            u64::from(info.count)
        };
        units + patch_bytes / PATCH_BYTES as u64
    }
}

impl EngineConfig {
    /// The cost descriptor this configuration's datapath implies.
    pub fn decode_cost(&self) -> DecodeCost {
        DecodeCost {
            unit_is_byte: self.extractor.kind == ExtractorKind::ByteHeader,
            patches: self.exceptions.enabled,
        }
    }
}

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// Malformed or truncated encoded data.
    Codec(boss_compress::Error),
    /// The stage-2 program did not compile.
    Exec(ExecError),
    /// The program consumed far more units than any valid encoding could
    /// need without producing the requested values (a stall / livelock
    /// guard for misprogrammed datapaths).
    Stall {
        /// Values produced before the guard tripped.
        produced: usize,
        /// Values requested.
        requested: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Codec(e) => write!(f, "codec error: {e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::Stall {
                produced,
                requested,
            } => write!(
                f,
                "decompression stalled after producing {produced} of {requested} values"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Codec(e) => Some(e),
            EngineError::Exec(e) => Some(e),
            EngineError::Stall { .. } => None,
        }
    }
}

impl From<boss_compress::Error> for EngineError {
    fn from(e: boss_compress::Error) -> Self {
        EngineError::Codec(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// Output of one block decode: the values plus the cycle cost the timing
/// model charges for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Decoded values (d-gaps, or docIDs after stage 4).
    pub values: Vec<u32>,
    /// Engine cycles consumed (one per extraction unit, plus pipeline
    /// fill, plus one per exception patch).
    pub cycles: u64,
}

/// A configured decompression module: its configuration and the
/// stage-2 program resolved from it when the engine was built.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompEngine {
    config: EngineConfig,
    program: CompiledProgram,
}

impl DecompEngine {
    /// Wraps a parsed configuration, compiling its stage-2 program.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] if the program does not compile.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        let program = CompiledProgram::compile(&config.program)?;
        Ok(DecompEngine { config, program })
    }

    /// Parses a configuration file and wraps it.
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`](crate::ParseError) of a malformed
    /// configuration, a stage-2 program that does not compile included.
    pub fn from_config_text(text: &str) -> Result<Self, crate::ParseError> {
        let config = EngineConfig::parse(text)?;
        Self::new(config).map_err(|e| crate::ParseError {
            line: 0,
            reason: e.to_string(),
        })
    }

    /// The engine programmed for one of the five stock schemes, using the
    /// shipped configuration files in [`schemes`].
    ///
    /// # Errors
    ///
    /// Returns a parse error only if the embedded configuration is broken
    /// (guarded by tests).
    pub fn for_scheme(scheme: Scheme) -> Result<Self, crate::ParseError> {
        Self::from_config_text(schemes::config_text(scheme))
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Decodes one block to its raw encoded values (gaps / tf-minus-one),
    /// without stage 4.
    ///
    /// # Errors
    ///
    /// Propagates codec truncation/corruption and the stall guard.
    pub fn decode(&self, data: &[u8], info: &BlockInfo) -> Result<Decoded, EngineError> {
        let mut values = Vec::new();
        let cycles = self.decode_into(data, info, &mut values)?;
        Ok(Decoded { values, cycles })
    }

    /// Decodes one block, appending its values to `out`, and returns the
    /// cycle cost. Identical semantics (values, errors, cycles) to
    /// [`DecompEngine::decode`] without allocating a fresh vector.
    ///
    /// Stages 1–3: the payload split, the extractor loop with its stall
    /// guard (stage 2 runs once per extracted unit), and the exception
    /// patch. On error, `out` may retain values produced before the fault.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DecompEngine::decode`].
    pub fn decode_into(
        &self,
        data: &[u8],
        info: &BlockInfo,
        out: &mut Vec<u32>,
    ) -> Result<u64, EngineError> {
        let config = &self.config;
        // Reject corrupt descriptors before sizing anything from them.
        let count = boss_compress::check_count(info)?;
        let exc_off = info.exception_offset as usize;
        // With exceptions enabled the packed area ends where the patch
        // area begins; otherwise the whole slice is payload.
        let payload: &[u8] = if config.exceptions.enabled {
            data.get(..exc_off).ok_or(boss_compress::Error::Truncated {
                have: data.len(),
                need: exc_off,
            })?
        } else {
            data
        };

        let mut extractor = Extractor::new(config.extractor.kind, payload, *info)?;
        let mut state = self.program.state();
        let base = out.len();
        out.reserve(count);
        let target = base + count;
        // VB is the worst stock case at 5 units/value; 64 gives a generous
        // margin for custom programs while still catching livelock.
        let unit_limit = (count as u64 + 1) * 64;
        while out.len() < target {
            if extractor.units() >= unit_limit {
                return Err(EngineError::Stall {
                    produced: out.len() - base,
                    requested: count,
                });
            }
            let unit = extractor.next_unit()?;
            if let Some(v) = self.program.step(unit, &mut state) {
                out.push(v);
            }
        }
        let mut cycles = extractor.units() + PIPELINE_FILL_CYCLES;

        if config.exceptions.enabled {
            let patch = data.get(exc_off..).ok_or(boss_compress::Error::Truncated {
                have: data.len(),
                need: exc_off,
            })?;
            if patch.len() % PATCH_BYTES != 0 {
                return Err(boss_compress::Error::Corrupt {
                    reason: "exception area misaligned",
                }
                .into());
            }
            let b = u32::from(info.bit_width);
            for chunk in patch.chunks_exact(PATCH_BYTES) {
                let idx = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
                let high = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
                if idx >= count {
                    return Err(boss_compress::Error::Corrupt {
                        reason: "exception index out of range",
                    }
                    .into());
                }
                if b < 32 {
                    out[base + idx] |= high << b;
                }
                cycles += 1;
            }
        }

        Ok(cycles)
    }

    /// Decodes one block and applies stage 4: values become docIDs by
    /// prefix-summing from `base` (0 for the first block of a list, the
    /// previous block's last docID otherwise).
    ///
    /// If the configuration has `UseDelta = 0`, `base` is ignored and the
    /// values are returned as-is.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DecompEngine::decode`].
    pub fn decode_docids(
        &self,
        data: &[u8],
        info: &BlockInfo,
        base: u32,
    ) -> Result<Decoded, EngineError> {
        let mut decoded = self.decode(data, info)?;
        if self.config.delta.use_delta {
            let mut prev = base;
            for v in &mut decoded.values {
                prev = prev.wrapping_add(*v);
                *v = prev;
            }
        }
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::program::Program;
    use crate::{DeltaConfig, ExceptionConfig, ExtractorConfig};
    use boss_compress::codec_for;

    fn bp_engine(delta: bool) -> DecompEngine {
        DecompEngine::new(EngineConfig {
            extractor: ExtractorConfig {
                kind: ExtractorKind::FixedWidth,
            },
            program: Program::identity(),
            exceptions: ExceptionConfig { enabled: false },
            delta: DeltaConfig { use_delta: delta },
        })
        .unwrap()
    }

    #[test]
    fn bp_identity_decode() {
        let gaps = [7u32, 0, 3, 900];
        let mut data = Vec::new();
        let info = codec_for(Scheme::Bp).encode(&gaps, &mut data).unwrap();
        let out = bp_engine(false).decode(&data, &info).unwrap();
        assert_eq!(out.values, gaps);
        assert_eq!(out.cycles, 4 + PIPELINE_FILL_CYCLES);
    }

    #[test]
    fn stage4_prefix_sum() {
        let gaps = [5u32, 2, 1];
        let mut data = Vec::new();
        let info = codec_for(Scheme::Bp).encode(&gaps, &mut data).unwrap();
        let out = bp_engine(true).decode_docids(&data, &info, 100).unwrap();
        assert_eq!(out.values, vec![105, 107, 108]);
    }

    #[test]
    fn stall_guard_trips_on_never_valid_program() {
        // A program that never asserts Output.valid on width-0 data would
        // spin forever without the guard.
        let cfg = EngineConfig {
            extractor: ExtractorConfig {
                kind: ExtractorKind::FixedWidth,
            },
            program: {
                let mut p = Program::identity();
                // Overwrite validity with constant 0.
                p.statements[1].args = vec![crate::program::Operand::Literal(0)];
                p
            },
            exceptions: ExceptionConfig { enabled: false },
            delta: DeltaConfig::default(),
        };
        let engine = DecompEngine::new(cfg).unwrap();
        let info = BlockInfo {
            count: 4,
            bit_width: 0,
            exception_offset: 0,
        };
        let err = engine.decode(&[], &info).unwrap_err();
        assert!(matches!(err, EngineError::Stall { .. }));
    }

    #[test]
    fn new_rejects_a_program_that_does_not_validate() {
        let mut config = bp_engine(false).config().clone();
        config.program.statements[0].args = vec![crate::program::Operand::Name("ghost".into())];
        assert!(matches!(
            DecompEngine::new(config),
            Err(EngineError::Exec(_))
        ));
    }

    #[test]
    fn oversized_count_rejected_without_reserving() {
        let engine = bp_engine(false);
        let info = BlockInfo {
            count: u16::MAX,
            bit_width: 1,
            exception_offset: 0,
        };
        let err = engine.decode(&[0u8; 64], &info).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Codec(boss_compress::Error::Corrupt { .. })
        ));
    }

    #[test]
    fn field_width_over_32_is_corrupt_unless_the_block_is_empty() {
        // With and without an exception area: BP's engine and OptPFD's.
        let optpfd = DecompEngine::for_scheme(Scheme::OptPfd).unwrap();
        for engine in [bp_engine(false), optpfd] {
            let info = |count| BlockInfo {
                count,
                bit_width: 33,
                exception_offset: 0,
            };
            let err = engine.decode(&[0u8; 64], &info(4)).unwrap_err();
            let corrupt = boss_compress::Error::Corrupt {
                reason: "field bit width exceeds 32",
            };
            assert_eq!(err, EngineError::Codec(corrupt));
            let empty = engine.decode(&[], &info(0)).unwrap();
            assert_eq!(
                (empty.values.len(), empty.cycles),
                (0, PIPELINE_FILL_CYCLES)
            );
        }
    }

    #[test]
    fn error_display_chain() {
        let e = EngineError::Codec(boss_compress::Error::Corrupt { reason: "x" });
        assert!(e.to_string().contains("codec"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::Stall {
            produced: 1,
            requested: 9,
        };
        assert!(e.to_string().contains("stalled"));
    }
}
