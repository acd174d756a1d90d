//! The textual configuration language of the decompression module
//! (Figure 8 of the paper), and its parsed form.
//!
//! A configuration file has four sections, one per pipeline stage. Stage 1
//! and stages 3/4 are parameter assignments; stage 2 is a structural
//! netlist in `wire := OP(a, b)` form. Comments start with `//`. Example
//! (the paper's VariableByte configuration, adapted to the LSB-first VB
//! layout of `boss-compress`):
//!
//! ```text
//! // Stage 1
//! Extractor[0].use = 0
//! Extractor[1].use = 1
//! Extractor[2].use = 0
//! // Stage 2
//! RegInit( Acc, 0, flush )
//! RegInit( Shift, 0, flush )
//! flush := SHR(Input, 0x7)
//! pay := AND(Input, 0x7F)
//! shifted := SHL(pay, Shift)
//! sum := ADD(Acc, shifted)
//! Acc := sum
//! Shift := ADD(Shift, 0x7)
//! Output := sum
//! Output.valid := flush
//! // Stage 3
//! UseExceptions = 0
//! // Stage 4
//! UseDelta = 1
//! ```

use crate::program::{Op, Operand, Program, RegDecl, Statement};
use crate::{CompiledProgram, ExtractorKind};

/// Stage-1 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractorConfig {
    /// The active extractor flavor.
    pub kind: ExtractorKind,
}

/// Stage-3 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExceptionConfig {
    /// Whether the exception patch area is consulted.
    pub enabled: bool,
}

/// Stage-4 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaConfig {
    /// Whether decoded values are d-gaps to prefix-sum.
    pub use_delta: bool,
}

/// A full four-stage configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Stage 1.
    pub extractor: ExtractorConfig,
    /// Stage 2.
    pub program: Program,
    /// Stage 3.
    pub exceptions: ExceptionConfig,
    /// Stage 4.
    pub delta: DeltaConfig,
}

/// A configuration parse error with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending text (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "config parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

fn parse_int(s: &str, line: usize) -> Result<u32, ParseError> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| ParseError {
        line,
        reason: format!("invalid integer {s:?}"),
    })
}

fn parse_operand(s: &str, line: usize) -> Result<Operand, ParseError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(ParseError {
            line,
            reason: "empty operand".into(),
        });
    }
    if s.starts_with(|c: char| c.is_ascii_digit()) {
        Ok(Operand::Literal(parse_int(s, line)?))
    } else {
        Ok(Operand::Name(s.to_owned()))
    }
}

impl EngineConfig {
    /// Parses a configuration file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] with the offending line on malformed input,
    /// including a stage-2 netlist that does not compile
    /// ([`CompiledProgram::compile`]).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut extractor_use = [false; 4];
        let mut selector_word_bits = 32u32;
        let mut program = Program::default();
        let mut exceptions = ExceptionConfig::default();
        let mut delta = DeltaConfig::default();

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = match raw.find("//") {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }

            // RegInit( name, init, reset )
            if let Some(rest) = line.strip_prefix("RegInit") {
                let inner = rest
                    .trim()
                    .strip_prefix('(')
                    .and_then(|r| r.strip_suffix(')'))
                    .ok_or_else(|| ParseError {
                        line: line_no,
                        reason: "malformed RegInit".into(),
                    })?;
                let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
                if parts.len() != 3 {
                    return Err(ParseError {
                        line: line_no,
                        reason: "RegInit takes (name, init, reset)".into(),
                    });
                }
                program.regs.push(RegDecl {
                    name: parts[0].to_owned(),
                    init: parse_int(parts[1], line_no)?,
                    reset_signal: if parts[2] == "0" || parts[2].eq_ignore_ascii_case("none") {
                        String::new()
                    } else {
                        parts[2].to_owned()
                    },
                });
                continue;
            }

            // Netlist statement: dest := expr
            if let Some((dest, expr)) = line.split_once(":=") {
                let dest = dest.trim().to_owned();
                let expr = expr.trim();
                let stmt = if let Some(paren) = expr.find('(') {
                    let opname = expr[..paren].trim();
                    let op = Op::parse(opname).ok_or_else(|| ParseError {
                        line: line_no,
                        reason: format!("unknown primitive {opname:?}"),
                    })?;
                    let inner = expr[paren + 1..]
                        .strip_suffix(')')
                        .ok_or_else(|| ParseError {
                            line: line_no,
                            reason: "missing )".into(),
                        })?;
                    let args: Vec<Operand> = inner
                        .split(',')
                        .map(|a| parse_operand(a, line_no))
                        .collect::<Result<_, _>>()?;
                    Statement { dest, op, args }
                } else {
                    // Alias: dest := wire-or-literal
                    Statement {
                        dest,
                        op: Op::Id,
                        args: vec![parse_operand(expr, line_no)?],
                    }
                };
                program.statements.push(stmt);
                continue;
            }

            // Parameter assignment(s): possibly chained `A = B = 0`.
            if line.contains('=') {
                let parts: Vec<&str> = line.split('=').map(str::trim).collect();
                let value = parse_int(parts[parts.len() - 1], line_no)?;
                for key in &parts[..parts.len() - 1] {
                    match *key {
                        "UseDelta" => delta.use_delta = value != 0,
                        "UseExceptions" => exceptions.enabled = value != 0,
                        // The paper's Figure 8 disables exceptions by
                        // zeroing these two; treat them as that switch.
                        "ExceptionValue" | "ExceptionIndex" => exceptions.enabled = value != 0,
                        k if k.starts_with("Extractor[") => {
                            let idx: usize = k
                                .strip_prefix("Extractor[")
                                .and_then(|r| r.split(']').next())
                                .and_then(|n| n.parse().ok())
                                .ok_or_else(|| ParseError {
                                    line: line_no,
                                    reason: format!("bad extractor index in {k:?}"),
                                })?;
                            if idx > 3 {
                                return Err(ParseError {
                                    line: line_no,
                                    reason: format!("extractor index {idx} out of range"),
                                });
                            }
                            if k.ends_with(".use") {
                                extractor_use[idx] = value != 0;
                            } else if k.ends_with(".wordBits") {
                                selector_word_bits = value;
                            } else if k.ends_with(".headerLength") {
                                // Accepted for fidelity with Figure 8; the
                                // byte extractor's header is fixed at 1 bit.
                            } else {
                                return Err(ParseError {
                                    line: line_no,
                                    reason: format!("unknown extractor parameter {k:?}"),
                                });
                            }
                        }
                        other => {
                            return Err(ParseError {
                                line: line_no,
                                reason: format!("unknown parameter {other:?}"),
                            });
                        }
                    }
                }
                continue;
            }

            return Err(ParseError {
                line: line_no,
                reason: format!("unparseable line {line:?}"),
            });
        }

        let kind = match extractor_use {
            [true, false, false, false] => ExtractorKind::FixedWidth,
            [false, true, false, false] => ExtractorKind::ByteHeader,
            [false, false, true, false] => {
                if selector_word_bits == 64 {
                    ExtractorKind::Selector8b
                } else {
                    ExtractorKind::Selector16
                }
            }
            [false, false, false, true] => ExtractorKind::GroupVarint,
            _ => {
                return Err(ParseError {
                    line: 0,
                    reason: "exactly one extractor must have .use = 1".into(),
                })
            }
        };

        if program.statements.is_empty() {
            program = Program::identity();
        }
        CompiledProgram::compile(&program).map_err(|e| ParseError {
            line: 0,
            reason: e.reason,
        })?;

        Ok(EngineConfig {
            extractor: ExtractorConfig { kind },
            program,
            exceptions,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    const VB_CONFIG: &str = r"
// Stage 1
Extractor[0].use = 0
Extractor[1].use = 1
Extractor[2].use = 0
// Stage 2
RegInit( Acc, 0, flush )
RegInit( Shift, 0, flush )
flush := SHR(Input, 0x7)
pay := AND(Input, 0x7F)
shifted := SHL(pay, Shift)
sum := ADD(Acc, shifted)
Acc := sum
Shift := ADD(Shift, 0x7)
Output := sum
Output.valid := flush
// Stage 3
UseExceptions = 0
// Stage 4
UseDelta = 1
";

    #[test]
    fn parses_vb_config() {
        let cfg = EngineConfig::parse(VB_CONFIG).unwrap();
        assert_eq!(cfg.extractor.kind, ExtractorKind::ByteHeader);
        assert_eq!(cfg.program.regs.len(), 2);
        assert_eq!(cfg.program.statements.len(), 8);
        assert!(!cfg.exceptions.enabled);
        assert!(cfg.delta.use_delta);
    }

    #[test]
    fn chained_assignment_like_figure8() {
        let cfg = EngineConfig::parse(
            "Extractor[0].use = 1\nExtractor[1].use = 0\nExtractor[2].use = 0\nExceptionValue = ExceptionIndex = 0\nUseDelta = 1\n",
        )
        .unwrap();
        assert!(!cfg.exceptions.enabled);
        assert_eq!(cfg.extractor.kind, ExtractorKind::FixedWidth);
        // No stage-2 statements -> identity program.
        assert_eq!(cfg.program, crate::Program::identity());
    }

    #[test]
    fn selector_word_bits() {
        let cfg =
            EngineConfig::parse("Extractor[2].use = 1\nExtractor[2].wordBits = 64\n").unwrap();
        assert_eq!(cfg.extractor.kind, ExtractorKind::Selector8b);
        let cfg = EngineConfig::parse("Extractor[2].use = 1\n").unwrap();
        assert_eq!(cfg.extractor.kind, ExtractorKind::Selector16);
    }

    #[test]
    fn rejects_no_extractor() {
        let err = EngineConfig::parse("UseDelta = 1\n").unwrap_err();
        assert!(err.reason.contains("extractor"));
    }

    #[test]
    fn rejects_two_extractors() {
        let err = EngineConfig::parse("Extractor[0].use = 1\nExtractor[1].use = 1\n").unwrap_err();
        assert!(err.reason.contains("extractor"));
    }

    #[test]
    fn rejects_unknown_primitive() {
        let err = EngineConfig::parse("Extractor[0].use = 1\nx := FROB(Input, 1)\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("FROB"));
    }

    #[test]
    fn rejects_unknown_parameter() {
        let err = EngineConfig::parse("Extractor[0].use = 1\nBogus = 3\n").unwrap_err();
        assert!(err.reason.contains("Bogus"));
    }

    #[test]
    fn rejects_undefined_wire_via_validation() {
        let err =
            EngineConfig::parse("Extractor[0].use = 1\nOutput := ADD(ghost, 1)\n").unwrap_err();
        assert!(err.reason.contains("ghost"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let cfg = EngineConfig::parse("// hello\n\nExtractor[0].use = 1 // inline\n").unwrap();
        assert_eq!(cfg.extractor.kind, ExtractorKind::FixedWidth);
    }

    #[test]
    fn parse_error_display() {
        let err = EngineConfig::parse("Extractor[0].use = zebra\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
