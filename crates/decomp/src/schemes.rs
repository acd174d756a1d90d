//! Shipped configuration files for the five stock schemes.
//!
//! Each configuration is a text file in the Figure-8 language, parsed at
//! engine construction — so the parser itself is on the hot path of every
//! test, exactly as a user-supplied scheme would be. Equivalence against
//! the software decoders of `boss-compress` is enforced by the tests in
//! `tests/equivalence.rs`.

use boss_compress::Scheme;

/// Bit-Packing: fixed-width extraction, identity manipulation.
const BP: &str = r"
// Stage 1: fixed-width extractor, width from block metadata
Extractor[0].use = 1
Extractor[1].use = 0
Extractor[2].use = 0
// Stage 2: passthrough
Output := Input
Output.valid := 1
// Stage 3
UseExceptions = 0
// Stage 4
UseDelta = 1
";

/// VariableByte: byte extraction; stage 2 reassembles 7-bit groups
/// (LSB-first, matching the `boss-compress` VB layout) and asserts
/// validity on the terminator bit.
const VB: &str = r"
// Stage 1: byte-header extractor
Extractor[0].use = 0
Extractor[1].use = 1
Extractor[2].use = 0
Extractor[1].headerLength = 1
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
ExceptionValue = ExceptionIndex = 0
// Stage 4
UseDelta = 1
";

/// OptPForDelta: fixed-width extraction of the packed area, identity
/// manipulation, exception patching enabled.
const OPTPFD: &str = r"
// Stage 1
Extractor[0].use = 1
Extractor[1].use = 0
Extractor[2].use = 0
// Stage 2: passthrough
Output := Input
Output.valid := 1
// Stage 3: patch exceptions from the block's patch area
UseExceptions = 1
// Stage 4
UseDelta = 1
";

/// Simple16: selector extraction over 32-bit words.
const S16: &str = r"
// Stage 1
Extractor[0].use = 0
Extractor[1].use = 0
Extractor[2].use = 1
Extractor[2].wordBits = 32
// Stage 2: passthrough
Output := Input
Output.valid := 1
// Stage 3
UseExceptions = 0
// Stage 4
UseDelta = 1
";

/// Simple8b: selector extraction over 64-bit words.
const S8B: &str = r"
// Stage 1
Extractor[0].use = 0
Extractor[1].use = 0
Extractor[2].use = 1
Extractor[2].wordBits = 64
// Stage 2: passthrough
Output := Input
Output.valid := 1
// Stage 3
UseExceptions = 0
// Stage 4
UseDelta = 1
";

/// Group-Varint (extension): a fourth extractor flavor demonstrates that
/// new schemes slot in without touching stages 2-4.
const GVB: &str = r"
// Stage 1
Extractor[0].use = 0
Extractor[1].use = 0
Extractor[2].use = 0
Extractor[3].use = 1
// Stage 2: passthrough
Output := Input
Output.valid := 1
// Stage 3
UseExceptions = 0
// Stage 4
UseDelta = 1
";

/// The configuration text for a stock scheme.
pub fn config_text(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Bp => BP,
        Scheme::Vb => VB,
        Scheme::OptPfd => OPTPFD,
        Scheme::S16 => S16,
        Scheme::S8b => S8B,
        Scheme::GroupVarint => GVB,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use crate::DecompEngine;
    use boss_compress::ALL_SCHEMES;

    #[test]
    fn all_stock_configs_parse() {
        for s in ALL_SCHEMES {
            let engine = DecompEngine::for_scheme(s).unwrap();
            assert!(engine.config().delta.use_delta, "{s}");
        }
    }

    #[test]
    fn only_pfd_uses_exceptions() {
        for s in ALL_SCHEMES {
            let engine = DecompEngine::for_scheme(s).unwrap();
            assert_eq!(
                engine.config().exceptions.enabled,
                s == boss_compress::Scheme::OptPfd,
                "{s}"
            );
        }
    }
}
