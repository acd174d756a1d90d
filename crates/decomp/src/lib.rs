//! Programmable decompression module model (Sections IV-C/IV-D of the
//! BOSS paper).
//!
//! BOSS decompresses posting blocks with a *programmable* four-stage
//! datapath instead of hard-wiring one scheme:
//!
//! 1. **Extract** — payload units are cut out of the serialized bitstream
//!    (fixed-width fields, byte groups with continuation headers, or
//!    selector-described words). Fixed datapath, configurable parameters.
//! 2. **Manipulate** — a *programmable* network of primitive units (SHR,
//!    SHL, AND, OR, ADD, ... plus registers) wired up by a structural
//!    config file, exactly like the paper's Figure 8 example for
//!    VariableByte.
//! 3. **Exceptions** — OptPFD-style patching of values that did not fit
//!    the packed width.
//! 4. **Delta** — optional prefix-sum to turn d-gaps back into docIDs.
//!
//! The [`DecompEngine`] executes such a configuration. The shipped
//! configurations in [`schemes`] decode all five schemes of
//! `boss-compress` *bit-identically* (equivalence is enforced by tests),
//! which is the property that lets BOSS pick the best scheme per posting
//! list without extra hardware.
//!
//! # Example
//!
//! ```
//! use boss_compress::{codec_for, Scheme, Codec};
//! use boss_decomp::DecompEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gaps = [5u32, 0, 130, 7];
//! let mut data = Vec::new();
//! let info = codec_for(Scheme::Vb).encode(&gaps, &mut data)?;
//!
//! let engine = DecompEngine::for_scheme(Scheme::Vb)?;
//! let out = engine.decode(&data, &info)?;
//! assert_eq!(out.values, gaps);
//! # Ok(())
//! # }
//! ```

// Every decode path here consumes untrusted (possibly corrupt) bytes and
// user-supplied configuration text; both must surface as typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod compile;
mod config;
mod engine;
mod extract;
mod program;
pub mod schemes;

pub use compile::{CompiledProgram, State};
pub use config::{DeltaConfig, EngineConfig, ExceptionConfig, ExtractorConfig, ParseError};
pub use engine::{DecodeCost, Decoded, DecompEngine, EngineError, PIPELINE_FILL_CYCLES};
pub use extract::ExtractorKind;
pub use program::{ExecError, Op, Operand, Program, RegDecl, Statement};
