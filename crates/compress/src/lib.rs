//! Integer compression codecs for inverted indexes.
//!
//! Implements the five schemes evaluated by the BOSS paper (Section VI and
//! Figure 3) plus the per-list *hybrid* selection BOSS uses for its index:
//!
//! * Bit-Packing ([`Scheme::Bp`]) — fixed bit width per block,
//! * Variable-Byte ([`Scheme::Vb`]) — 7-bit payload groups with
//!   continuation bits,
//! * OptPForDelta ([`Scheme::OptPfd`]) — packed low bits plus patched
//!   exceptions, with the bit width chosen to minimize the encoded size,
//! * Simple16 ([`Scheme::S16`]) — 28 payload bits per 32-bit word, 16
//!   layouts,
//! * Simple8b ([`Scheme::S8b`]) — 60 payload bits per 64-bit word, 16
//!   layouts.
//!
//! All codecs implement the [`Codec`] trait and are reached through
//! [`codec_for`]: they encode a slice of `u32`
//! *gap* values (already delta-encoded by the index layer) into bytes and
//! decode them back exactly. Values of zero are legal everywhere (the index
//! layer produces 0-gaps for adjacent docIDs and `tf - 1` streams).
//!
//! A caller that sizes a block under several schemes before encoding it
//! under one can keep what the sizing found: a [`BitProfile`] sizes BP,
//! VB and OptPFD and picks OptPFD's width (packed by [`optpfd_pack`]), and
//! an [`S16Plan`] keeps Simple16's selectors for its `pack`. OptPFD's and
//! Simple16's `encoded_len` and `encode` run these same routines; BP's
//! and VB's lengths are the profile's by the same formulas.
//!
//! # Example
//!
//! ```
//! use boss_compress::{Codec, Scheme, codec_for};
//!
//! # fn main() -> Result<(), boss_compress::Error> {
//! let gaps = [3u32, 0, 7, 120, 0, 2];
//! let codec = codec_for(Scheme::OptPfd);
//! let mut buf = Vec::new();
//! let info = codec.encode(&gaps, &mut buf)?;
//! let mut out = Vec::new();
//! codec.decode(&buf, &info, &mut out)?;
//! assert_eq!(out, gaps);
//! # Ok(())
//! # }
//! ```

// Decode paths consume untrusted (possibly corrupt) bytes; corruption
// must surface as typed errors, so panicking constructs need a
// per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod bitio;
mod bp;
mod error;
mod gvb;
mod hybrid;
mod pfd;
mod profile;
pub mod reference;
mod s16;
mod s8b;
pub mod unpack;
mod vb;

pub use bitio::{BitReader, BitWriter};
pub use error::Error;
pub use hybrid::{best_scheme, compression_ratio, encoded_size, HybridChoice};
pub use pfd::optpfd_pack;
pub use profile::BitProfile;
pub use s16::{S16Plan, S16_LAYOUTS};
pub use s8b::S8B_PACKED;

use bp::BitPacking;
use gvb::GroupVarint;
use pfd::OptPfd;
use s16::Simple16;
use s8b::Simple8b;
use vb::VariableByte;

/// Identifier of a compression scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Bit-Packing.
    Bp,
    /// Variable-Byte.
    Vb,
    /// OptPForDelta.
    OptPfd,
    /// Simple16.
    S16,
    /// Simple8b.
    S8b,
    /// Group-Varint (extension; not part of the paper's evaluated set).
    GroupVarint,
}

/// All schemes, in the order the paper's Figure 3 lists them.
pub const ALL_SCHEMES: [Scheme; 5] = [
    Scheme::Bp,
    Scheme::Vb,
    Scheme::OptPfd,
    Scheme::S16,
    Scheme::S8b,
];

impl Scheme {
    /// The short name used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Bp => "BP",
            Scheme::Vb => "VB",
            Scheme::OptPfd => "OptPFD",
            Scheme::S16 => "S16",
            Scheme::S8b => "S8b",
            Scheme::GroupVarint => "GVB",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Decode-relevant facts about one encoded block, mirroring the
/// per-block metadata fields BOSS keeps (Section IV-A): element count,
/// encoded bit width, and the offset of the exception area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockInfo {
    /// Number of encoded values (the paper allots 7 bits; blocks hold ≤128).
    pub count: u16,
    /// Encoded bit width (5 bits in the paper's metadata); meaning is
    /// scheme-specific and 0 where not applicable.
    pub bit_width: u8,
    /// Byte offset of the exception area within the block (12 bits in the
    /// paper's metadata); 0 when the scheme has no exceptions.
    pub exception_offset: u16,
}

/// A block compression scheme.
///
/// Implementations are stateless; the canonical instances are available via
/// [`codec_for`].
pub trait Codec: std::fmt::Debug + Send + Sync {
    /// Which scheme this codec implements.
    fn scheme(&self) -> Scheme;

    /// Encode `values` into `out` (appending) and return the block facts
    /// needed to decode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyValues`] if `values.len()` exceeds the 4096
    /// values a single block descriptor can address, or
    /// [`Error::ValueTooLarge`] for codec-specific range limits.
    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error>;

    /// The number of bytes [`Codec::encode`] would append for `values`,
    /// without producing them — what a per-list scheme selection compares.
    ///
    /// The default encodes into a scratch buffer; the five evaluated
    /// schemes size natively (a fold, a table, or their layout search
    /// with a word counter).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Codec::encode`] on the same input.
    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        let mut scratch = Vec::new();
        self.encode(values, &mut scratch)?;
        Ok(scratch.len())
    }

    /// Decode exactly `info.count` values from `data` into `out` (appending).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] or [`Error::Corrupt`] when `data` does
    /// not contain a valid encoding for `info`.
    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error>;

    /// Decode `info.count` d-gap values and append their running
    /// (wrapping) prefix sum seeded with `base` — i.e. absolute docIDs.
    /// `Ok(true)` when the sum passed 2³², so the docIDs appended wrapped:
    /// no valid block does that, and it can still end on the right docID.
    ///
    /// The default decodes then runs a second pass; BP fuses the prefix
    /// sum into its unpack loop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::decode`].
    fn decode_d1(
        &self,
        data: &[u8],
        info: &BlockInfo,
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<bool, Error> {
        let start = out.len();
        self.decode(data, info, out)?;
        Ok(unpack::prefix_sum_d1(base, &mut out[start..]))
    }
}

/// Largest number of values a single block may hold.
pub const MAX_BLOCK_VALUES: usize = 4096;

pub(crate) fn check_len(values: &[u32]) -> Result<u16, Error> {
    if values.len() > MAX_BLOCK_VALUES {
        return Err(Error::TooManyValues {
            got: values.len(),
            max: MAX_BLOCK_VALUES,
        });
    }
    Ok(values.len() as u16)
}

/// Decode-side guard on a block descriptor's claimed value count.
///
/// `BlockInfo::count` is a `u16` read back from (possibly corrupt) index
/// metadata, so it can claim up to 65535 values while a block may hold at
/// most [`MAX_BLOCK_VALUES`]. Every decode path validates the count with
/// this *before* reserving output space, so corrupt metadata surfaces as
/// [`Error::Corrupt`] instead of an oversized allocation.
///
/// # Errors
///
/// [`Error::Corrupt`] when `info.count` exceeds [`MAX_BLOCK_VALUES`].
pub fn check_count(info: &BlockInfo) -> Result<usize, Error> {
    let count = info.count as usize;
    if count > MAX_BLOCK_VALUES {
        return Err(Error::Corrupt {
            reason: "block descriptor claims more values than a block can hold",
        });
    }
    Ok(count)
}

/// Returns the canonical codec instance for `scheme`.
pub fn codec_for(scheme: Scheme) -> &'static dyn Codec {
    match scheme {
        Scheme::Bp => &BitPacking,
        Scheme::Vb => &VariableByte,
        Scheme::OptPfd => &OptPfd,
        Scheme::S16 => &Simple16,
        Scheme::S8b => &Simple8b,
        Scheme::GroupVarint => &GroupVarint,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Bp.label(), "BP");
        assert_eq!(Scheme::OptPfd.to_string(), "OptPFD");
        assert_eq!(ALL_SCHEMES.len(), 5);
    }

    #[test]
    fn codec_for_returns_matching_scheme() {
        for s in ALL_SCHEMES {
            assert_eq!(codec_for(s).scheme(), s);
        }
    }

    #[test]
    fn roundtrip_all_schemes_smoke() {
        let values: Vec<u32> = (0..128u32).map(|i| (i * 37) % 509).collect();
        for s in ALL_SCHEMES {
            let codec = codec_for(s);
            let mut buf = Vec::new();
            let info = codec.encode(&values, &mut buf).unwrap();
            assert_eq!(info.count as usize, values.len());
            let mut out = Vec::new();
            codec.decode(&buf, &info, &mut out).unwrap();
            assert_eq!(out, values, "scheme {s}");
        }
    }

    #[test]
    fn empty_block_roundtrips() {
        for s in ALL_SCHEMES {
            let codec = codec_for(s);
            let mut buf = Vec::new();
            let info = codec.encode(&[], &mut buf).unwrap();
            assert_eq!(info.count, 0);
            let mut out = Vec::new();
            codec.decode(&buf, &info, &mut out).unwrap();
            assert!(out.is_empty(), "scheme {s}");
        }
    }

    #[test]
    fn too_many_values_rejected() {
        let values = vec![1u32; MAX_BLOCK_VALUES + 1];
        for s in ALL_SCHEMES {
            let err = codec_for(s).encode(&values, &mut Vec::new()).unwrap_err();
            assert!(matches!(err, Error::TooManyValues { .. }), "scheme {s}");
        }
    }

    #[test]
    fn oversized_count_rejected_by_every_decoder_without_reserving() {
        // A corrupt descriptor claiming 65535 values must surface as
        // Error::Corrupt from every decode path, fast and reference, and
        // must never grow the output vector toward the bogus count.
        let info = BlockInfo {
            count: u16::MAX,
            bit_width: 1,
            exception_offset: 0,
        };
        let data = vec![0u8; 64];
        for s in ALL_SCHEMES {
            let codec = codec_for(s);
            let mut out = Vec::new();
            assert!(
                matches!(
                    codec.decode(&data, &info, &mut out),
                    Err(Error::Corrupt { .. })
                ),
                "scheme {s} fast"
            );
            assert_eq!(out.capacity(), 0, "scheme {s} reserved for corrupt count");
            assert!(
                matches!(
                    reference::decode(s, &data, &info, &mut Vec::new()),
                    Err(Error::Corrupt { .. })
                ),
                "scheme {s} reference"
            );
            assert!(
                matches!(
                    codec.decode_d1(&data, &info, 0, &mut Vec::new()),
                    Err(Error::Corrupt { .. })
                ),
                "scheme {s} d1"
            );
        }
    }

    #[test]
    fn max_values_roundtrip() {
        let values: Vec<u32> = (0..MAX_BLOCK_VALUES as u32).map(|i| i % 97).collect();
        for s in ALL_SCHEMES {
            let codec = codec_for(s);
            let mut buf = Vec::new();
            let info = codec.encode(&values, &mut buf).unwrap();
            let mut out = Vec::new();
            codec.decode(&buf, &info, &mut out).unwrap();
            assert_eq!(out, values, "scheme {s}");
        }
    }
}
