//! Stage 1: payload extraction from the serialized bitstream.
//!
//! Three extractor flavors cover the five schemes:
//! * fixed-width fields (BP, OptPFD's packed area),
//! * byte groups with continuation headers (VB),
//! * selector-described words (S16: 32-bit, S8b: 64-bit).
//!
//! Hardware-wise this stage is a fixed datapath with configurable
//! parameters (Section IV-C); here each flavor is a small state machine
//! that yields one payload unit per cycle.

use boss_compress::{BitReader, BlockInfo, S16_LAYOUTS, S8B_PACKED};

use crate::engine::EngineError;

/// Which extractor flavor is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractorKind {
    /// Fixed-width fields; the width comes from the block metadata.
    FixedWidth,
    /// One byte per cycle (continuation handling happens in stage 2).
    ByteHeader,
    /// Selector-based 32-bit words (Simple16 layout table).
    Selector16,
    /// Selector-based 64-bit words (Simple8b layout table).
    Selector8b,
    /// Group-Varint: a 2-bit-per-value control byte describes the byte
    /// lengths of the next four values (extension scheme).
    GroupVarint,
}

/// A running extractor over one block's data.
#[derive(Debug)]
pub(crate) struct Extractor<'a> {
    kind: ExtractorKind,
    data: &'a [u8],
    pos: usize,
    /// Bit cursor over `data`; only `FixedWidth` reads through it.
    bits: BitReader<'a>,
    /// `FixedWidth`'s field width, checked against 32 once in `new`.
    width: u32,
    /// Pending field values decoded from the current selector word.
    pending: Vec<u32>,
    pending_at: usize,
    /// Units produced so far (for cycle accounting).
    units: u64,
}

impl<'a> Extractor<'a> {
    /// An extractor of `kind` over one block's payload.
    ///
    /// # Errors
    ///
    /// `FixedWidth` over a block that holds values but whose (possibly
    /// corrupt) metadata claims fields wider than 32 bits: the bit reader
    /// treats such widths as a programmer error, so they are a typed
    /// error here. A block of no values reads no field.
    pub(crate) fn new(
        kind: ExtractorKind,
        data: &'a [u8],
        info: BlockInfo,
    ) -> Result<Self, EngineError> {
        let width = u32::from(info.bit_width);
        if kind == ExtractorKind::FixedWidth && width > 32 && info.count > 0 {
            return Err(EngineError::Codec(boss_compress::Error::Corrupt {
                reason: "field bit width exceeds 32",
            }));
        }
        Ok(Extractor {
            kind,
            data,
            pos: 0,
            bits: BitReader::new(data),
            width,
            pending: Vec::new(),
            pending_at: 0,
            units: 0,
        })
    }

    /// Units consumed so far; one unit is one extraction cycle.
    pub(crate) fn units(&self) -> u64 {
        self.units
    }

    /// Pulls the next payload unit.
    ///
    /// For `FixedWidth` a unit is one packed field; for `ByteHeader` one
    /// raw byte; for selectors one decoded field (the word fetch is
    /// amortized — hardware emits one field per cycle from a word buffer).
    pub(crate) fn next_unit(&mut self) -> Result<u32, EngineError> {
        self.units += 1;
        match self.kind {
            ExtractorKind::FixedWidth => self.bits.read(self.width).map_err(EngineError::from),
            ExtractorKind::ByteHeader => {
                let Some(&b) = self.data.get(self.pos) else {
                    return Err(EngineError::Codec(boss_compress::Error::Truncated {
                        have: self.data.len(),
                        need: self.pos + 1,
                    }));
                };
                self.pos += 1;
                Ok(u32::from(b))
            }
            ExtractorKind::Selector16 | ExtractorKind::Selector8b | ExtractorKind::GroupVarint => {
                if self.pending_at == self.pending.len() {
                    match self.kind {
                        ExtractorKind::Selector16 => self.refill_s16()?,
                        ExtractorKind::Selector8b => self.refill_s8b()?,
                        _ => self.refill_gvb()?,
                    }
                }
                let v = self.pending[self.pending_at];
                self.pending_at += 1;
                Ok(v)
            }
        }
    }

    fn refill_gvb(&mut self) -> Result<(), EngineError> {
        let Some(&ctrl) = self.data.get(self.pos) else {
            return Err(EngineError::Codec(boss_compress::Error::Truncated {
                have: self.data.len(),
                need: self.pos + 1,
            }));
        };
        self.pos += 1;
        self.pending.clear();
        self.pending_at = 0;
        for i in 0..4usize {
            let n = (((ctrl >> (i * 2)) & 0b11) + 1) as usize;
            let Some(bytes) = self.data.get(self.pos..self.pos + n) else {
                // A partial tail group is legal: the engine stops pulling
                // once it has `count` values, so only error if nothing was
                // produced from this control byte.
                if self.pending.is_empty() {
                    return Err(EngineError::Codec(boss_compress::Error::Truncated {
                        have: self.data.len(),
                        need: self.pos + n,
                    }));
                }
                return Ok(());
            };
            self.pos += n;
            let mut buf = [0u8; 4];
            buf[..n].copy_from_slice(bytes);
            self.pending.push(u32::from_le_bytes(buf));
        }
        Ok(())
    }

    fn refill_s16(&mut self) -> Result<(), EngineError> {
        let Some(&[b0, b1, b2, b3]) = self.data.get(self.pos..self.pos + 4) else {
            return Err(EngineError::Codec(boss_compress::Error::Truncated {
                have: self.data.len(),
                need: self.pos + 4,
            }));
        };
        self.pos += 4;
        let word = u32::from_le_bytes([b0, b1, b2, b3]);
        let sel = (word >> 28) as usize;
        self.pending.clear();
        self.pending_at = 0;
        let mut shift = 0u32;
        for &(n, bits) in S16_LAYOUTS[sel] {
            let mask = (1u32 << bits) - 1;
            for _ in 0..n {
                self.pending.push((word >> shift) & mask);
                shift += bits;
            }
        }
        Ok(())
    }

    fn refill_s8b(&mut self) -> Result<(), EngineError> {
        let Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) = self.data.get(self.pos..self.pos + 8) else {
            return Err(EngineError::Codec(boss_compress::Error::Truncated {
                have: self.data.len(),
                need: self.pos + 8,
            }));
        };
        self.pos += 8;
        let word = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        let sel = (word >> 60) as usize;
        self.pending.clear();
        self.pending_at = 0;
        match sel {
            0 => self.pending.extend(std::iter::repeat_n(0u32, 240)),
            1 => self.pending.extend(std::iter::repeat_n(0u32, 120)),
            _ => {
                let (n, bits) = S8B_PACKED[sel - 2];
                let mask = (1u64 << bits) - 1;
                let mut shift = 0u32;
                for _ in 0..n {
                    self.pending.push(((word >> shift) & mask) as u32);
                    shift += bits;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use boss_compress::{codec_for, Scheme};

    #[test]
    fn fixed_width_yields_packed_fields() {
        let values = [5u32, 1, 7, 0];
        let mut data = Vec::new();
        let info = codec_for(Scheme::Bp).encode(&values, &mut data).unwrap();
        let mut ex = Extractor::new(ExtractorKind::FixedWidth, &data, info).unwrap();
        for &v in &values {
            assert_eq!(ex.next_unit().unwrap(), v);
        }
        assert_eq!(ex.units(), 4);
    }

    #[test]
    fn byte_header_yields_raw_bytes() {
        let data = [0x83u8, 0x05, 0x91];
        let info = BlockInfo {
            count: 2,
            bit_width: 0,
            exception_offset: 0,
        };
        let mut ex = Extractor::new(ExtractorKind::ByteHeader, &data, info).unwrap();
        assert_eq!(ex.next_unit().unwrap(), 0x83);
        assert_eq!(ex.next_unit().unwrap(), 0x05);
        assert_eq!(ex.next_unit().unwrap(), 0x91);
        assert!(ex.next_unit().is_err());
    }

    #[test]
    fn selector16_matches_codec() {
        let values = [1u32, 3, 0, 200, 7, 7, 7, 100000];
        let mut data = Vec::new();
        let info = codec_for(Scheme::S16).encode(&values, &mut data).unwrap();
        let mut ex = Extractor::new(ExtractorKind::Selector16, &data, info).unwrap();
        for &v in &values {
            assert_eq!(ex.next_unit().unwrap(), v);
        }
    }

    #[test]
    fn selector8b_matches_codec_including_zero_runs() {
        let mut values = vec![0u32; 240];
        values.extend([9, 8, u32::MAX]);
        let mut data = Vec::new();
        let info = codec_for(Scheme::S8b).encode(&values, &mut data).unwrap();
        let mut ex = Extractor::new(ExtractorKind::Selector8b, &data, info).unwrap();
        for &v in &values {
            assert_eq!(ex.next_unit().unwrap(), v);
        }
    }

    #[test]
    fn truncated_selector_word() {
        let data = [0u8; 3];
        let info = BlockInfo {
            count: 5,
            bit_width: 0,
            exception_offset: 0,
        };
        let mut ex = Extractor::new(ExtractorKind::Selector16, &data, info).unwrap();
        assert!(ex.next_unit().is_err());
    }
}
