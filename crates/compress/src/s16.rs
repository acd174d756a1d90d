//! Simple16: each 32-bit word carries a 4-bit selector and 28 payload bits
//! split into equal-width (or two-width) fields according to one of 16
//! layouts (Zhang, Long & Suel).

use crate::bitio::bits_for;
use crate::{check_count, check_len, BlockInfo, Codec, Error, Scheme};

/// The 16 Simple16 layouts as `(count, bits)` runs, indexed by selector
/// and densest first. Each layout's field widths sum to exactly 28 bits.
pub const S16_LAYOUTS: [&[(u32, u32)]; 16] = [
    &[(28, 1)],
    &[(7, 2), (14, 1)],
    &[(7, 1), (7, 2), (7, 1)],
    &[(14, 1), (7, 2)],
    &[(14, 2)],
    &[(1, 4), (8, 3)],
    &[(1, 3), (4, 4), (3, 3)],
    &[(7, 4)],
    &[(4, 5), (2, 4)],
    &[(2, 4), (4, 5)],
    &[(3, 6), (2, 5)],
    &[(2, 5), (3, 6)],
    &[(4, 7)],
    &[(1, 10), (2, 9)],
    &[(2, 14)],
    &[(1, 28)],
];

/// Values held by each layout, indexed by selector.
const LAYOUT_COUNTS: [usize; 16] = [28, 21, 21, 21, 14, 9, 8, 7, 6, 6, 5, 5, 4, 3, 2, 1];

/// Writes `N` fields of `BITS` bits, starting at bit `*shift` of `word`,
/// to `out[*at..]`; monomorphized per (run, width) pair so the compiler
/// fully unrolls each run, with one bounds check per run.
#[inline]
fn emit_run<const N: usize, const BITS: u32>(
    word: u32,
    shift: &mut u32,
    out: &mut [u32],
    at: &mut usize,
) {
    let mask = (1u32 << BITS) - 1;
    for (i, v) in out[*at..*at + N].iter_mut().enumerate() {
        *v = (word >> (*shift + i as u32 * BITS)) & mask;
    }
    *shift += N as u32 * BITS;
    *at += N;
}

/// Writes one word's `LAYOUT_COUNTS[sel]` values to the front of `out`
/// with the unrolled per-selector kernel.
#[inline]
fn decode_word(sel: usize, word: u32, out: &mut [u32]) {
    let (s, k) = (&mut 0u32, &mut 0usize);
    match sel {
        0 => emit_run::<28, 1>(word, s, out, k),
        1 => {
            emit_run::<7, 2>(word, s, out, k);
            emit_run::<14, 1>(word, s, out, k);
        }
        2 => {
            emit_run::<7, 1>(word, s, out, k);
            emit_run::<7, 2>(word, s, out, k);
            emit_run::<7, 1>(word, s, out, k);
        }
        3 => {
            emit_run::<14, 1>(word, s, out, k);
            emit_run::<7, 2>(word, s, out, k);
        }
        4 => emit_run::<14, 2>(word, s, out, k),
        5 => {
            emit_run::<1, 4>(word, s, out, k);
            emit_run::<8, 3>(word, s, out, k);
        }
        6 => {
            emit_run::<1, 3>(word, s, out, k);
            emit_run::<4, 4>(word, s, out, k);
            emit_run::<3, 3>(word, s, out, k);
        }
        7 => emit_run::<7, 4>(word, s, out, k),
        8 => {
            emit_run::<4, 5>(word, s, out, k);
            emit_run::<2, 4>(word, s, out, k);
        }
        9 => {
            emit_run::<2, 4>(word, s, out, k);
            emit_run::<4, 5>(word, s, out, k);
        }
        10 => {
            emit_run::<3, 6>(word, s, out, k);
            emit_run::<2, 5>(word, s, out, k);
        }
        11 => {
            emit_run::<2, 5>(word, s, out, k);
            emit_run::<3, 6>(word, s, out, k);
        }
        12 => emit_run::<4, 7>(word, s, out, k),
        13 => {
            emit_run::<1, 10>(word, s, out, k);
            emit_run::<2, 9>(word, s, out, k);
        }
        14 => emit_run::<2, 14>(word, s, out, k),
        _ => emit_run::<1, 28>(word, s, out, k),
    }
}

/// The distinct field widths of the 16 layouts, ascending. The layout
/// search compares *ranks* in this list: a value's need is the 1-based
/// rank of the narrowest width that holds it, a layout position's
/// capacity is the rank of its field width, and the value fits the
/// position iff need ≤ capacity.
const WIDTHS: [u32; 11] = [1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 28];

/// Need of a value wider than 28 bits: above every capacity.
const TOO_WIDE: u8 = WIDTHS.len() as u8 + 1;

const fn rank(bits: u32) -> u8 {
    let mut r = 0;
    while r < WIDTHS.len() {
        if bits <= WIDTHS[r] {
            return r as u8 + 1;
        }
        r += 1;
    }
    TOO_WIDE
}

/// A value's need by its bit length.
const NEED: [u8; 33] = {
    let mut table = [0u8; 33];
    let mut bits = 0;
    while bits <= 32 {
        table[bits] = rank(bits as u32);
        bits += 1;
    }
    table
};

/// One bit per byte: the top one.
const TOPS: u64 = 0x8080_8080_8080_8080;

/// Positions the search settles by table lookup. Ten layouts have no
/// more fields than this; the six densest go on to a word comparison.
const HEAD: usize = 8;
/// The layouts with more than [`HEAD`] fields — selectors `0..N_DENSE` —
/// and their selectors as a mask, a bit each.
const N_DENSE: usize = 6;
const DENSE: u16 = (1 << N_DENSE) - 1;

/// The layouts flattened per position for the layout search and the
/// packing loop.
struct Flat {
    /// For each of the first [`HEAD`] positions and each need there, the
    /// selectors (bit `sel`) whose field at that position cannot hold it.
    fails: [[u16; 16]; HEAD],
    /// Capacities of positions 8..32 of the [`DENSE`] layouts, a byte
    /// apiece with its top bit set (see [`select`]), eight positions per
    /// `u64`. Positions past the layout's last field hold any need.
    caps: [[u64; 3]; N_DENSE],
    /// Bit offset of each position's field within the payload.
    shifts: [[u8; 28]; 16],
}

static FLAT: Flat = {
    let mut flat = Flat {
        fails: [[0; 16]; HEAD],
        caps: [[0x7F7F_7F7F_7F7F_7F7F | TOPS; 3]; N_DENSE],
        shifts: [[0; 28]; 16],
    };
    let mut sel = 0;
    while sel < 16 {
        let layout = S16_LAYOUTS[sel];
        let (mut run, mut pos, mut shift) = (0, 0, 0);
        while run < layout.len() {
            let (n, bits) = layout[run];
            let mut k = 0;
            while k < n {
                if pos < HEAD {
                    let mut need = rank(bits) as usize + 1;
                    while need < 16 {
                        flat.fails[pos][need] |= 1 << sel;
                        need += 1;
                    }
                } else {
                    let lane = 8 * (pos % 8);
                    flat.caps[sel][pos / 8 - 1] &= !(0x7F << lane);
                    flat.caps[sel][pos / 8 - 1] |= (rank(bits) as u64) << lane;
                }
                flat.shifts[sel][pos] = shift as u8;
                shift += bits;
                pos += 1;
                k += 1;
            }
            run += 1;
        }
        sel += 1;
    }
    flat
};

/// The selector of the densest layout that holds the values whose needs
/// open `needs` (zero past the end of the stream: padding fits), or
/// `None` when the first value is wider than 28 bits.
///
/// Straight-line on purpose: which layout wins changes from word to word,
/// so a loop over selectors that exits at the first fit costs a branch
/// miss per word. Instead every selector's failure is collected into one
/// mask and the answer is its lowest clear bit.
#[inline]
fn select(needs: &[u8; 32]) -> Option<usize> {
    let mut failing = 0;
    for (fails, &need) in FLAT.fails.iter().zip(needs) {
        // (`& 15` changes no need; it spares the bounds check.)
        failing |= fails[usize::from(need & 15)];
    }
    if failing & DENSE != DENSE {
        let (lanes, _) = needs.as_chunks::<8>();
        let need = [1, 2, 3].map(|lane| u64::from_le_bytes(lanes[lane]));
        // Eight positions per subtraction: every capacity byte carries
        // its top bit, which no need has, so no borrow crosses bytes and
        // a byte keeps the bit iff its need is not above its capacity.
        for (sel, caps) in FLAT.caps.iter().enumerate() {
            let kept = (caps[0] - need[0]) & (caps[1] - need[1]) & (caps[2] - need[2]);
            failing |= u16::from(kept & TOPS != TOPS) << sel;
        }
    }
    let sel = failing.trailing_ones() as usize;
    (sel < 16).then_some(sel)
}

/// Values classified per refill of the need window …
const WINDOW: usize = 256;
/// … and the zero bytes kept behind them, so the 32-byte view from any
/// classified position stays inside the window.
const TAIL: usize = 32;

/// The window of needs the layout search reads. Each refill zeroes the
/// [`TAIL`] bytes behind what it classifies, so a window is reused as it
/// stands.
type Window = [u8; WINDOW + TAIL];

/// The greedy layout choice — per word, the densest layout (lowest
/// selector) whose fields hold the values still to go — calling
/// `emit(selector, values taken)` once per word. This is Simple16's one
/// sizing routine: `encoded_len` counts its words, `encode` packs each as
/// it is chosen, and [`S16Plan::plan`] keeps its selectors for
/// [`S16Plan::pack`].
///
/// Values are classified [`WINDOW`] at a time into `needs`. A layout
/// looks at up to 28 values: short of the end of the stream, the search
/// stops where that would leave the classified chunk and classifies
/// again from there.
fn for_each_word(
    values: &[u32],
    needs: &mut Window,
    mut emit: impl FnMut(usize, &[u32]),
) -> Result<(), Error> {
    let mut rest = values;
    while !rest.is_empty() {
        let chunk = &rest[..rest.len().min(WINDOW)];
        for (need, &v) in needs.iter_mut().zip(chunk) {
            *need = NEED[bits_for(v) as usize];
        }
        needs[chunk.len()..chunk.len() + TAIL].fill(0);
        let stop = if chunk.len() == rest.len() {
            chunk.len()
        } else {
            WINDOW - 27
        };
        let mut at = 0;
        while at < stop {
            let Some(sel) = needs[at..].first_chunk().and_then(select) else {
                // Even 1×28 failed: the value needs more than 28 bits.
                return Err(Error::ValueTooLarge {
                    value: chunk[at],
                    max: (1 << 28) - 1,
                });
            };
            let take = LAYOUT_COUNTS[sel].min(chunk.len() - at);
            emit(sel, &chunk[at..at + take]);
            at += take;
        }
        rest = &rest[at..];
    }
    Ok(())
}

/// Ors the `N` values that open `values` into `word`, `BITS` bits apiece
/// from `*shift` on; monomorphized per (run, width) pair so the compiler
/// fully unrolls each run, as [`emit_run`] does on the decode side.
#[inline]
fn gather_run<const N: usize, const BITS: u32>(
    values: &mut &[u32],
    shift: &mut u32,
    word: &mut u32,
) {
    if let Some((run, rest)) = values.split_first_chunk::<N>() {
        for (i, &v) in run.iter().enumerate() {
            *word |= v << (*shift + i as u32 * BITS);
        }
        *values = rest;
    }
    *shift += N as u32 * BITS;
}

/// The word that packs `values` under selector `sel`: the per-selector
/// unrolled packer for a full word, the shift table for the short last
/// word of a stream (whose missing values are the zero padding).
#[inline]
fn pack_word(sel: usize, values: &[u32]) -> u32 {
    let mut word = (sel as u32) << 28;
    if values.len() < LAYOUT_COUNTS[sel] {
        for (&v, &shift) in values.iter().zip(&FLAT.shifts[sel]) {
            word |= v << shift;
        }
        return word;
    }
    let (v, s, w) = (&mut &values[..], &mut 0u32, &mut word);
    match sel {
        0 => gather_run::<28, 1>(v, s, w),
        1 => {
            gather_run::<7, 2>(v, s, w);
            gather_run::<14, 1>(v, s, w);
        }
        2 => {
            gather_run::<7, 1>(v, s, w);
            gather_run::<7, 2>(v, s, w);
            gather_run::<7, 1>(v, s, w);
        }
        3 => {
            gather_run::<14, 1>(v, s, w);
            gather_run::<7, 2>(v, s, w);
        }
        4 => gather_run::<14, 2>(v, s, w),
        5 => {
            gather_run::<1, 4>(v, s, w);
            gather_run::<8, 3>(v, s, w);
        }
        6 => {
            gather_run::<1, 3>(v, s, w);
            gather_run::<4, 4>(v, s, w);
            gather_run::<3, 3>(v, s, w);
        }
        7 => gather_run::<7, 4>(v, s, w),
        8 => {
            gather_run::<4, 5>(v, s, w);
            gather_run::<2, 4>(v, s, w);
        }
        9 => {
            gather_run::<2, 4>(v, s, w);
            gather_run::<4, 5>(v, s, w);
        }
        10 => {
            gather_run::<3, 6>(v, s, w);
            gather_run::<2, 5>(v, s, w);
        }
        11 => {
            gather_run::<2, 5>(v, s, w);
            gather_run::<3, 6>(v, s, w);
        }
        12 => gather_run::<4, 7>(v, s, w),
        13 => {
            gather_run::<1, 10>(v, s, w);
            gather_run::<2, 9>(v, s, w);
        }
        14 => gather_run::<2, 14>(v, s, w),
        _ => gather_run::<1, 28>(v, s, w),
    }
    word
}

/// Simple16's layout search, run once and kept: the selector of every
/// word of one or more streams, planned one after another by
/// [`S16Plan::plan`] and packed in the same order by
/// [`S16Plan::pack`] — so a caller that sized a stream to choose a scheme
/// encodes it without searching again. The words are
/// [`crate::Codec::encode`]'s, selector for selector.
#[derive(Debug, Clone)]
pub struct S16Plan {
    selectors: Vec<u8>,
    /// Selectors already handed to `pack`.
    packed: usize,
    needs: Window,
}

impl Default for S16Plan {
    fn default() -> Self {
        S16Plan {
            selectors: Vec::new(),
            packed: 0,
            needs: [0; WINDOW + TAIL],
        }
    }
}

impl S16Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every stream planned, packed or not.
    pub fn clear(&mut self) {
        self.selectors.clear();
        self.packed = 0;
    }

    /// The selectors planned so far, a word each, in stream order.
    pub fn selectors(&self) -> &[u8] {
        &self.selectors
    }

    /// Plans the next stream and returns its encoded bytes: exactly
    /// [`crate::Codec::encoded_len`]'s answer, found by the same search.
    ///
    /// # Errors
    ///
    /// Those of [`crate::Codec::encoded_len`]; the plan is then as it
    /// was.
    pub fn plan(&mut self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        let start = self.selectors.len();
        let selectors = &mut self.selectors;
        let planned = for_each_word(values, &mut self.needs, |sel, _| {
            selectors.push(sel as u8);
        });
        if let Err(e) = planned {
            self.selectors.truncate(start);
            return Err(e);
        }
        Ok(4 * (self.selectors.len() - start))
    }

    /// Packs `values` — the stream planned next — appending its words to
    /// `out`, and returns its block descriptor. The values must be those
    /// that were planned: words packed from a plan for other values do
    /// not decode to them.
    ///
    /// # Errors
    ///
    /// [`Error::TooManyValues`] above [`crate::MAX_BLOCK_VALUES`] values,
    /// and [`Error::Corrupt`] when the plan runs out of words before the
    /// values do.
    pub fn pack(&mut self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        let mut rest = values;
        while !rest.is_empty() {
            let Some(&sel) = self.selectors.get(self.packed) else {
                return Err(Error::Corrupt {
                    reason: "Simple16 plan has no word left for the values",
                });
            };
            self.packed += 1;
            let sel = usize::from(sel & 15);
            let take = LAYOUT_COUNTS[sel].min(rest.len());
            out.extend_from_slice(&pack_word(sel, &rest[..take]).to_le_bytes());
            rest = &rest[take..];
        }
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }
}

/// The S16 codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Simple16;

impl Codec for Simple16 {
    fn scheme(&self) -> Scheme {
        Scheme::S16
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        for_each_word(values, &mut [0; WINDOW + TAIL], |sel, taken| {
            out.extend_from_slice(&pack_word(sel, taken).to_le_bytes());
        })?;
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        let mut words = 0;
        for_each_word(values, &mut [0; WINDOW + TAIL], |_, _| words += 1)?;
        Ok(words * 4)
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let base = out.len();
        let end = base + check_count(info)?;
        // Every word writes its whole layout, so the last one may run up
        // to 27 values past `end`: size once with slack, then trim.
        out.resize(end + LAYOUT_COUNTS[0], 0);
        let (mut at, mut pos) = (base, 0usize);
        while at < end {
            let Some(&[b0, b1, b2, b3]) = data.get(pos..pos + 4) else {
                out.truncate(at);
                return Err(Error::Truncated {
                    have: data.len(),
                    need: pos + 4,
                });
            };
            pos += 4;
            let word = u32::from_le_bytes([b0, b1, b2, b3]);
            let sel = (word >> 28) as usize;
            decode_word(sel, word, &mut out[at..]);
            at += LAYOUT_COUNTS[sel];
        }
        out.truncate(end);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn layout_count(layout: &[(u32, u32)]) -> u32 {
        layout.iter().map(|&(n, _)| n).sum()
    }

    fn roundtrip(values: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let info = Simple16.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        Simple16.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        buf
    }

    #[test]
    fn layouts_all_sum_to_28_bits() {
        for layout in &S16_LAYOUTS {
            let bits: u32 = layout.iter().map(|&(n, b)| n * b).sum();
            assert_eq!(bits, 28);
        }
    }

    #[test]
    fn layout_counts_match_table() {
        for (sel, layout) in S16_LAYOUTS.iter().enumerate() {
            assert_eq!(LAYOUT_COUNTS[sel], layout_count(layout) as usize, "{sel}");
        }
    }

    #[test]
    fn kernel_matches_reference_on_random_streams() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for len in [1usize, 2, 27, 28, 29, 100, 128, 513] {
            let values: Vec<u32> = (0..len)
                .map(|_| {
                    let r = next();
                    match r % 8 {
                        0..=4 => r % 4,
                        5 => r % 128,
                        6 => r % 65536,
                        _ => r % (1 << 28),
                    }
                })
                .collect();
            let mut buf = Vec::new();
            let info = Simple16.encode(&values, &mut buf).unwrap();
            let mut fast = Vec::new();
            Simple16.decode(&buf, &info, &mut fast).unwrap();
            let mut slow = Vec::new();
            crate::reference::decode(Scheme::S16, &buf, &info, &mut slow).unwrap();
            assert_eq!(fast, slow, "len {len}");
            assert_eq!(fast, values, "len {len}");
        }
    }

    #[test]
    fn ones_pack_28_per_word() {
        let buf = roundtrip(&[1u32; 56]);
        assert_eq!(buf.len(), 8, "two words of 28×1-bit");
    }

    #[test]
    fn mixed_magnitudes() {
        roundtrip(&[0, 1, 100, 3, 7, 200_000, 1, 1, 1, 0, 50, 2]);
    }

    #[test]
    fn value_at_28_bit_limit() {
        roundtrip(&[(1 << 28) - 1]);
    }

    #[test]
    fn value_above_28_bits_rejected() {
        let err = Simple16.encode(&[1 << 28], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::ValueTooLarge { .. }));
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        let info = Simple16.encode(&[5u32; 40], &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        let mut out = Vec::new();
        let err = Simple16.decode(&buf, &info, &mut out).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
        // What the whole words before the fault held, and nothing more.
        assert!(out.len() < 40 && out.iter().all(|&v| v == 5), "{out:?}");
    }

    #[test]
    fn tail_shorter_than_layout() {
        // 3 ones: padded into one 28×1 word.
        let buf = roundtrip(&[1, 1, 1]);
        assert_eq!(buf.len(), 4);
    }
}
