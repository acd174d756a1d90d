//! The SPIMI builder's in-memory accumulator: every pending posting of
//! the segment being built, held compressed, behind a term table whose
//! lookups overlap across one document's terms.
//!
//! # Layout
//!
//! Four flat vectors, all reused from one segment to the next (Lucene's
//! `BytesRefHash` + `ByteBlockPool` shape):
//!
//! * `table` — open-addressed, linear probing, one `u32` word per cell:
//!   `0` is empty, otherwise `tag << shift | (slot + 1)` with
//!   `shift = log2(capacity)`. The cell index is the hash's low `shift`
//!   bits and the tag its remaining high bits, so a probe that lands on
//!   another term's cell is told apart without touching that term. The
//!   table doubles when it would pass half full and is refilled by
//!   re-hashing the arena, which is in slot order.
//! * `arena` — the terms' UTF-8 bytes, back to back, in slot order.
//! * `slots` — one fixed-size [`Slot`] header per term, in first-seen
//!   order.
//! * `pool` — the posting runs. A run is a chain of slices of
//!   [`SLICE_BYTES`]`[level]` bytes, the level rising by one per slice up
//!   to the last; a slice's final [`LINK_BYTES`] bytes hold the pool
//!   offset of the next one, written when it is linked.
//!
//! # A term's run
//!
//! `VB(first docID)`, then per posting but the newest
//! `VB(gap_to_next << 1 | (tf == 1))` followed by `VB(tf)` when
//! `tf != 1`. The newest posting is *pending* in the slot header (docID
//! and tf): its tf is still open — a term repeated later in the same
//! document folds into it with a saturating add — and its record needs
//! the gap to a posting that has not arrived. It is written when the
//! term next occurs in a later document, and read from the header when
//! the run is decoded.
//!
//! # Accounting
//!
//! [`Accumulator::bytes`] charges what a term makes the accumulator
//! allocate, as it is handed out: its text, [`TABLE_SHARE_BYTES`] for
//! its table cells, its header, and every slice linked into its run at
//! the slice's full size. The table's minimum size is charged to the
//! empty accumulator. Every vector's length is therefore at most the
//! charge, which [`MAX_ACCUMULATOR_BYTES`] keeps inside the `u32`
//! offsets used throughout.

use crate::segment::term_len;
use crate::Error;
use std::hash::{BuildHasher, RandomState};

/// Slice sizes by level; a run's slices climb one level at a time and
/// stay at the last.
const SLICE_BYTES: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Bytes at the end of every slice reserved for the offset of the next.
const LINK_BYTES: usize = 4;

/// Cells of an empty accumulator's table.
const MIN_TABLE_CELLS: usize = 8;

/// Table bytes charged per term: the table holds fewer than
/// `4 * (terms + 1)` four-byte cells (it doubles on passing half full),
/// so the charge covers it given the minimum charged up front.
const TABLE_SHARE_BYTES: usize = 16;

/// The most the accumulator is allowed to be charged before its owner
/// must clear it, so that pool and arena offsets fit `u32` even after
/// one more document of up to this many worst-case bytes.
pub(crate) const MAX_ACCUMULATOR_BYTES: usize = 1 << 31;

/// Per-term header.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the term's bytes in the arena.
    term_off: u32,
    term_len: u16,
    /// Level of the slice being written.
    level: u8,
    /// Data bytes left in it.
    room: u8,
    /// The pending posting.
    pend_doc: u32,
    pend_tf: u32,
    /// Pool offset of the run's first slice.
    head: u32,
    /// Pool offset of the next byte to write.
    cursor: u32,
}

/// One `(term, tf)` of the document being added.
#[derive(Debug, Clone, Copy)]
struct Staged {
    hash: u32,
    /// The term's bytes in `text`.
    off: u32,
    len: u16,
    tf: u32,
    /// Filled by the probe pass.
    slot: u32,
}

/// What committing one document added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Added {
    /// New `(term, document)` postings.
    pub postings: u64,
    /// Sum of the document's aggregated term frequencies.
    pub tf_sum: u64,
}

#[derive(Debug)]
pub(crate) struct Accumulator {
    hasher: RandomState,
    table: Vec<u32>,
    shift: u32,
    arena: Vec<u8>,
    slots: Vec<Slot>,
    pool: Pool,
    bytes: usize,
    /// The staged document: its entries and their term bytes.
    staged: Vec<Staged>,
    text: Vec<u8>,
}

impl Accumulator {
    pub(crate) fn new() -> Self {
        Accumulator {
            hasher: RandomState::new(),
            table: vec![0; MIN_TABLE_CELLS],
            shift: MIN_TABLE_CELLS.trailing_zeros(),
            arena: Vec::new(),
            slots: Vec::new(),
            pool: Pool(Vec::new()),
            bytes: MIN_TABLE_CELLS * 4,
            staged: Vec::new(),
            text: Vec::new(),
        }
    }

    /// Charged bytes (see the module header).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn n_terms(&self) -> usize {
        self.slots.len()
    }

    /// The most one `(term, tf)` entry of a document can add to
    /// [`Accumulator::bytes`]: a new term's text, table share, header
    /// and first two slices (a first docID of five bytes overflows the
    /// first), or, for a term already held, one slice of the largest
    /// size.
    pub(crate) const fn entry_worst_case_bytes(term_len: usize) -> usize {
        let new_term = term_len
            + TABLE_SHARE_BYTES
            + std::mem::size_of::<Slot>()
            + SLICE_BYTES[0]
            + SLICE_BYTES[1];
        let linked = SLICE_BYTES[SLICE_BYTES.len() - 1];
        if new_term > linked {
            new_term
        } else {
            linked
        }
    }

    /// Pass one of three: copies, validates and hashes the document's
    /// entries into the staging scratch, replacing whatever was staged.
    /// Nothing else is touched, so a rejected document leaves no trace.
    ///
    /// # Errors
    ///
    /// [`Error::ZeroTermFrequency`] at the first zero tf;
    /// [`Error::InvalidQuery`] for a term the segment format cannot name
    /// or a document whose worst case exceeds
    /// [`MAX_ACCUMULATOR_BYTES`].
    pub(crate) fn stage<'a, I>(&mut self, terms: I) -> Result<(), Error>
    where
        I: IntoIterator<Item = (&'a str, u32)>,
    {
        self.staged.clear();
        self.text.clear();
        let mut worst = 0usize;
        for (at, (term, tf)) in terms.into_iter().enumerate() {
            if tf == 0 {
                return Err(Error::ZeroTermFrequency { at });
            }
            let len = term_len(term)?;
            worst += Self::entry_worst_case_bytes(term.len());
            if worst > MAX_ACCUMULATOR_BYTES {
                return Err(Error::InvalidQuery {
                    reason: format!("document larger than {MAX_ACCUMULATOR_BYTES} in-memory bytes"),
                });
            }
            self.staged.push(Staged {
                hash: self.hash(term.as_bytes()),
                off: self.text.len() as u32,
                len,
                tf,
                slot: 0,
            });
            self.text.extend_from_slice(term.as_bytes());
        }
        Ok(())
    }

    /// Passes two and three: finds or interns every staged term, then
    /// applies every staged entry to its slot as document `doc` (docIDs
    /// must not decrease from one commit to the next). Split so that
    /// each pass is a run of independent lookups — table cell → header →
    /// arena bytes in the first, header → pool cursor in the second —
    /// that the core overlaps across the document's terms.
    pub(crate) fn commit(&mut self, doc: u32) -> Added {
        let mut staged = std::mem::take(&mut self.staged);
        let mut added = Added {
            postings: 0,
            tf_sum: 0,
        };
        for e in &mut staged {
            let term = &self.text[e.off as usize..][..usize::from(e.len)];
            e.slot = match self.find(e.hash, term) {
                Ok(slot) => slot,
                Err(cell) => {
                    added.postings += 1;
                    self.intern(e.hash, cell, e.off, e.len, doc)
                }
            };
        }
        for e in &staged {
            let s = &mut self.slots[e.slot as usize];
            if s.pend_doc == doc {
                // Already in this document (or interned for it, with a
                // pending tf of 0).
                let tf = s.pend_tf.saturating_add(e.tf);
                added.tf_sum += u64::from(tf - s.pend_tf);
                s.pend_tf = tf;
            } else {
                let gap = u64::from(doc - s.pend_doc);
                let one = s.pend_tf == 1;
                self.bytes += self.pool.put_vb(s, gap << 1 | u64::from(one));
                if !one {
                    self.bytes += self.pool.put_vb(s, u64::from(s.pend_tf));
                }
                s.pend_doc = doc;
                s.pend_tf = e.tf;
                added.postings += 1;
                added.tf_sum += u64::from(e.tf);
            }
        }
        self.staged = staged;
        added
    }

    /// Fills `order` with the slot ids in the terms' lexical (byte)
    /// order.
    pub(crate) fn sorted_slots(&self, order: &mut Vec<u32>) {
        order.clear();
        order.extend(0..self.slots.len() as u32);
        order.sort_unstable_by(|&a, &b| self.term(a).cmp(self.term(b)));
    }

    /// The bytes of `slot`'s term.
    pub(crate) fn term(&self, slot: u32) -> &[u8] {
        let s = &self.slots[slot as usize];
        &self.arena[s.term_off as usize..][..usize::from(s.term_len)]
    }

    /// Decodes `slot`'s run, pending posting included, into the two
    /// columns (cleared first).
    pub(crate) fn decode(&self, slot: u32, docs: &mut Vec<u32>, tfs: &mut Vec<u32>) {
        docs.clear();
        tfs.clear();
        let s = &self.slots[slot as usize];
        let mut run = self.pool.run(s.head);
        let mut doc = run.vb() as u32;
        while run.pos != s.cursor as usize {
            let v = run.vb();
            docs.push(doc);
            tfs.push(if v & 1 == 1 { 1 } else { run.vb() as u32 });
            doc += (v >> 1) as u32;
        }
        docs.push(doc);
        tfs.push(s.pend_tf);
    }

    /// Empties the accumulator, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.table.clear();
        self.table.resize(MIN_TABLE_CELLS, 0);
        self.shift = MIN_TABLE_CELLS.trailing_zeros();
        self.arena.clear();
        self.slots.clear();
        self.pool.0.clear();
        self.bytes = MIN_TABLE_CELLS * 4;
    }

    fn hash(&self, term: &[u8]) -> u32 {
        self.hasher.hash_one(term) as u32
    }

    /// The slot holding `term`, or the empty cell its probe ended on.
    fn find(&self, hash: u32, term: &[u8]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let tag = hash >> self.shift;
        let mut cell = hash as usize & mask;
        loop {
            let word = self.table[cell];
            if word == 0 {
                return Err(cell);
            }
            if word >> self.shift == tag {
                let slot = (word & mask as u32) - 1;
                if self.term(slot) == term {
                    return Ok(slot);
                }
            }
            cell = (cell + 1) & mask;
        }
    }

    /// The empty cell `hash`'s probe ends on.
    fn free_cell(&self, hash: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut cell = hash as usize & mask;
        while self.table[cell] != 0 {
            cell = (cell + 1) & mask;
        }
        cell
    }

    /// Adds the staged term at `text[off..][..len]` as a new slot whose
    /// pending posting is `(doc, 0)` — a tf no real posting has, so the
    /// update pass folds the document's first occurrence into it like any
    /// repeat — and opens its run with the docID.
    fn intern(&mut self, hash: u32, mut cell: usize, off: u32, len: u16, doc: u32) -> u32 {
        let slot = self.slots.len() as u32;
        if (self.slots.len() + 1) * 2 > self.table.len() {
            self.grow();
            cell = self.free_cell(hash);
        }
        self.table[cell] = (hash >> self.shift) << self.shift | (slot + 1);

        let term_off = self.arena.len() as u32;
        self.arena
            .extend_from_slice(&self.text[off as usize..][..usize::from(len)]);
        let head = self.pool.slice(0);
        let mut s = Slot {
            term_off,
            term_len: len,
            level: 0,
            room: (SLICE_BYTES[0] - LINK_BYTES) as u8,
            pend_doc: doc,
            pend_tf: 0,
            head,
            cursor: head,
        };
        self.bytes += usize::from(len)
            + TABLE_SHARE_BYTES
            + std::mem::size_of::<Slot>()
            + SLICE_BYTES[0]
            + self.pool.put_vb(&mut s, u64::from(doc));
        self.slots.push(s);
        slot
    }

    /// Doubles the table and refills it from the arena.
    fn grow(&mut self) {
        let cells = self.table.len() * 2;
        self.table.clear();
        self.table.resize(cells, 0);
        self.shift += 1;
        for slot in 0..self.slots.len() as u32 {
            let hash = self.hash(self.term(slot));
            let cell = self.free_cell(hash);
            self.table[cell] = (hash >> self.shift) << self.shift | (slot + 1);
        }
    }
}

/// The shared pool of posting-run slices.
#[derive(Debug)]
struct Pool(Vec<u8>);

impl Pool {
    /// Hands out a zeroed slice of `level`'s size; returns its offset.
    fn slice(&mut self, level: usize) -> u32 {
        let at = self.0.len();
        self.0.resize(at + SLICE_BYTES[level], 0);
        at as u32
    }

    /// A cursor at the start of the run whose first slice is at `head`.
    fn run(&self, head: u32) -> RunReader<'_> {
        RunReader {
            pool: &self.0,
            pos: head as usize,
            level: 0,
            room: SLICE_BYTES[0] - LINK_BYTES,
        }
    }

    /// Appends `v` to `s`'s run as a variable-byte integer (seven bits
    /// per byte, low group first, high bit = more follow), linking a new
    /// slice whenever the current one is full. Returns the bytes of the
    /// slices it linked.
    fn put_vb(&mut self, s: &mut Slot, mut v: u64) -> usize {
        let mut linked = 0;
        loop {
            if s.room == 0 {
                let level = (usize::from(s.level) + 1).min(SLICE_BYTES.len() - 1);
                let next = self.slice(level);
                self.0[s.cursor as usize..][..LINK_BYTES].copy_from_slice(&next.to_le_bytes());
                s.cursor = next;
                s.level = level as u8;
                s.room = (SLICE_BYTES[level] - LINK_BYTES) as u8;
                linked += SLICE_BYTES[level];
            }
            let more = v >= 0x80;
            self.0[s.cursor as usize] = (v as u8 & 0x7f) | u8::from(more) << 7;
            s.cursor += 1;
            s.room -= 1;
            if !more {
                return linked;
            }
            v >>= 7;
        }
    }
}

/// Byte cursor over one run's slice chain.
struct RunReader<'a> {
    pool: &'a [u8],
    pos: usize,
    level: usize,
    room: usize,
}

impl RunReader<'_> {
    fn byte(&mut self) -> u8 {
        if self.room == 0 {
            let mut link = [0u8; LINK_BYTES];
            link.copy_from_slice(&self.pool[self.pos..][..LINK_BYTES]);
            self.pos = u32::from_le_bytes(link) as usize;
            self.level = (self.level + 1).min(SLICE_BYTES.len() - 1);
            self.room = SLICE_BYTES[self.level] - LINK_BYTES;
        }
        let byte = self.pool[self.pos];
        self.pos += 1;
        self.room -= 1;
        byte
    }

    fn vb(&mut self) -> u64 {
        let mut v = 0u64;
        for shift in (0..u64::BITS).step_by(7) {
            let byte = self.byte();
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use std::collections::BTreeMap;

    type Oracle = BTreeMap<String, Vec<(u32, u32)>>;

    fn add(acc: &mut Accumulator, oracle: &mut Oracle, doc: u32, bag: &[(&str, u32)]) -> Added {
        acc.stage(bag.iter().copied()).unwrap();
        let added = acc.commit(doc);
        let (mut postings, mut tf_sum) = (0, 0);
        for &(term, tf) in bag {
            let list = oracle.entry(term.to_owned()).or_default();
            match list.last_mut() {
                Some((d, f)) if *d == doc => *f = f.saturating_add(tf),
                _ => {
                    list.push((doc, tf));
                    postings += 1;
                }
            }
        }
        for list in oracle.values() {
            if let Some(&(d, f)) = list.last() {
                if d == doc {
                    tf_sum += u64::from(f);
                }
            }
        }
        assert_eq!(added, Added { postings, tf_sum }, "doc {doc}");
        added
    }

    fn assert_matches(acc: &Accumulator, oracle: &Oracle) {
        let mut order = Vec::new();
        acc.sorted_slots(&mut order);
        assert_eq!(order.len(), oracle.len());
        let (mut docs, mut tfs) = (Vec::new(), Vec::new());
        for (&slot, (term, list)) in order.iter().zip(oracle) {
            assert_eq!(acc.term(slot), term.as_bytes());
            acc.decode(slot, &mut docs, &mut tfs);
            let got: Vec<(u32, u32)> = docs.iter().copied().zip(tfs.iter().copied()).collect();
            assert_eq!(&got, list, "term {term:?}");
        }
    }

    #[test]
    fn runs_round_trip_across_slices_and_byte_boundaries() {
        let mut acc = Accumulator::new();
        let mut oracle = Oracle::new();
        // docID gaps straddling the 1/2/3/5-byte VB boundaries once
        // shifted, tfs on both sides of the flag and of one VB byte.
        let tfs = [1, 2, 127, 128, u32::MAX - 1, u32::MAX];
        let mut doc = 0u32;
        for (i, gap) in [1, 63, 64, 8191, 8192, 1 << 20, (1 << 20) + 1, 1 << 27]
            .into_iter()
            .cycle()
            .take(200)
            .enumerate()
        {
            let tf = tfs[i % tfs.len()];
            add(
                &mut acc,
                &mut oracle,
                doc,
                &[("long", tf), ("", 1), ("long", tf)],
            );
            if i % 7 == 0 {
                doc += 1;
                add(&mut acc, &mut oracle, doc, &[("sparse", tf)]);
            }
            doc += gap;
        }
        add(&mut acc, &mut oracle, u32::MAX, &[("last", 3), ("long", 1)]);
        assert_matches(&acc, &oracle);
    }

    #[test]
    fn table_grows_and_clear_reuses() {
        let mut acc = Accumulator::new();
        let empty = acc.bytes();
        for round in 0..2 {
            let mut oracle = Oracle::new();
            let names: Vec<String> = (0..1000).map(|i| format!("term-{i}")).collect();
            for doc in 0..3 {
                let bag: Vec<(&str, u32)> = names.iter().map(|n| (n.as_str(), doc + 1)).collect();
                add(&mut acc, &mut oracle, doc, &bag);
            }
            assert!(acc.table.len() >= 2 * acc.n_terms(), "round {round}");
            assert!(acc.table.len() * 4 <= empty + TABLE_SHARE_BYTES * acc.n_terms());
            for len in [acc.arena.len(), acc.pool.0.len(), acc.table.len() * 4] {
                assert!(len <= acc.bytes());
            }
            assert_matches(&acc, &oracle);
            acc.clear();
            assert_eq!((acc.bytes(), acc.n_terms()), (empty, 0));
        }
    }

    #[test]
    fn one_entry_never_adds_more_than_its_worst_case() {
        let mut acc = Accumulator::new();
        // A five-byte first docID overflows the first slice at once; wide
        // tfs and the odd five-byte gap then drive both runs through
        // every slice level.
        let mut doc = 1u32 << 28;
        for step in 0..3000u32 {
            doc += if step % 200 == 0 { 1 << 27 } else { 1 };
            for term in ["a", "quite-a-bit-longer-term"] {
                let before = acc.bytes();
                acc.stage([(term, u32::MAX - step % 2)]).unwrap();
                acc.commit(doc);
                assert!(
                    acc.bytes() - before <= Accumulator::entry_worst_case_bytes(term.len()),
                    "step {step} term {term:?}: {}",
                    acc.bytes() - before
                );
            }
        }
        assert!(acc.pool.0.len() > 20 * SLICE_BYTES[SLICE_BYTES.len() - 1]);
    }

    #[test]
    fn staging_rejects_before_anything_is_touched() {
        let mut acc = Accumulator::new();
        acc.stage([("kept", 2)]).unwrap();
        acc.commit(0);
        let before = (acc.bytes(), acc.n_terms());

        let err = acc.stage([("kept", 1), ("new", 0)]).unwrap_err();
        assert_eq!(err, Error::ZeroTermFrequency { at: 1 });
        let long = "é".repeat(40_000);
        let err = acc.stage([("new", 1), (long.as_str(), 1)]).unwrap_err();
        assert!(matches!(err, Error::InvalidQuery { .. }), "{err}");
        assert_eq!((acc.bytes(), acc.n_terms()), before);

        let mut oracle = Oracle::from([("kept".to_owned(), vec![(0, 2)])]);
        add(&mut acc, &mut oracle, 1, &[("kept", 1)]);
        assert_matches(&acc, &oracle);
    }
}
