//! On-disk sealed-segment format — the unit the SCM device reads.
//!
//! A segment is an immutable, self-contained slice of the corpus: a
//! contiguous docID range `[doc_base, doc_base + n_docs)` with every
//! posting of those documents, encoded in the same 128-value blocks +
//! 19 B [`crate::BlockMeta`] records the in-memory index uses, plus the
//! per-block max-score so PR 6 pruning works on loaded segments
//! unchanged. Segments are produced by [`crate::spimi::SpimiBuilder`]
//! spills and consumed by the k-way streaming merge.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! header     magic "BOSSSEG\0" | version u32 (2) | flags u32 | doc_base u32
//!            | n_docs u32 | n_terms u32 | k1 f32 | b f32 | reserved u32
//! doc_lens   n_docs × u32          (token counts, segment-local docIDs)
//! terms      n_terms entries, strictly increasing lexical order:
//!              term_len u16 | term utf-8 bytes
//!              scheme u8 | df u32 | idf f32 | max_score f32
//!              n_blocks u32 | data_len u32
//!              n_blocks × 34 B descriptors:
//!                first_doc u32 | last_doc u32 | max_score f32
//!                | offset u32 | len u32 | tf_offset u32
//!                | delta (count u16, bit_width u8, exc_off u16)
//!                | tf    (count u16, bit_width u8, exc_off u16)
//!              data_len bytes of block payload
//! trailer    u64 checksum of every preceding byte
//! ```
//!
//! The checksum folds the bytes in as little-endian `u64` words, one
//! multiply and one xorshift per word, the last partial word padded with
//! zeros and the byte count folded in after it (`WordSum`). Version 1
//! ended in a byte-serial FNV-1a instead, at about five times the cost
//! per byte; a reader refuses it as [`IoError::BadVersion`].
//!
//! docIDs inside a segment are segment-local (0-based); `doc_base` maps
//! them to global. Stored `idf`/`max_score` values are computed against
//! the *segment's own* statistics, making each segment a valid
//! standalone index ([`load_segment`]); the merge recomputes both from
//! global statistics, so they are transport metadata, not final scores.
//! Spilled segments are transport in their encoding too: a spill writes
//! every list under BP whatever the final index's scheme policy, and the
//! merge re-encodes each list under that policy. The format itself holds
//! any scheme per list ([`write_segment`]).
//!
//! # Hardening
//!
//! Every length field read from disk is untrusted. The reader caps each
//! claimed size against the bytes actually remaining in the input before
//! any allocation (the PR-4 `check_count` rule lifted to file scope), so
//! a corrupt segment can cost at most one pass over the real file — never
//! an abort in the allocator. All failures are typed [`IoError`]s.

use crate::builder::scoring_from_lens;
use crate::encoded::{ListStats, ListView};
use crate::index::{IndexAssembler, InvertedIndex};
use crate::io::IoError;
use crate::{BlockMeta, Bm25Params, EncodedList};
use boss_compress::{BlockInfo, Scheme};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

/// Segment file magic: "BOSSSEG\0".
pub(crate) const SEG_MAGIC: [u8; 8] = *b"BOSSSEG\0";

/// Current segment format version: 2 since the checksum trailer became
/// the word-at-a-time [`WordSum`] (version 1 ended in a byte-serial
/// FNV-1a), so a file of the old format is refused as
/// [`IoError::BadVersion`], not as a checksum mismatch.
pub(crate) const SEG_VERSION: u32 = 2;

/// Fixed header size in bytes: magic + 7 × u32-sized fields.
pub(crate) const SEG_HEADER_BYTES: u64 = 8 + 7 * 4;

/// On-disk size of one block descriptor.
pub(crate) const SEG_DESCRIPTOR_BYTES: u64 = 34;

/// Size of the checksum trailer that ends every segment file.
pub(crate) const SEG_CHECKSUM_BYTES: u64 = 8;

/// Initial state of the segment checksum.
const SUM_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The odd multiplier of a checksum step.
const SUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: folds the word `w` into the state `h`. For a fixed
/// `w` it is a bijection of the state (xor, an odd multiply and an
/// xorshift are each invertible), so a change confined to one word
/// always changes the digest; the xorshift carries the high bits down,
/// so that bit-63 flips in two consecutive words do not cancel, as they
/// would under the multiply alone.
fn sum_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(SUM_MUL);
    h ^ (h >> 32)
}

/// The running segment checksum of a byte stream: each little-endian
/// `u64` word folded in by [`sum_step`], the last partial word held back
/// until [`WordSum::digest`] pads it with zeros and then folds in the
/// stream's length. The digest depends only on the bytes, not on how
/// they were split across [`WordSum::update`] calls.
#[derive(Debug)]
struct WordSum {
    state: u64,
    /// Bytes streamed so far.
    len: u64,
    /// The bytes of the word not yet complete, `len % 8` of them.
    tail: [u8; 8],
}

impl WordSum {
    fn new() -> Self {
        WordSum {
            state: SUM_SEED,
            len: 0,
            tail: [0; 8],
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        let held = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if held > 0 {
            let take = bytes.len().min(8 - held);
            self.tail[held..held + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if held + take < 8 {
                return;
            }
            self.state = sum_step(self.state, u64::from_le_bytes(self.tail));
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.state = sum_step(self.state, u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    fn digest(&self) -> u64 {
        let held = (self.len % 8) as usize;
        let mut h = self.state;
        if held > 0 {
            let mut last = [0u8; 8];
            last[..held].copy_from_slice(&self.tail[..held]);
            h = sum_step(h, u64::from_le_bytes(last));
        }
        sum_step(h, self.len)
    }
}

fn scheme_tag(s: Scheme) -> u8 {
    match s {
        Scheme::Bp => 0,
        Scheme::Vb => 1,
        Scheme::OptPfd => 2,
        Scheme::S16 => 3,
        Scheme::S8b => 4,
        Scheme::GroupVarint => 5,
    }
}

fn scheme_from_tag(tag: u8) -> Option<Scheme> {
    Some(match tag {
        0 => Scheme::Bp,
        1 => Scheme::Vb,
        2 => Scheme::OptPfd,
        3 => Scheme::S16,
        4 => Scheme::S8b,
        5 => Scheme::GroupVarint,
        _ => return None,
    })
}

/// Byte ranges of the regions of a written segment file — the targeting
/// map the corruption harness uses to aim its mutation families (header,
/// dictionary entry, descriptor, payload, checksum) at specific regions.
#[derive(Debug, Clone, Default)]
pub struct SegmentRegions {
    /// The fixed header.
    pub header: Range<u64>,
    /// The document-length array.
    pub doc_lens: Range<u64>,
    /// Per-term dictionary entry headers (term text + list stats).
    pub term_headers: Vec<Range<u64>>,
    /// Per-term block-descriptor arrays.
    pub descriptors: Vec<Range<u64>>,
    /// Per-term encoded block payloads.
    pub payloads: Vec<Range<u64>>,
    /// The checksum trailer.
    pub checksum: Range<u64>,
}

/// The parsed fixed header of a segment file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentHeader {
    /// First global docID covered by this segment.
    pub doc_base: u32,
    /// Number of documents in the segment.
    pub n_docs: u32,
    /// Number of terms in the segment dictionary.
    pub n_terms: u32,
    /// BM25 parameters the segment's local scores were computed with.
    pub params: Bm25Params,
}

/// `Write` adapter that maintains the running checksum and byte count of
/// everything written through it.
#[derive(Debug)]
struct HashingWriter<W: Write> {
    inner: W,
    sum: WordSum,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            sum: WordSum::new(),
        }
    }

    /// Bytes written so far.
    fn written(&self) -> u64 {
        self.sum.len
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        self.inner.write_all(bytes)?;
        self.sum.update(bytes);
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> Result<(), IoError> {
        self.put(&v.to_le_bytes())
    }

    fn put_f32(&mut self, v: f32) -> Result<(), IoError> {
        self.put(&v.to_le_bytes())
    }
}

/// The length of `term` as the dictionary stores it.
///
/// # Errors
///
/// [`crate::Error::InvalidQuery`] for a term of more than 65535 bytes.
pub(crate) fn term_len(term: &str) -> Result<u16, crate::Error> {
    u16::try_from(term.len()).map_err(|_| {
        let mut cut = 32;
        while !term.is_char_boundary(cut) {
            cut -= 1;
        }
        crate::Error::InvalidQuery {
            reason: format!("term longer than 65535 bytes: {:?}…", &term[..cut]),
        }
    })
}

/// A count as the `u32` field the format stores it in.
fn field_u32(value: usize, what: &str) -> Result<u32, IoError> {
    u32::try_from(value).map_err(|_| {
        IoError::Invalid(crate::Error::InvalidQuery {
            reason: format!("{what} {value} does not fit the segment format's u32 field"),
        })
    })
}

/// What the descriptors of every list an encoder produced satisfy, and a
/// decode would otherwise be the first to miss: each block lies inside
/// the list's `data_len` payload bytes with its tf section inside the
/// block, holds as many gaps as tfs, spans an ascending docID range
/// inside the segment's `n_docs` documents, and ends after the block
/// before it. The writer refuses a list that breaks one, and the reader
/// an entry, before its bytes go anywhere.
fn check_descriptors(
    blocks: &[BlockMeta],
    data_len: usize,
    n_docs: u32,
) -> Result<(), &'static str> {
    let mut prev_last = None;
    for b in blocks {
        if b.last_doc >= n_docs {
            return Err("block's last docID outside the segment's documents");
        }
        if b.offset as usize + b.len as usize > data_len {
            return Err("block offset/len outside the list data area");
        }
        if b.tf_offset > b.len {
            return Err("tf sub-stream offset beyond the block data");
        }
        if b.delta_info.count != b.tf_info.count {
            return Err("docID and tf sub-stream counts disagree");
        }
        if b.first_doc > b.last_doc {
            return Err("block's first docID above its last");
        }
        if prev_last.is_some_and(|p| b.last_doc <= p) {
            return Err("blocks' last docIDs not strictly ascending");
        }
        prev_last = Some(b.last_doc);
    }
    Ok(())
}

/// Where one dictionary entry landed in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryRegions {
    /// Term text + list stats.
    pub header: Range<u64>,
    /// The block-descriptor array.
    pub descriptors: Range<u64>,
    /// The encoded block payload.
    pub payload: Range<u64>,
}

/// Streaming segment writer: the header and document lengths go out on
/// construction (so the term count is declared up front), then one
/// dictionary entry per [`SegmentWriter::push_term`], then the checksum
/// trailer on [`SegmentWriter::finish`] — a producer holds one encoded
/// list at a time, never a segment's worth.
#[derive(Debug)]
pub(crate) struct SegmentWriter<W: Write> {
    w: HashingWriter<W>,
    n_docs: u32,
    terms_left: u32,
    prev: Option<String>,
    /// The entry header and descriptors being assembled, which go out
    /// as one `put`.
    entry: Vec<u8>,
}

impl<W: Write> SegmentWriter<W> {
    /// Starts a segment of `n_terms` terms over the documents
    /// `doc_base..doc_base + doc_lens.len()`; `doc_lens` are their final
    /// token counts.
    ///
    /// # Errors
    ///
    /// [`IoError::Invalid`] for a segment with no documents;
    /// [`IoError::Io`] on write failure.
    pub(crate) fn new(
        writer: W,
        doc_base: u32,
        doc_lens: &[u32],
        params: Bm25Params,
        n_terms: u32,
    ) -> Result<Self, IoError> {
        if doc_lens.is_empty() {
            return Err(IoError::Invalid(crate::Error::InvalidQuery {
                reason: "cannot write a segment with no documents".into(),
            }));
        }
        let n_docs = u32::try_from(doc_lens.len())
            .map_err(|_| IoError::Corrupt("segment has more than u32::MAX documents".into()))?;

        let mut w = HashingWriter::new(writer);
        w.put(&SEG_MAGIC)?;
        w.put_u32(SEG_VERSION)?;
        w.put_u32(0)?; // flags
        w.put_u32(doc_base)?;
        w.put_u32(n_docs)?;
        w.put_u32(n_terms)?;
        w.put_f32(params.k1)?;
        w.put_f32(params.b)?;
        w.put_u32(0)?; // reserved
        for &len in doc_lens {
            w.put_u32(len)?;
        }
        Ok(SegmentWriter {
            w,
            n_docs,
            terms_left: n_terms,
            prev: None,
            entry: Vec::new(),
        })
    }

    /// Appends the next dictionary entry. Terms must arrive in strictly
    /// increasing lexical order (byte-wise, as `str` compares), and
    /// `list`'s docIDs must be segment-local.
    ///
    /// # Errors
    ///
    /// [`IoError::Invalid`] for a term out of order, too long or past
    /// the declared count, a docID outside `0..n_docs`, descriptors that
    /// do not describe the list's payload (`check_descriptors`), or a
    /// list too large for the format's `u32` fields; [`IoError::Io`] on
    /// write failure.
    pub(crate) fn push_term(
        &mut self,
        term: &str,
        list: ListView<'_>,
    ) -> Result<EntryRegions, IoError> {
        if self.terms_left == 0 {
            return Err(IoError::Invalid(crate::Error::InvalidQuery {
                reason: format!("term {term:?} is past the segment's declared term count"),
            }));
        }
        if self.prev.as_deref().is_some_and(|p| p >= term) {
            return Err(IoError::Invalid(crate::Error::DuplicateTerm {
                term: term.to_owned(),
            }));
        }
        let term_len = term_len(term).map_err(IoError::Invalid)?;
        check_descriptors(list.blocks, list.data.len(), self.n_docs)
            .map_err(|reason| IoError::Invalid(crate::Error::CorruptMetadata { reason }))?;
        let n_blocks = field_u32(list.blocks.len(), "block count")?;
        let data_len = field_u32(list.data.len(), "payload length")?;

        let (w, entry) = (&mut self.w, &mut self.entry);
        let entry_start = w.written();
        entry.clear();
        entry.extend_from_slice(&term_len.to_le_bytes());
        entry.extend_from_slice(term.as_bytes());
        entry.push(scheme_tag(list.stats.scheme));
        entry.extend_from_slice(&list.stats.df.to_le_bytes());
        entry.extend_from_slice(&list.stats.idf.to_le_bytes());
        entry.extend_from_slice(&list.stats.max_score.to_le_bytes());
        entry.extend_from_slice(&n_blocks.to_le_bytes());
        entry.extend_from_slice(&data_len.to_le_bytes());

        let desc_start = entry_start + entry.len() as u64;
        for b in list.blocks {
            entry.extend_from_slice(&b.first_doc.to_le_bytes());
            entry.extend_from_slice(&b.last_doc.to_le_bytes());
            entry.extend_from_slice(&b.max_score.to_le_bytes());
            entry.extend_from_slice(&b.offset.to_le_bytes());
            entry.extend_from_slice(&b.len.to_le_bytes());
            entry.extend_from_slice(&b.tf_offset.to_le_bytes());
            for info in [b.delta_info, b.tf_info] {
                entry.extend_from_slice(&info.count.to_le_bytes());
                entry.push(info.bit_width);
                entry.extend_from_slice(&info.exception_offset.to_le_bytes());
            }
        }
        w.put(entry)?;

        let data_start = w.written();
        w.put(list.data)?;

        self.terms_left -= 1;
        let prev = self.prev.get_or_insert_default();
        prev.clear();
        prev.push_str(term);
        Ok(EntryRegions {
            header: entry_start..desc_start,
            descriptors: desc_start..data_start,
            payload: data_start..self.w.written(),
        })
    }

    /// Writes the checksum trailer, flushes, and returns the file's
    /// total size in bytes.
    ///
    /// # Errors
    ///
    /// [`IoError::Invalid`] if fewer terms were pushed than declared;
    /// [`IoError::Io`] on write failure.
    pub(crate) fn finish(mut self) -> Result<u64, IoError> {
        if self.terms_left != 0 {
            return Err(IoError::Invalid(crate::Error::InvalidQuery {
                reason: format!(
                    "segment is {} terms short of its declared term count",
                    self.terms_left
                ),
            }));
        }
        let checksum = self.w.sum.digest();
        self.w.inner.write_all(&checksum.to_le_bytes())?;
        self.w.inner.flush()?;
        Ok(self.w.written() + SEG_CHECKSUM_BYTES)
    }
}

/// Writes one sealed segment through a `SegmentWriter`. `terms` must
/// be in strictly increasing lexical order (byte-wise, as `str`
/// compares) with every list's docIDs segment-local; `doc_lens` are the
/// final per-document token counts of the segment's documents.
///
/// Returns the total bytes written and the region map for targeted
/// corruption testing.
///
/// # Errors
///
/// [`IoError::Invalid`] if the segment would be structurally invalid
/// (no documents, a term out of order or too long, a docID outside
/// `0..n_docs`, a list too large for the format); [`IoError::Io`] on
/// write failure.
pub fn write_segment<W: Write>(
    writer: W,
    doc_base: u32,
    doc_lens: &[u32],
    params: Bm25Params,
    terms: &[(String, EncodedList)],
) -> Result<(u64, SegmentRegions), IoError> {
    let n_terms = u32::try_from(terms.len())
        .map_err(|_| IoError::Corrupt("segment has more than u32::MAX terms".into()))?;
    let mut w = SegmentWriter::new(writer, doc_base, doc_lens, params, n_terms)?;
    let doc_lens_end = SEG_HEADER_BYTES + 4 * doc_lens.len() as u64;
    let mut regions = SegmentRegions {
        header: 0..SEG_HEADER_BYTES,
        doc_lens: SEG_HEADER_BYTES..doc_lens_end,
        ..SegmentRegions::default()
    };
    for (term, list) in terms {
        let entry = w.push_term(term, list.view())?;
        regions.term_headers.push(entry.header);
        regions.descriptors.push(entry.descriptors);
        regions.payloads.push(entry.payload);
    }
    let bytes = w.finish()?;
    regions.checksum = bytes - SEG_CHECKSUM_BYTES..bytes;
    Ok((bytes, regions))
}

/// Size of a dictionary entry's fixed fields after the term text:
/// scheme u8 | df u32 | idf f32 | max_score f32 | n_blocks u32 |
/// data_len u32.
const ENTRY_STATS_BYTES: usize = 1 + 5 * 4;

/// Little-endian field cursor over bytes already read (and hashed) from
/// the segment. Callers size the slice to the fields they take.
struct FieldReader<'a>(&'a [u8]);

impl FieldReader<'_> {
    fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let (field, rest) = self.0.split_at(N);
        self.0 = rest;
        let mut out = [0u8; N];
        out.copy_from_slice(field);
        out
    }

    fn u8(&mut self) -> u8 {
        self.bytes::<1>()[0]
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.bytes())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.bytes())
    }

    fn f32(&mut self) -> f32 {
        f32::from_le_bytes(self.bytes())
    }
}

/// `Read` adapter that maintains the running checksum and the number of
/// bytes consumed.
#[derive(Debug)]
struct HashingReader<R: Read> {
    inner: R,
    sum: WordSum,
}

impl<R: Read> HashingReader<R> {
    /// Bytes consumed so far.
    fn consumed(&self) -> u64 {
        self.sum.len
    }

    fn take(&mut self, buf: &mut [u8]) -> Result<(), IoError> {
        self.inner
            .read_exact(buf)
            .map_err(|e| IoError::Corrupt(format!("segment truncated: {e}")))?;
        self.sum.update(buf);
        Ok(())
    }
}

/// Streaming segment reader: parses the header and doc-length array up
/// front, then yields `(term, list)` pairs one at a time so a k-way merge
/// holds one term per open segment, never a whole segment.
///
/// The checksum trailer is verified when the last term has been consumed;
/// until then, per-field validation (claim caps, monotone terms, df
/// bounds, `check_descriptors`) catches structural corruption early.
#[derive(Debug)]
pub struct SegmentReader<R: Read> {
    r: HashingReader<R>,
    input_len: u64,
    header: SegmentHeader,
    doc_lens: Vec<u32>,
    terms_left: u32,
    /// The current dictionary entry — the last one [`SegmentReader::advance`]
    /// read and validated — in buffers reused from entry to entry; `None`
    /// before the first and after the last. The term stays in `term` as
    /// the one the next must sort after.
    current: Option<ListStats>,
    term: String,
    blocks: Vec<BlockMeta>,
    data: Vec<u8>,
    /// Raw bytes of the term or descriptor run being parsed.
    raw: Vec<u8>,
    verified: bool,
}

impl<R: Read> SegmentReader<R> {
    /// Opens a segment from `reader`; `input_len` is the total byte size
    /// of the underlying input (file length), used to cap every claimed
    /// allocation against reality.
    ///
    /// # Errors
    ///
    /// [`IoError::BadMagic`] / [`IoError::BadVersion`] for foreign files,
    /// [`IoError::Corrupt`] for truncation or implausible counts.
    pub fn new(reader: R, input_len: u64) -> Result<Self, IoError> {
        let mut r = HashingReader {
            inner: reader,
            sum: WordSum::new(),
        };
        let mut magic = [0u8; 8];
        r.take(&mut magic)?;
        if magic != SEG_MAGIC {
            return Err(IoError::BadMagic);
        }
        let mut sr = SegmentReader {
            r,
            input_len,
            header: SegmentHeader {
                doc_base: 0,
                n_docs: 0,
                n_terms: 0,
                params: Bm25Params::default(),
            },
            doc_lens: Vec::new(),
            terms_left: 0,
            current: None,
            term: String::new(),
            blocks: Vec::new(),
            data: Vec::new(),
            raw: Vec::new(),
            verified: false,
        };
        let version = sr.read_u32()?;
        if version != SEG_VERSION {
            return Err(IoError::BadVersion { found: version });
        }
        let _flags = sr.read_u32()?;
        let doc_base = sr.read_u32()?;
        let n_docs = sr.read_u32()?;
        let n_terms = sr.read_u32()?;
        let k1 = sr.read_f32()?;
        let b = sr.read_f32()?;
        let _reserved = sr.read_u32()?;
        if n_docs == 0 {
            return Err(IoError::Corrupt("segment claims zero documents".into()));
        }
        sr.check_claim(u64::from(n_docs) * 4, "doc_lens array")?;
        // Each term entry costs ≥ 2 + 1 + 4 + 4 + 4 + 4 + 4 bytes.
        sr.check_claim(u64::from(n_terms) * 23, "term dictionary")?;
        sr.header = SegmentHeader {
            doc_base,
            n_docs,
            n_terms,
            params: Bm25Params { k1, b },
        };
        sr.doc_lens = Vec::with_capacity(n_docs as usize);
        for _ in 0..n_docs {
            let len = sr.read_u32()?;
            sr.doc_lens.push(len);
        }
        sr.terms_left = n_terms;
        Ok(sr)
    }

    /// The parsed segment header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// Per-document token counts (segment-local docIDs).
    pub fn doc_lens(&self) -> &[u32] {
        &self.doc_lens
    }

    /// The most blocks and payload bytes the segment's lists can hold in
    /// all, going by the size of the input: each block has its
    /// descriptor in it, each payload byte is one of its bytes.
    pub(crate) fn list_bounds(&self) -> (usize, usize) {
        let len = usize::try_from(self.input_len).unwrap_or(usize::MAX);
        (len / SEG_DESCRIPTOR_BYTES as usize, len)
    }

    /// Rejects any on-disk claim that exceeds the bytes actually left in
    /// the input — the rule that keeps corrupt counts from ever reaching
    /// an allocator.
    fn check_claim(&self, claimed: u64, what: &str) -> Result<(), IoError> {
        let remaining = self.input_len.saturating_sub(self.r.consumed());
        if claimed > remaining {
            return Err(IoError::Corrupt(format!(
                "{what} claims {claimed} bytes but only {remaining} remain in the segment"
            )));
        }
        Ok(())
    }

    fn read_u16(&mut self) -> Result<u16, IoError> {
        let mut b = [0u8; 2];
        self.r.take(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    fn read_u32(&mut self) -> Result<u32, IoError> {
        let mut b = [0u8; 4];
        self.r.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_f32(&mut self) -> Result<f32, IoError> {
        let mut b = [0u8; 4];
        self.r.take(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Reads the next dictionary term and its encoded list — a copy with
    /// a store to itself — or `None` after the last term, at which point
    /// the checksum trailer has been read and verified.
    ///
    /// # Errors
    ///
    /// [`IoError::Corrupt`] on any structural violation: claims beyond
    /// the file size, terms out of lexical order, invalid UTF-8, df
    /// above the segment's document count, descriptor counts that do not
    /// sum to df, descriptors that do not describe the entry's payload,
    /// or a checksum mismatch.
    pub fn next_term(&mut self) -> Result<Option<(String, EncodedList)>, IoError> {
        self.advance()?;
        Ok(self
            .current()
            .map(|(term, list)| (term.to_owned(), EncodedList::copy_of(list))))
    }

    /// The entry the last [`SegmentReader::advance`] read, borrowed from
    /// the reader's buffers; `None` once the segment is drained.
    pub(crate) fn current(&self) -> Option<(&str, ListView<'_>)> {
        let stats = self.current?;
        let list = ListView {
            stats,
            blocks: &self.blocks,
            data: &self.data,
        };
        Some((&self.term, list))
    }

    /// Reads and validates the next dictionary entry into the reader's
    /// buffers, making it [`SegmentReader::current`] — [`SegmentReader::next_term`]
    /// without the copy. After the last entry the checksum trailer is
    /// read and verified and there is no current entry.
    ///
    /// # Errors
    ///
    /// As for [`SegmentReader::next_term`]; there is no current entry
    /// after an error.
    pub(crate) fn advance(&mut self) -> Result<(), IoError> {
        self.current = None;
        if self.terms_left == 0 {
            if !self.verified {
                let expect = self.r.sum.digest();
                let mut tail = [0u8; 8];
                self.r
                    .inner
                    .read_exact(&mut tail)
                    .map_err(|e| IoError::Corrupt(format!("segment checksum missing: {e}")))?;
                if u64::from_le_bytes(tail) != expect {
                    return Err(IoError::Corrupt(
                        "segment checksum mismatch (file corrupted)".into(),
                    ));
                }
                // The trailer must also be the end of the file: trailing
                // bytes mean a truncated rewrite or concatenation bug,
                // and silently ignoring them would let a corrupt image
                // pass the checksum.
                let consumed = self.r.consumed() + SEG_CHECKSUM_BYTES;
                if consumed < self.input_len {
                    return Err(IoError::Corrupt(format!(
                        "{} trailing bytes after the segment checksum",
                        self.input_len - consumed
                    )));
                }
                self.verified = true;
            }
            return Ok(());
        }
        let first = self.terms_left == self.header.n_terms;
        self.terms_left -= 1;

        // The term text and the fixed tail of the entry header, one read.
        let term_len = usize::from(self.read_u16()?);
        self.check_claim((term_len + ENTRY_STATS_BYTES) as u64, "term entry")?;
        self.raw.resize(term_len + ENTRY_STATS_BYTES, 0);
        self.r.take(&mut self.raw)?;
        let (text, stats) = self.raw.split_at(term_len);
        let term = std::str::from_utf8(text)
            .map_err(|_| IoError::Corrupt("term text is not valid UTF-8".into()))?;
        if !first && self.term.as_str() >= term {
            return Err(IoError::Corrupt(format!(
                "segment dictionary out of lexical order at term {term:?}"
            )));
        }
        self.term.clear();
        self.term.push_str(term);

        let mut stats = FieldReader(stats);
        let scheme_tag = stats.u8();
        let scheme = scheme_from_tag(scheme_tag)
            .ok_or_else(|| IoError::Corrupt(format!("unknown scheme tag {scheme_tag}")))?;
        let df = stats.u32();
        let idf = stats.f32();
        let max_score = stats.f32();
        let n_blocks = stats.u32();
        let data_len = stats.u32();

        if df == 0 || df > self.header.n_docs {
            return Err(IoError::Corrupt(format!(
                "term {:?} claims df {df} in a {}-doc segment",
                self.term, self.header.n_docs
            )));
        }
        if u64::from(n_blocks) > u64::from(df) {
            return Err(IoError::Corrupt(format!(
                "term {:?} claims {n_blocks} blocks for {df} postings",
                self.term
            )));
        }
        self.check_claim(
            u64::from(n_blocks) * SEG_DESCRIPTOR_BYTES + u64::from(data_len),
            "posting blocks",
        )?;

        // The whole descriptor run, one read (capped by the claim check
        // above).
        self.raw
            .resize(n_blocks as usize * SEG_DESCRIPTOR_BYTES as usize, 0);
        self.r.take(&mut self.raw)?;
        self.blocks.clear();
        self.blocks.reserve(n_blocks as usize);
        let mut count_sum = 0u64;
        for desc in self.raw.chunks_exact(SEG_DESCRIPTOR_BYTES as usize) {
            let mut desc = FieldReader(desc);
            let first_doc = desc.u32();
            let last_doc = desc.u32();
            let bmax = desc.f32();
            let offset = desc.u32();
            let len = desc.u32();
            let tf_offset = desc.u32();
            let mut infos = [BlockInfo::default(); 2];
            for info in &mut infos {
                info.count = desc.u16();
                info.bit_width = desc.u8();
                info.exception_offset = desc.u16();
            }
            count_sum += u64::from(infos[0].count);
            self.blocks.push(BlockMeta {
                first_doc,
                last_doc,
                max_score: bmax,
                offset,
                len,
                tf_offset,
                delta_info: infos[0],
                tf_info: infos[1],
            });
        }
        if count_sum != u64::from(df) {
            return Err(IoError::Corrupt(format!(
                "term {:?} descriptors hold {count_sum} postings, dictionary says {df}",
                self.term
            )));
        }
        check_descriptors(&self.blocks, data_len as usize, self.header.n_docs)
            .map_err(|reason| IoError::Corrupt(format!("term {:?}: {reason}", self.term)))?;

        self.data.resize(data_len as usize, 0);
        self.r.take(&mut self.data)?;

        self.current = Some(ListStats {
            scheme,
            df,
            idf,
            max_score,
        });
        Ok(())
    }
}

/// Opens a segment file as a streaming reader.
///
/// # Errors
///
/// As for [`SegmentReader::new`], plus I/O failures opening the file.
pub(crate) fn open_segment(
    path: impl AsRef<Path>,
) -> Result<SegmentReader<std::io::BufReader<std::fs::File>>, IoError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    SegmentReader::new(std::io::BufReader::new(file), len)
}

/// Loads one segment file as a standalone [`InvertedIndex`] over its own
/// docID range (docIDs are segment-local; add the header's `doc_base`
/// for global IDs). The checksum trailer is verified.
///
/// # Errors
///
/// As for [`SegmentReader`].
pub fn load_segment(path: impl AsRef<Path>) -> Result<InvertedIndex, IoError> {
    let mut reader = open_segment(path)?;
    let (blocks_bound, data_bound) = reader.list_bounds();
    let mut index =
        IndexAssembler::with_capacity(reader.header.n_terms as usize, 0, blocks_bound, data_bound);
    loop {
        reader.advance()?;
        let Some((term, list)) = reader.current() else {
            break;
        };
        let pushed = index.push(term, |store| {
            store.push(list);
            Ok(list.stats)
        });
        pushed.map_err(IoError::Invalid)?;
    }
    let doc_lens = std::mem::take(&mut reader.doc_lens);
    let (bm25, doc_norms) = scoring_from_lens(reader.header.params, &doc_lens);
    Ok(index.finish(doc_norms, doc_lens, bm25))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{ListEncoder, SchemeChoice};

    /// A small hand-built segment: 3 terms, 6 docs, segment-local scores.
    fn sample_terms(doc_lens: &[u32]) -> Vec<(String, EncodedList)> {
        let (bm25, norms) = scoring_from_lens(Bm25Params::default(), doc_lens);
        let mut out = Vec::new();
        for (name, docs, tfs) in [
            ("alpha", vec![0u32, 2, 5], vec![1u32, 2, 1]),
            ("beta", vec![1, 2], vec![3, 1]),
            ("gamma", vec![0, 1, 2, 3, 4, 5], vec![1, 1, 2, 1, 1, 4]),
        ] {
            let idf = bm25.idf(docs.len() as u32);
            let enc = ListEncoder::new()
                .encode(&docs, &tfs, SchemeChoice::default(), &bm25, idf, &norms)
                .unwrap();
            out.push((name.to_owned(), enc));
        }
        out
    }

    fn sample_segment() -> (Vec<u8>, SegmentRegions) {
        let doc_lens = vec![4u32, 5, 5, 1, 1, 6];
        let terms = sample_terms(&doc_lens);
        let mut buf = Vec::new();
        let (n, regions) = write_segment(&mut buf, 100, &doc_lens, Bm25Params::default(), &terms)
            .expect("write sample segment");
        assert_eq!(n as usize, buf.len());
        (buf, regions)
    }

    #[test]
    fn roundtrip_streaming() {
        let (buf, regions) = sample_segment();
        let mut r = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap();
        assert_eq!(r.header().doc_base, 100);
        assert_eq!(r.header().n_docs, 6);
        assert_eq!(r.header().n_terms, 3);
        assert_eq!(r.doc_lens(), &[4, 5, 5, 1, 1, 6]);

        let doc_lens = vec![4u32, 5, 5, 1, 1, 6];
        let expect = sample_terms(&doc_lens);
        for (name, enc) in &expect {
            let (term, list) = r.next_term().unwrap().expect("term present");
            assert_eq!(&term, name);
            assert_eq!(&list, enc, "lists roundtrip bit-identically");
        }
        assert!(r.next_term().unwrap().is_none(), "checksum verifies");
        assert_eq!(regions.term_headers.len(), 3);
        assert_eq!(regions.checksum.end, buf.len() as u64);
    }

    #[test]
    fn load_as_standalone_index() {
        let dir = std::env::temp_dir().join(format!("boss-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s0.bosseg");
        let (buf, _) = sample_segment();
        std::fs::write(&path, &buf).unwrap();
        let idx = load_segment(&path).unwrap();
        assert_eq!(idx.n_docs(), 6);
        assert_eq!(idx.n_terms(), 3);
        let g = idx.term_id("gamma").unwrap();
        let (docs, tfs) = idx.list(g).decode_all().unwrap();
        assert_eq!(docs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(tfs, vec![1, 1, 2, 1, 1, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let (mut buf, _) = sample_segment();
        buf[0] = b'X';
        let err = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap_err();
        assert!(matches!(err, IoError::BadMagic));

        // Version 1, whose trailer was a byte-serial FNV-1a, included.
        for version in [1, 99] {
            let (mut buf, _) = sample_segment();
            buf[8] = version as u8;
            let err = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap_err();
            assert!(
                matches!(err, IoError::BadVersion { found } if found == version),
                "{err}"
            );
        }
    }

    #[test]
    fn every_single_byte_change_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("boss-seg-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s0.bosseg");
        let (buf, _) = sample_segment();
        for at in 0..buf.len() {
            let mut bytes = buf.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            let err = load_segment(&path).expect_err("a changed byte must not load");
            assert!(!matches!(err, IoError::Io(_)), "byte {at}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_checksum_does_not_depend_on_how_the_bytes_are_split() {
        let (buf, _) = sample_segment();
        let whole = checksum(&buf);
        // A fixed xorshift stream of split points, so a failure repeats.
        let mut x = 0x9e37_79b9_u64;
        for _ in 0..200 {
            let mut sum = WordSum::new();
            let mut rest = buf.as_slice();
            while !rest.is_empty() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (piece, tail) = rest.split_at((x % 20) as usize % (rest.len() + 1));
                sum.update(piece);
                rest = tail;
            }
            assert_eq!(sum.digest(), whole);
        }
        // Zero padding does not hide a length change, nor does a bit-63
        // flip in two consecutive words cancel.
        let padded = [buf.as_slice(), &[0]].concat();
        assert_ne!(checksum(&padded), whole);
        let mut flipped = buf.clone();
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
        assert_ne!(checksum(&flipped), whole);
    }

    #[test]
    fn huge_claimed_doc_count_is_capped_not_allocated() {
        let (mut buf, _) = sample_segment();
        // n_docs field at offset 20: claim 4 billion docs in a 1 KB file.
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap_err();
        assert!(
            matches!(err, IoError::Corrupt(ref m) if m.contains("claims")),
            "{err}"
        );
    }

    #[test]
    fn huge_claimed_term_len_is_capped() {
        let (mut buf, regions) = sample_segment();
        let at = regions.term_headers[0].start as usize;
        buf[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let mut r = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap();
        let err = r.next_term().unwrap_err();
        assert!(matches!(err, IoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn checksum_catches_payload_flip() {
        let (mut buf, regions) = sample_segment();
        // Flip one bit in the last payload: the list may still decode, but
        // the trailer must catch it at end-of-segment.
        let at = regions.payloads.last().unwrap().start as usize;
        buf[at] ^= 0x40;
        let mut r = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap();
        let mut saw_error = false;
        loop {
            match r.next_term() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e, IoError::Corrupt(_)), "{e}");
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "flipped payload bit must not verify");
    }

    #[test]
    fn truncation_is_typed_error() {
        let (buf, _) = sample_segment();
        for cut in [10, 50, buf.len() / 2, buf.len() - 3] {
            let short = &buf[..cut];
            let mut r = match SegmentReader::new(short, short.len() as u64) {
                Ok(r) => r,
                Err(e) => {
                    assert!(
                        matches!(e, IoError::Corrupt(_) | IoError::BadMagic),
                        "cut {cut}: {e}"
                    );
                    continue;
                }
            };
            loop {
                match r.next_term() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("cut {cut}: truncated segment verified"),
                    Err(e) => {
                        assert!(matches!(e, IoError::Corrupt(_)), "cut {cut}: {e}");
                        break;
                    }
                }
            }
        }
    }

    /// One 300-posting term (three blocks) over 600 documents.
    fn three_block_term() -> (Vec<u32>, Vec<(String, EncodedList)>) {
        let doc_lens = vec![7u32; 600];
        let (bm25, norms) = scoring_from_lens(Bm25Params::default(), &doc_lens);
        let docs: Vec<u32> = (0..300).map(|i| 2 * i).collect();
        let tfs: Vec<u32> = (0..300).map(|i| 1 + i % 3).collect();
        let list = ListEncoder::new()
            .encode(
                &docs,
                &tfs,
                SchemeChoice::default(),
                &bm25,
                bm25.idf(300),
                &norms,
            )
            .unwrap();
        (doc_lens, vec![("term".to_owned(), list)])
    }

    fn checksum(bytes: &[u8]) -> u64 {
        let mut sum = WordSum::new();
        sum.update(bytes);
        sum.digest()
    }

    #[test]
    fn descriptors_that_miss_their_list_are_refused_on_both_sides() {
        let (doc_lens, terms) = three_block_term();
        let params = Bm25Params::default();

        // Writing: such a list used to serialize, checksum and load, and
        // fail only at its first decode.
        let mut forged = terms.clone();
        let data_bytes = forged[0].1.data_bytes() as u32;
        let block = &mut forged[0].1.blocks_mut()[0];
        block.offset = data_bytes + 1000;
        block.tf_offset = 1 << 30;
        let err = write_segment(&mut Vec::new(), 0, &doc_lens, params, &forged).unwrap_err();
        assert!(
            matches!(err, IoError::Invalid(crate::Error::CorruptMetadata { .. })),
            "{err}"
        );
        assert_eq!(terms[0].1.blocks()[0].offset, 0, "the clone was detached");

        // Reading: the same fields overwritten in a valid file, the
        // trailer recomputed so that only the descriptor check stands
        // between the entry and its caller.
        let mut valid = Vec::new();
        let (_, regions) = write_segment(&mut valid, 0, &doc_lens, params, &terms).unwrap();
        let blocks = terms[0].1.blocks();
        let desc = |b: usize| regions.descriptors[0].start as usize + b * 34;
        let forgeries: [(&str, usize, Vec<u8>); 7] = [
            (
                "offset",
                desc(0) + 12,
                (data_bytes + 1000).to_le_bytes().into(),
            ),
            (
                "len",
                desc(2) + 16,
                (blocks[2].len + 1).to_le_bytes().into(),
            ),
            ("tf_offset", desc(1) + 20, (1u32 << 30).to_le_bytes().into()),
            (
                "tf_offset",
                desc(1) + 20,
                (blocks[1].len + 1).to_le_bytes().into(),
            ),
            (
                "first_doc",
                desc(0),
                (blocks[0].last_doc + 1).to_le_bytes().into(),
            ),
            (
                "last_doc",
                desc(0) + 4,
                blocks[1].last_doc.to_le_bytes().into(),
            ),
            ("tf count", desc(1) + 29, 127u16.to_le_bytes().into()),
        ];
        for (field, at, value) in forgeries {
            let mut bytes = valid.clone();
            bytes[at..at + value.len()].copy_from_slice(&value);
            let body = bytes.len() - SEG_CHECKSUM_BYTES as usize;
            let trailer = checksum(&bytes[..body]).to_le_bytes();
            bytes[body..].copy_from_slice(&trailer);

            let mut r = SegmentReader::new(bytes.as_slice(), bytes.len() as u64).unwrap();
            let err = r.next_term().unwrap_err();
            assert!(matches!(err, IoError::Corrupt(_)), "{field}: {err}");
            assert_eq!(
                r.r.consumed(),
                regions.descriptors[0].end,
                "{field}: refused before a payload byte was read"
            );
            assert!(r.current().is_none(), "{field}");
        }

        // The untouched file still loads.
        let mut r = SegmentReader::new(valid.as_slice(), valid.len() as u64).unwrap();
        assert_eq!(r.next_term().unwrap().unwrap().1, terms[0].1);
        assert!(r.next_term().unwrap().is_none());
    }

    #[test]
    fn streaming_writer_writes_the_same_bytes() {
        let (expect, regions) = sample_segment();
        let doc_lens = vec![4u32, 5, 5, 1, 1, 6];
        let terms = sample_terms(&doc_lens);

        let mut buf = Vec::new();
        let mut w = SegmentWriter::new(&mut buf, 100, &doc_lens, Bm25Params::default(), 3).unwrap();
        for (i, (term, list)) in terms.iter().enumerate() {
            let entry = w.push_term(term, list.view()).unwrap();
            assert_eq!(entry.header, regions.term_headers[i]);
            assert_eq!(entry.descriptors, regions.descriptors[i]);
            assert_eq!(entry.payload, regions.payloads[i]);
        }
        // One more than declared is refused without a byte written.
        let err = w.push_term("zeta", terms[0].1.view()).unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)), "{err}");
        assert_eq!(w.finish().unwrap() as usize, expect.len());
        assert_eq!(buf, expect);

        // One fewer than declared never gets its checksum.
        let mut w =
            SegmentWriter::new(Vec::new(), 100, &doc_lens, Bm25Params::default(), 3).unwrap();
        w.push_term(&terms[0].0, terms[0].1.view()).unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)), "{err}");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_counts_are_typed_errors_not_truncations() {
        assert_eq!(
            field_u32(u32::MAX as usize, "payload length").unwrap(),
            u32::MAX
        );
        // A 4 GiB + 5 payload used to be written as `data_len` 5.
        let err = field_u32((1usize << 32) + 5, "payload length").unwrap_err();
        assert!(
            matches!(err, IoError::Invalid(crate::Error::InvalidQuery { .. })),
            "{err}"
        );
        let long = "é".repeat(40_000);
        let err = term_len(&long).unwrap_err();
        assert!(matches!(err, crate::Error::InvalidQuery { .. }), "{err}");
        assert_eq!(term_len(&long[..65_534]).unwrap(), 65_534);
    }

    #[test]
    fn writer_rejects_invalid_segments() {
        let doc_lens = vec![4u32, 5, 5, 1, 1, 6];
        let terms = sample_terms(&doc_lens);
        // No documents.
        let err =
            write_segment(&mut Vec::new(), 0, &[], Bm25Params::default(), &terms).unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)));
        // Out-of-order dictionary.
        let mut rev = sample_terms(&doc_lens);
        rev.reverse();
        let err =
            write_segment(&mut Vec::new(), 0, &doc_lens, Bm25Params::default(), &rev).unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)));
        // docIDs outside the segment.
        let err = write_segment(
            &mut Vec::new(),
            0,
            &doc_lens[..2],
            Bm25Params::default(),
            &terms,
        )
        .unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)));
    }
}
