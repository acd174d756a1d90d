//! Memory-bounded SPIMI indexing (single-pass in-memory indexing with
//! spill-and-merge).
//!
//! [`SpimiBuilder`] accumulates postings under a configurable byte
//! budget in one compressed accumulator (`accumulator.rs`): an
//! open-addressed term table over a term-bytes arena, fixed-size slot
//! headers and a shared pool of variable-byte posting runs, so one
//! occurrence costs a table probe and a byte or two appended, and
//! `add_document` makes its lookups in three passes over the document's
//! terms so that they overlap. When the budget (or an optional
//! per-segment document cap) is hit, the slots are sorted once by term
//! and streamed — decode a run, encode it under BP, write its dictionary
//! entry — into an immutable on-disk segment ([`crate::segment`])
//! covering a contiguous docID range, and accumulation restarts empty —
//! so building a corpus of any size needs only the budget plus one
//! posting list's encode scratch.
//!
//! [`SegmentSet::merge`] streams all spilled segments back term-at-a-time
//! (k open segments ⇒ k candidate terms in memory) and re-encodes each
//! merged list against *global* corpus statistics, under
//! [`SpimiConfig::scheme`], through the exact same code path as
//! [`crate::IndexBuilder::build`] ([`crate::ListEncoder`] +
//! `scoring_from_lens`). Spilled segments are therefore transport: their
//! segment-local scores are discarded, and their lists are all BP, the
//! codec cheapest to write and read back, because no spilled encoding
//! survives the merge. The merged index is bit-identical to a
//! single-pass in-memory build of the same corpus: same terms, postings,
//! [`crate::BlockMeta`] records, and block-max scores.

use crate::accumulator::{Accumulator, MAX_ACCUMULATOR_BYTES};
use crate::builder::{fill_doc_lens, scoring_from_lens, tokenize};
use crate::encoded::ListStore;
use crate::index::{IndexAssembler, InvertedIndex};
use crate::io::IoError;
use crate::segment::{open_segment, SegmentReader, SegmentWriter};
use crate::{Bm25Params, DecodeScratch, DocId, Error, ListEncoder, SchemeChoice};
use boss_compress::Scheme;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

/// Name of the segment-directory manifest file.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST.json";

/// Manifest format version.
pub(crate) const MANIFEST_VERSION: u32 = 1;

/// Configuration of a SPIMI build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpimiConfig {
    /// In-memory budget in bytes; reaching it seals the current segment.
    /// Charged against it, as they are handed out: per term its text,
    /// its share of the term table, its slot header and every slice
    /// linked into its compressed posting run (at the slice's capacity,
    /// not the bytes written so far), plus 4 per document for its
    /// length. It is checked after each document, so the peak exceeds it
    /// by at most one document ([`SpimiBuilder::entry_worst_case_bytes`]
    /// per entry). The budget bounds the accumulator only — its vectors'
    /// own growth slack, and the encode scratch during a spill
    /// (proportional to the largest single posting list), are
    /// additional. Budgets above 2 GiB act as 2 GiB: the accumulator
    /// addresses its bytes with `u32` offsets.
    pub budget_bytes: usize,
    /// Optional cap on documents per segment (0 = unlimited). Gives
    /// deterministic segment boundaries independent of the byte budget —
    /// used by tests and `CorpusSpec::build_segments`.
    pub max_docs_per_segment: u32,
    /// BM25 parameters of the final index.
    pub params: Bm25Params,
    /// Compression policy of the index [`SegmentSet::merge`] produces.
    /// Spilled segments do not follow it: they are transport, every list
    /// BP ([`SpimiBuilder::spill`]).
    pub scheme: SchemeChoice,
}

impl Default for SpimiConfig {
    fn default() -> Self {
        SpimiConfig {
            budget_bytes: 64 << 20,
            max_docs_per_segment: 0,
            params: Bm25Params::default(),
            scheme: SchemeChoice::default(),
        }
    }
}

/// Build-time statistics of a SPIMI run — what `segment_build` prints
/// and the harness reports as `index.spimi.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpimiStats {
    /// Documents indexed.
    pub docs: u64,
    /// Postings accumulated (pre-merge).
    pub postings: u64,
    /// Segments spilled to disk.
    pub spills: u32,
    /// Peak estimated bytes of the in-memory accumulator — the
    /// RSS-proxy the byte budget bounds.
    pub peak_inmem_bytes: usize,
    /// Total bytes of all segment files written.
    pub segment_bytes: u64,
}

/// One segment file in a [`SegmentSet`] manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// File name within the segment directory.
    pub file: String,
    /// First global docID of the segment.
    pub doc_base: u32,
    /// Number of documents in the segment.
    pub n_docs: u32,
    /// Number of terms in the segment dictionary.
    pub n_terms: u32,
    /// Total file size in bytes.
    pub bytes: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    params: Bm25Params,
    scheme: String,
    n_docs: u32,
    segments: Vec<SegmentEntry>,
}

/// Single-pass in-memory indexer with bounded memory and disk spills.
#[derive(Debug)]
pub struct SpimiBuilder {
    dir: PathBuf,
    cfg: SpimiConfig,
    /// Every posting of the segment being accumulated; docIDs
    /// segment-local.
    acc: Accumulator,
    /// Token counts of the current segment's documents, an unknown (0)
    /// one already replaced by the document's tf sum — the same fallback
    /// rule as [`crate::IndexBuilder`], valid because a document's
    /// postings are complete when it has been added.
    seg_doc_lens: Vec<u32>,
    doc_base: u32,
    stats: SpimiStats,
    entries: Vec<SegmentEntry>,
    encoder: ListEncoder,
    /// Spill scratch: the slots in term order, one decoded run, and the
    /// store it is encoded into (cleared per term).
    order: Vec<u32>,
    docs: Vec<u32>,
    tfs: Vec<u32>,
    encoded: ListStore,
}

fn docid_space_exhausted() -> IoError {
    IoError::Invalid(Error::InvalidQuery {
        reason: "the u32 docID space is exhausted".into(),
    })
}

impl SpimiBuilder {
    /// Creates a builder spilling segments into `dir` (created if
    /// missing; existing segment files are overwritten by name).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: impl AsRef<Path>, cfg: SpimiConfig) -> Result<Self, IoError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(SpimiBuilder {
            dir,
            cfg,
            acc: Accumulator::new(),
            seg_doc_lens: Vec::new(),
            doc_base: 0,
            stats: SpimiStats::default(),
            entries: Vec::new(),
            encoder: ListEncoder::new(),
            order: Vec::new(),
            docs: Vec::new(),
            tfs: Vec::new(),
            encoded: ListStore::default(),
        })
    }

    /// A builder whose first document gets docID `doc_base`.
    #[cfg(test)]
    fn create_at(dir: impl AsRef<Path>, cfg: SpimiConfig, doc_base: u32) -> Result<Self, IoError> {
        let mut builder = Self::create(dir, cfg)?;
        builder.doc_base = doc_base;
        Ok(builder)
    }

    /// Build statistics so far.
    pub fn stats(&self) -> &SpimiStats {
        &self.stats
    }

    /// The most one `(term, tf)` entry of a document can add to the
    /// in-memory accounting, for a term of `term_len` bytes — so a
    /// document of `n` entries can overshoot
    /// [`SpimiConfig::budget_bytes`] by at most `n` of these plus its 4
    /// length bytes before the post-document check seals the segment.
    pub const fn entry_worst_case_bytes(term_len: usize) -> usize {
        Accumulator::entry_worst_case_bytes(term_len)
    }

    /// Adds one document given its terms with frequencies and its length
    /// in tokens (`0` = unknown; the tf sum is used). Returns the
    /// document's global docID. A term given more than once, adjacent or
    /// not, is aggregated into one posting (its tf saturating at
    /// `u32::MAX`). May spill a segment to disk before returning.
    ///
    /// # Errors
    ///
    /// [`IoError::Invalid`] wrapping [`Error::ZeroTermFrequency`] on a
    /// zero tf, or [`Error::InvalidQuery`] for a term of more than 65535
    /// bytes, a document of more than 2 GiB, or the 2³²-th document —
    /// the document is then not added at all: statistics, accounting and
    /// the next docID are as before the call; I/O and encoding failures
    /// from a triggered spill.
    pub fn add_document<'a, I>(&mut self, terms: I, doc_len: u32) -> Result<DocId, IoError>
    where
        I: IntoIterator<Item = (&'a str, u32)>,
    {
        // Everything that can refuse the document is checked before the
        // accumulator is touched, so there is nothing to roll back.
        let local = self.seg_doc_lens.len() as u32;
        let global = self
            .doc_base
            .checked_add(local)
            .filter(|&id| id < u32::MAX)
            .ok_or_else(docid_space_exhausted)?;
        self.acc.stage(terms).map_err(IoError::Invalid)?;

        let added = self.acc.commit(local);
        let mut len = doc_len;
        fill_doc_lens(std::slice::from_mut(&mut len), &[added.tf_sum]);
        self.seg_doc_lens.push(len);
        self.stats.docs += 1;
        self.stats.postings += added.postings;
        let inmem_bytes = self.acc.bytes() + 4 * self.seg_doc_lens.len();
        self.stats.peak_inmem_bytes = self.stats.peak_inmem_bytes.max(inmem_bytes);

        let doc_cap = self.cfg.max_docs_per_segment;
        if inmem_bytes >= self.cfg.budget_bytes.min(MAX_ACCUMULATOR_BYTES)
            || (doc_cap > 0 && self.seg_doc_lens.len() as u32 >= doc_cap)
        {
            self.spill()?;
        }
        Ok(global)
    }

    /// Tokenizes and adds one document with the tokenizer
    /// [`crate::IndexBuilder::add_documents`] uses.
    ///
    /// # Errors
    ///
    /// As for [`SpimiBuilder::add_document`].
    pub fn add_document_text(&mut self, text: &str) -> Result<DocId, IoError> {
        let tokens: Vec<String> = tokenize(text).collect();
        self.add_document(tokens.iter().map(|t| (t.as_str(), 1)), tokens.len() as u32)
    }

    /// Seals the in-memory accumulator into an on-disk segment. No-op if
    /// no documents have been added since the last spill.
    ///
    /// Every list is written under [`Scheme::Bp`], whatever
    /// [`SpimiConfig::scheme`] says: a spilled segment is transport, which
    /// [`SegmentSet::merge`] decodes and re-encodes under that scheme, and
    /// BP is the cheapest codec to encode and decode and holds any `u32`.
    /// A list the final scheme cannot hold (Simple16 and a gap or a
    /// `tf - 1` of 2²⁸ or more) is therefore refused by `merge`, not here.
    ///
    /// # Errors
    ///
    /// I/O failures writing the segment file. The builder is then as it
    /// was before the call — the documents stay accumulated for the next
    /// spill — and the partly written file is removed.
    pub fn spill(&mut self) -> Result<(), IoError> {
        if self.seg_doc_lens.is_empty() {
            return Ok(());
        }
        let n_docs = self.seg_doc_lens.len() as u32;
        let next_base = self
            .doc_base
            .checked_add(n_docs)
            .ok_or_else(docid_space_exhausted)?;
        let n_terms = self.acc.n_terms() as u32;
        let file = format!("segment-{:05}.bosseg", self.entries.len());
        let path = self.dir.join(&file);
        let bytes = match self.write_spill(&path, n_terms) {
            Ok(bytes) => bytes,
            Err(e) => {
                std::fs::remove_file(&path).ok();
                return Err(e);
            }
        };

        self.entries.push(SegmentEntry {
            file,
            doc_base: self.doc_base,
            n_docs,
            n_terms,
            bytes,
        });
        self.acc.clear();
        self.seg_doc_lens.clear();
        self.doc_base = next_base;
        self.stats.spills += 1;
        self.stats.segment_bytes += bytes;
        Ok(())
    }

    /// Writes the accumulated segment of `n_terms` terms to `path` under
    /// segment-local scoring, leaving the accumulator as it was, and
    /// returns the file's size.
    fn write_spill(&mut self, path: &Path, n_terms: u32) -> Result<u64, IoError> {
        let (bm25, norms) = scoring_from_lens(self.cfg.params, &self.seg_doc_lens);
        let out = std::fs::File::create(path)?;
        let mut writer = SegmentWriter::new(
            std::io::BufWriter::new(out),
            self.doc_base,
            &self.seg_doc_lens,
            self.cfg.params,
            n_terms,
        )?;
        // The dictionary's lexical order is produced here, once per
        // segment, rather than maintained per occurrence; each term is
        // then decoded, encoded and written before the next is touched.
        self.acc.sorted_slots(&mut self.order);
        for &slot in &self.order {
            self.acc.decode(slot, &mut self.docs, &mut self.tfs);
            let idf = bm25.idf(self.docs.len() as u32);
            self.encoded.clear();
            let stats = self
                .encoder
                .encode_into(
                    &mut self.encoded,
                    &self.docs,
                    &self.tfs,
                    SchemeChoice::Fixed(Scheme::Bp),
                    &bm25,
                    idf,
                    &norms,
                )
                .map_err(IoError::Invalid)?;
            let term = std::str::from_utf8(self.acc.term(slot))
                .map_err(|e| IoError::Corrupt(format!("accumulated term is not UTF-8: {e}")))?;
            writer.push_term(term, self.encoded.view(0, stats))?;
        }
        writer.finish()
    }

    /// Spills any remaining documents, writes the directory manifest,
    /// and returns the sealed [`SegmentSet`].
    ///
    /// # Errors
    ///
    /// [`IoError::Invalid`] if no documents were ever added; spill and
    /// manifest I/O failures otherwise.
    pub fn finish(mut self) -> Result<SegmentSet, IoError> {
        self.spill()?;
        if self.entries.is_empty() {
            return Err(IoError::Invalid(Error::InvalidQuery {
                reason: "cannot build an empty index".into(),
            }));
        }
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            params: self.cfg.params,
            scheme: self.cfg.scheme.to_string(),
            n_docs: self.doc_base,
            segments: self.entries.clone(),
        };
        let body = serde_json::to_vec(&manifest).map_err(|e| IoError::Corrupt(e.to_string()))?;
        let mut f = std::fs::File::create(self.dir.join(MANIFEST_NAME))?;
        f.write_all(&body)?;
        f.flush()?;
        Ok(SegmentSet {
            dir: self.dir,
            params: self.cfg.params,
            scheme: self.cfg.scheme,
            n_docs: self.doc_base,
            entries: self.entries,
            stats: self.stats,
        })
    }
}

/// Index of the reader whose current entry holds the lexically smallest
/// term — the lowest such index when several segments hold it — or
/// `None` once every segment is drained.
fn min_head<R: std::io::Read>(readers: &[SegmentReader<R>]) -> Option<usize> {
    let mut min: Option<(usize, &str)> = None;
    for (i, reader) in readers.iter().enumerate() {
        if let Some((term, _)) = reader.current() {
            if min.is_none_or(|(_, m)| term < m) {
                min = Some((i, term));
            }
        }
    }
    min.map(|(i, _)| i)
}

/// A sealed directory of spilled segments plus its manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSet {
    dir: PathBuf,
    params: Bm25Params,
    scheme: SchemeChoice,
    n_docs: u32,
    entries: Vec<SegmentEntry>,
    stats: SpimiStats,
}

impl SegmentSet {
    /// Opens a segment directory written by [`SpimiBuilder::finish`],
    /// validating that the manifest's segments tile the docID space
    /// contiguously from zero.
    ///
    /// # Errors
    ///
    /// [`IoError::Corrupt`] on a malformed manifest, a gap or overlap in
    /// the docID ranges, or a manifest/total mismatch.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, IoError> {
        let dir = dir.as_ref().to_path_buf();
        let body = std::fs::read(dir.join(MANIFEST_NAME))?;
        let manifest: Manifest = serde_json::from_slice(&body)
            .map_err(|e| IoError::Corrupt(format!("bad segment manifest: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(IoError::BadVersion {
                found: manifest.version,
            });
        }
        let scheme: SchemeChoice = manifest
            .scheme
            .parse()
            .map_err(|e| IoError::Corrupt(format!("bad segment manifest: {e}")))?;
        if manifest.segments.is_empty() {
            return Err(IoError::Corrupt(
                "segment manifest lists no segments".into(),
            ));
        }
        let mut next_base = 0u32;
        for e in &manifest.segments {
            if e.doc_base != next_base || e.n_docs == 0 {
                return Err(IoError::Corrupt(format!(
                    "segment {} does not tile the docID space: doc_base {} (expected {next_base}), n_docs {}",
                    e.file, e.doc_base, e.n_docs
                )));
            }
            next_base = next_base
                .checked_add(e.n_docs)
                .ok_or_else(|| IoError::Corrupt("segment docID ranges overflow u32".into()))?;
        }
        if next_base != manifest.n_docs {
            return Err(IoError::Corrupt(format!(
                "segment manifest claims {} docs but segments cover {next_base}",
                manifest.n_docs
            )));
        }
        Ok(SegmentSet {
            dir,
            params: manifest.params,
            scheme,
            n_docs: manifest.n_docs,
            entries: manifest.segments,
            stats: SpimiStats::default(),
        })
    }

    /// The manifest's segment entries, in docID order.
    pub fn entries(&self) -> &[SegmentEntry] {
        &self.entries
    }

    /// Build statistics (zeroed for a set opened from disk).
    pub fn stats(&self) -> &SpimiStats {
        &self.stats
    }

    /// k-way streaming merge of all segments into one [`InvertedIndex`]
    /// bit-identical to a single-pass in-memory build of the same corpus
    /// with the same parameters and scheme policy.
    ///
    /// Memory: the global doc-length/norm arrays (the final index holds
    /// these anyway) plus one in-flight term per open segment.
    ///
    /// # Errors
    ///
    /// [`IoError::Corrupt`] on any structural violation in a segment
    /// file (including checksum mismatch at segment end) or a
    /// header/manifest disagreement; [`IoError::Invalid`] if merged
    /// postings fail index invariants or a merged list cannot be encoded
    /// under a fixed scheme (Simple16 and a gap or a `tf - 1` of 2²⁸ or
    /// more — the spills, all BP, took it).
    pub fn merge(&self) -> Result<InvertedIndex, IoError> {
        // Open every segment and pull the global doc-length array
        // together from the per-segment headers.
        let mut readers: Vec<SegmentReader<BufReader<std::fs::File>>> =
            Vec::with_capacity(self.entries.len());
        let mut doc_lens: Vec<u32> = Vec::with_capacity(self.n_docs as usize);
        for e in &self.entries {
            let r = open_segment(self.dir.join(&e.file))?;
            let h = *r.header();
            if h.doc_base != e.doc_base || h.n_docs != e.n_docs || h.n_terms != e.n_terms {
                return Err(IoError::Corrupt(format!(
                    "segment {} header disagrees with the manifest",
                    e.file
                )));
            }
            if h.params != self.params {
                return Err(IoError::Corrupt(format!(
                    "segment {} was built with different BM25 parameters",
                    e.file
                )));
            }
            doc_lens.extend_from_slice(r.doc_lens());
            readers.push(r);
        }
        let (bm25, doc_norms) = scoring_from_lens(self.params, &doc_lens);

        for r in &mut readers {
            r.advance()?;
        }

        // Sized for the segments' terms and lists side by side (the
        // manifest's term counts were checked against the headers above):
        // merging two segments' lists for a term makes one term of them,
        // in no more blocks than the two had and about the same bytes.
        let n_terms = self.entries.iter().map(|e| e.n_terms as usize).sum();
        let (mut blocks_bound, mut data_bound) = (0usize, 0usize);
        for r in &readers {
            let (blocks, data) = r.list_bounds();
            blocks_bound = blocks_bound.saturating_add(blocks);
            data_bound = data_bound.saturating_add(data);
        }
        let mut index = IndexAssembler::with_capacity(n_terms, 0, blocks_bound, data_bound);
        let mut scratch = DecodeScratch::new();
        let mut encoder = ListEncoder::new();
        let mut text = String::new();
        let mut docs: Vec<u32> = Vec::new();
        let mut tfs: Vec<u32> = Vec::new();

        // The smallest in-flight term is the next one in the merged
        // (lexically ordered) dictionary — exactly the order the
        // in-memory builder's BTreeMap would visit it.
        while let Some(first) = min_head(&readers) {
            docs.clear();
            tfs.clear();
            text.clear();
            // Contributing segments in docID order (entries tile the
            // docID space ascending, and no reader before `first` holds
            // the term), so concatenation is the sorted global posting
            // list.
            let segments = readers.iter_mut().zip(&self.entries).enumerate();
            for (at, (reader, entry)) in segments.skip(first) {
                let Some((term, list)) = reader.current() else {
                    continue;
                };
                if at == first {
                    text.push_str(term);
                } else if term != text {
                    continue;
                }
                list.decode_all_into(&mut scratch)
                    .map_err(IoError::Invalid)?;
                if scratch.docs.last().is_some_and(|&d| d >= entry.n_docs) {
                    return Err(IoError::Corrupt(format!(
                        "segment {} term {term:?} decodes docIDs outside its {}-doc range",
                        entry.file, entry.n_docs
                    )));
                }
                docs.extend(scratch.docs.iter().map(|&d| entry.doc_base + d));
                tfs.extend_from_slice(&scratch.tfs);
                reader.advance()?;
            }

            let idf = bm25.idf(docs.len() as u32);
            let pushed = index.push(&text, |store| {
                encoder.encode_into(store, &docs, &tfs, self.scheme, &bm25, idf, &doc_norms)
            });
            pushed.map_err(IoError::Invalid)?;
        }

        // Drain to the checksum trailer of any segment that still has
        // one (every reader is drained here, so each has already
        // verified its trailer in `advance` — this is just a belt check).
        for (r, e) in readers.iter_mut().zip(&self.entries) {
            r.advance()?;
            if r.current().is_some() {
                return Err(IoError::Corrupt(format!(
                    "segment {} yielded terms past its dictionary",
                    e.file
                )));
            }
        }

        Ok(index.finish(doc_norms, doc_lens, bm25))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{IndexBuilder, PostingList};
    use std::collections::BTreeMap;

    /// A scratch directory of this test process that no other call shares
    /// (tests run on parallel threads, and several build with the same
    /// arguments), removed on drop.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new() -> Self {
            static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let d = std::env::temp_dir().join(format!("boss-spimi-{}-{n}", std::process::id()));
            std::fs::remove_dir_all(&d).ok();
            TmpDir(d)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    const DOCS: &[&str] = &[
        "the cat sat on the mat",
        "the dog sat",
        "a cat and a dog and a bird",
        "storage class memory holds the index",
        "bandwidth optimized search accelerator",
        "the index lives in storage class memory",
        "a bird sat on the accelerator",
    ];

    fn spimi_index(max_docs: u32, budget: usize) -> (SegmentSet, InvertedIndex, TmpDir) {
        let dir = TmpDir::new();
        let cfg = SpimiConfig {
            budget_bytes: budget,
            max_docs_per_segment: max_docs,
            ..SpimiConfig::default()
        };
        let mut b = SpimiBuilder::create(&dir.0, cfg).unwrap();
        for d in DOCS {
            b.add_document_text(d).unwrap();
        }
        let set = b.finish().unwrap();
        let merged = set.merge().unwrap();
        (set, merged, dir)
    }

    fn inmem_index() -> InvertedIndex {
        IndexBuilder::new()
            .add_documents(DOCS.iter().copied())
            .build()
            .unwrap()
    }

    #[test]
    fn single_segment_merge_is_bit_identical() {
        let (set, merged, _dir) = spimi_index(0, usize::MAX >> 1);
        assert_eq!(set.entries().len(), 1);
        assert_eq!(merged, inmem_index());
    }

    #[test]
    fn multi_segment_merge_is_bit_identical() {
        for max_docs in [1, 2, 3] {
            let (set, merged, _dir) = spimi_index(max_docs, usize::MAX >> 1);
            assert_eq!(
                set.entries().len(),
                DOCS.len().div_ceil(max_docs as usize),
                "doc cap {max_docs}"
            );
            assert_eq!(merged, inmem_index(), "doc cap {max_docs}");
        }
    }

    #[test]
    fn byte_budget_forces_spills() {
        let (set, merged, _dir) = spimi_index(0, 256);
        assert!(
            set.stats().spills >= 2,
            "a 256-byte budget must spill repeatedly: {:?}",
            set.stats()
        );
        assert!(
            set.stats().peak_inmem_bytes < 256 + 512,
            "budget bounds the map"
        );
        assert_eq!(merged, inmem_index());
    }

    #[test]
    fn reopen_from_manifest_matches() {
        let (set, merged, _dir) = spimi_index(3, usize::MAX >> 1);
        let reopened = SegmentSet::open_dir(&set.dir).unwrap();
        assert_eq!(reopened.n_docs, set.n_docs);
        assert_eq!(reopened.entries(), set.entries());
        assert_eq!(reopened.merge().unwrap(), merged);
    }

    #[test]
    fn open_dir_rejects_gapped_manifest() {
        let (set, _, _dir) = spimi_index(2, usize::MAX >> 1);
        let path = set.dir.join(MANIFEST_NAME);
        let body = std::fs::read_to_string(&path).unwrap();
        // Shift the second segment's doc_base to punch a hole (tolerate
        // either JSON spacing style).
        let broken = body
            .replacen("\"doc_base\":2", "\"doc_base\":3", 1)
            .replacen("\"doc_base\": 2", "\"doc_base\": 3", 1);
        assert_ne!(body, broken, "manifest edit must apply");
        std::fs::write(&path, broken).unwrap();
        let err = SegmentSet::open_dir(&set.dir).unwrap_err();
        assert!(matches!(err, IoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_build_is_typed_error() {
        let dir = TmpDir::new();
        let b = SpimiBuilder::create(&dir.0, SpimiConfig::default()).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, IoError::Invalid(Error::InvalidQuery { .. })));
    }

    #[test]
    fn zero_tf_rejected() {
        let dir = TmpDir::new();
        let mut b = SpimiBuilder::create(&dir.0, SpimiConfig::default()).unwrap();
        let err = b.add_document([("ok", 1u32), ("bad", 0)], 2).unwrap_err();
        assert!(matches!(
            err,
            IoError::Invalid(Error::ZeroTermFrequency { .. })
        ));
    }

    #[test]
    fn the_last_docid_is_a_typed_error_not_a_wrap() {
        // With and without a spill between the documents.
        for max_docs_per_segment in [0, 1] {
            let dir = TmpDir::new();
            let cfg = SpimiConfig {
                max_docs_per_segment,
                ..SpimiConfig::default()
            };
            let mut b = SpimiBuilder::create_at(&dir.0, cfg, u32::MAX - 2).unwrap();
            assert_eq!(b.add_document([("a", 1)], 1).unwrap(), u32::MAX - 2);
            assert_eq!(b.add_document([("a", 2)], 1).unwrap(), u32::MAX - 1);
            // docID u32::MAX would make the corpus 2^32 documents.
            let before = *b.stats();
            let err = b.add_document([("a", 3)], 1).unwrap_err();
            assert!(
                matches!(err, IoError::Invalid(Error::InvalidQuery { .. })),
                "{err}"
            );
            assert_eq!(*b.stats(), before);
            let set = b.finish().unwrap();
            assert_eq!(set.n_docs, u32::MAX);
            let last = set.entries().last().unwrap();
            assert_eq!(last.doc_base + last.n_docs, u32::MAX);
        }
    }

    /// Two-segment builder over hand-written term bags.
    fn bag_builder(dir: &TmpDir) -> SpimiBuilder {
        let cfg = SpimiConfig {
            max_docs_per_segment: 2,
            ..SpimiConfig::default()
        };
        SpimiBuilder::create(&dir.0, cfg).unwrap()
    }

    #[test]
    fn rejected_document_leaves_the_builder_untouched() {
        let good: [&[(&str, u32)]; 3] = [
            &[("alpha", 1), ("gamma", 2)],
            &[("beta", 3), ("gamma", 1)],
            &[("alpha", 2), ("delta", 1)],
        ];
        // Fails at its last term, after interning a new term ("omega"),
        // pushing onto existing ones and folding a repeat.
        let bad = [
            ("gamma", 4u32),
            ("omega", 1),
            ("alpha", 1),
            ("gamma", 2),
            ("beta", 0),
        ];

        let (clean_dir, dirty_dir) = (TmpDir::new(), TmpDir::new());
        let mut clean = bag_builder(&clean_dir);
        let mut dirty = bag_builder(&dirty_dir);
        for (i, bag) in good.iter().enumerate() {
            let id = clean.add_document(bag.iter().copied(), 0).unwrap();
            assert_eq!(id, i as u32);

            // Mid-segment (i = 0, 2) and right after a spill (i = 1).
            let before = *dirty.stats();
            let err = dirty.add_document(bad, 9).unwrap_err();
            assert!(
                matches!(err, IoError::Invalid(Error::ZeroTermFrequency { at: 4 })),
                "{err}"
            );
            assert_eq!(*dirty.stats(), before, "stats after the rejection");
            let id = dirty.add_document(bag.iter().copied(), 0).unwrap();
            assert_eq!(id, i as u32, "the rejected document took no docID");
            assert_eq!(dirty.stats(), clean.stats());
        }
        let (clean, dirty) = (clean.finish().unwrap(), dirty.finish().unwrap());
        assert_eq!(clean.entries(), dirty.entries());
        let merged = dirty.merge().unwrap();
        assert!(
            merged.term_id("omega").is_err(),
            "no trace of the rejected term"
        );
        assert_eq!(merged, clean.merge().unwrap());
    }

    #[test]
    fn duplicate_terms_in_one_document_are_aggregated() {
        let repeated: [&[(&str, u32)]; 3] = [
            // Adjacent, non-adjacent, and across a term new to the builder.
            &[("a", 1), ("a", 2), ("b", 1), ("c", 5), ("b", 3), ("a", 4)],
            &[("c", 1), ("d", 1), ("c", 1), ("d", 1), ("c", 1)],
            &[("a", 7)],
        ];
        let folded: [&[(&str, u32)]; 3] = [
            &[("a", 7), ("b", 4), ("c", 5)],
            &[("c", 3), ("d", 2)],
            &[("a", 7)],
        ];
        let build = |bags: &[&[(&str, u32)]]| {
            let dir = TmpDir::new();
            let mut b = bag_builder(&dir);
            for bag in bags {
                b.add_document(bag.iter().copied(), 0).unwrap();
            }
            let set = b.finish().unwrap();
            (*set.stats(), set.merge().unwrap())
        };
        let (stats, merged) = build(&repeated);
        assert_eq!(stats.postings, 6, "one posting per distinct (term, doc)");
        assert_eq!((stats, merged.clone()), build(&folded));
        let a = merged.term_id("a").unwrap();
        assert_eq!(
            merged.list(a).decode_all().unwrap(),
            (vec![0, 2], vec![7, 7])
        );
        // tf-sum fallback lengths see the aggregated frequencies.
        assert_eq!(merged.doc_lens(), &[16, 5, 7]);
    }

    #[test]
    fn injected_documents_with_explicit_lens_match_builder() {
        // Posting-list style input: per-doc term bags with explicit
        // lengths, mirrored into IndexBuilder via doc_lens + lists.
        let docs: Vec<Vec<(&str, u32)>> = vec![
            vec![("alpha", 1), ("gamma", 1)],
            vec![("beta", 3), ("gamma", 2)],
            vec![("alpha", 2)],
            vec![("gamma", 1)],
        ];
        let lens = [10u32, 12, 7, 9];

        let dir = TmpDir::new();
        let cfg = SpimiConfig {
            max_docs_per_segment: 2,
            ..SpimiConfig::default()
        };
        let mut b = SpimiBuilder::create(&dir.0, cfg).unwrap();
        for (terms, &len) in docs.iter().zip(&lens) {
            b.add_document(terms.iter().copied(), len).unwrap();
        }
        let set = b.finish().unwrap();
        let merged = set.merge().unwrap();

        let mut columns: BTreeMap<&str, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for (doc, terms) in docs.iter().enumerate() {
            for &(t, tf) in terms {
                let e = columns.entry(t).or_default();
                e.0.push(doc as u32);
                e.1.push(tf);
            }
        }
        let lists: Vec<(&str, PostingList)> = columns
            .into_iter()
            .map(|(t, (d, f))| (t, PostingList::from_columns(d, f).unwrap()))
            .collect();
        let mut builder = IndexBuilder::new().doc_lens(lens.to_vec());
        for (t, list) in &lists {
            builder = builder.add_posting_list(t, list);
        }
        assert_eq!(merged, builder.build().unwrap());
    }

    #[test]
    fn a_failed_spill_leaves_the_builder_as_it_was() {
        let dir = TmpDir::new();
        let mut b = SpimiBuilder::create(&dir.0, SpimiConfig::default()).unwrap();
        let (head, tail) = DOCS.split_at(4);
        for d in head {
            b.add_document_text(d).unwrap();
        }
        let before = *b.stats();
        std::fs::remove_dir_all(&dir.0).unwrap();
        let err = b.spill().unwrap_err();
        assert!(
            matches!(err, IoError::Io(ref e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
        assert_eq!(*b.stats(), before, "nothing counted for the failed spill");

        std::fs::create_dir_all(&dir.0).unwrap();
        for (i, d) in tail.iter().enumerate() {
            assert_eq!(b.add_document_text(d).unwrap(), (head.len() + i) as u32);
        }
        let set = b.finish().unwrap();
        assert_eq!(set.entries().len(), 1, "the retried spill took them all");
        assert_eq!(set.merge().unwrap(), inmem_index());
    }

    #[test]
    fn spills_are_bp_whatever_the_final_scheme() {
        let choices = std::iter::once(SchemeChoice::Hybrid)
            .chain(boss_compress::ALL_SCHEMES.map(SchemeChoice::Fixed));
        for scheme in choices {
            let dir = TmpDir::new();
            let cfg = SpimiConfig {
                max_docs_per_segment: 3,
                scheme,
                ..SpimiConfig::default()
            };
            let mut b = SpimiBuilder::create(&dir.0, cfg).unwrap();
            for d in DOCS {
                b.add_document_text(d).unwrap();
            }
            let set = b.finish().unwrap();
            for e in set.entries() {
                let mut r = open_segment(dir.0.join(&e.file)).unwrap();
                let mut lists = 0;
                while let Some((term, list)) = r.next_term().unwrap() {
                    assert_eq!(list.scheme(), Scheme::Bp, "{scheme}: {} {term}", e.file);
                    lists += 1;
                }
                assert_eq!(lists, e.n_terms, "{scheme}: {}", e.file);
            }
            let inmem = IndexBuilder::new()
                .scheme(scheme)
                .add_documents(DOCS.iter().copied())
                .build()
                .unwrap();
            assert_eq!(set.merge().unwrap(), inmem, "{scheme}");
        }
    }

    #[test]
    fn a_list_the_final_scheme_cannot_hold_fails_at_merge() {
        // Simple16 holds values below 2^28. A gap that wide needs 2^28
        // documents; a tf of 2^28 + 1 puts the same value in the
        // `tf - 1` stream.
        let dir = TmpDir::new();
        let cfg = SpimiConfig {
            max_docs_per_segment: 1,
            scheme: SchemeChoice::Fixed(Scheme::S16),
            ..SpimiConfig::default()
        };
        let mut b = SpimiBuilder::create(&dir.0, cfg).unwrap();
        b.add_document([("a", 1), ("b", 1)], 0).unwrap();
        b.add_document([("a", (1 << 28) + 1)], 0).unwrap();
        let set = b.finish().unwrap();
        assert_eq!(set.stats().spills, 2, "BP spills take the list");
        let err = set.merge().unwrap_err();
        assert!(matches!(err, IoError::Invalid(_)), "{err}");
    }

    #[test]
    fn stats_account_for_work() {
        let (set, _, _dir) = spimi_index(2, usize::MAX >> 1);
        let s = set.stats();
        assert_eq!(s.docs, DOCS.len() as u64);
        assert!(s.postings > 0);
        assert_eq!(s.spills, DOCS.len().div_ceil(2) as u32);
        assert!(s.peak_inmem_bytes > 0);
        assert!(s.segment_bytes > 0);
    }
}
