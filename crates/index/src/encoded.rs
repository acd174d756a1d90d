//! Block-structured encoded posting lists with the paper's per-block
//! metadata (Section IV-A "Index Structure and Per-block Metadata").
//!
//! # Storage
//!
//! An index's lists live in one `ListStore`: every block descriptor in
//! one vector, every payload byte in another, list after list in term-id
//! order — the flat image `init()` loads into the pool (Section IV-D) and
//! [`crate::layout`] hands out addresses for. An [`EncodedList`] is a
//! handle: the store (shared, reference-counted), which of its lists this
//! is, and the list's scheme and term statistics. Where a list starts is
//! kept in the store, and it ends where the next one starts, the last at
//! the end of the vectors; a list encoded on its own is the only list of
//! a store of its own.
//!
//! A block's `offset` stays relative to its list's payload, and a decode
//! first narrows the store to that payload and then bounds-checks the
//! block against it (`ListView`): whatever a descriptor claims, the
//! bytes read are the list's own or the result is a typed error. The
//! shared descriptors and bytes are never written after the store is
//! sealed — the corruption hooks ([`EncodedList::data_mut`],
//! [`EncodedList::blocks_mut`]) first move the list onto a private
//! one-list store, where the vectors they hand out *are* the list.

use crate::{Bm25, DocId, Error, PostingList, SchemeChoice};
use boss_compress::{
    codec_for, optpfd_pack, BitProfile, BlockInfo, S16Plan, Scheme, ALL_SCHEMES, MAX_BLOCK_VALUES,
};
use std::ops::Range;
use std::sync::Arc;

/// Number of postings per block. The paper uses 128-value blocks (with
/// Simple16 nominally variable-size; we keep logical 128-value blocks for
/// S16 too so that skip metadata is uniform — only the encoded byte size
/// varies).
pub const BLOCK_SIZE: usize = 128;

/// Size of the per-block metadata record the paper accounts for: first
/// docID (4 B) + last docID (4 B) + block-max term score (4 B) + data
/// offset (4 B) + element count (7 b) + bit width (5 b) + exception
/// offset/index (12 b) = 19 B.
pub const BLOCK_META_BYTES: u64 = 19;

/// Metadata of one encoded block.
///
/// The first four fields are the skip record the block-fetch module
/// inspects; the rest parameterize the decompression module. The in-memory
/// struct carries a little more than the paper's packed 19 bytes (separate
/// descriptors for the docID and tf sub-streams); traffic accounting always
/// uses [`BLOCK_META_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// First (uncompressed) docID in the block.
    pub first_doc: DocId,
    /// Last (uncompressed) docID in the block.
    pub last_doc: DocId,
    /// Maximum BM25 term score over the block's postings.
    pub max_score: f32,
    /// Byte offset of the block's encoded data within the list data area.
    pub offset: u32,
    /// Encoded byte length of the block (docID gaps + tf section).
    pub len: u32,
    /// Byte offset of the tf section within the block data.
    pub tf_offset: u32,
    /// Descriptor of the docID-gap sub-stream.
    pub delta_info: BlockInfo,
    /// Descriptor of the tf sub-stream.
    pub tf_info: BlockInfo,
}

impl BlockMeta {
    /// Number of postings in the block.
    pub fn count(&self) -> usize {
        self.delta_info.count as usize
    }
}

/// Where one list begins in its [`ListStore`]: the index of its first
/// descriptor and of its first payload byte, in *image coordinates* —
/// positions in the index image the list was laid out in
/// ([`crate::layout`]). A store's own vectors begin at its first list's
/// start, so for an index's store the two coincide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ListStart {
    block: usize,
    data: usize,
}

/// The storage behind one or more encoded lists: every list's block
/// descriptors in one vector and every list's payload in another, back to
/// back in list order — the order [`crate::layout::IndexImage`] lays an
/// index out in, so the simulated address map is this host layout.
///
/// List `i` runs from `starts[i]` to `starts[i + 1]`; the last list runs
/// to the end of the vectors. A store holding a single list therefore
/// *is* that list, whatever its vectors grow or shrink to — which is what
/// lets the corruption hooks ([`EncodedList::data_mut`]) hand out the
/// vectors themselves once a list has been detached onto its own store.
#[derive(Debug, Clone, Default)]
pub(crate) struct ListStore {
    starts: Vec<ListStart>,
    blocks: Vec<BlockMeta>,
    data: Vec<u8>,
}

impl ListStore {
    /// An empty store with room for `lists` lists of `blocks` blocks and
    /// `data_bytes` payload bytes in all. The last two are best given as
    /// upper bounds where one is cheap to have: a vector that never has
    /// to grow is never copied — while it is, the old and the new one are
    /// both resident — and what it does not touch of an over-sized
    /// reservation costs address space only, returned when the store is
    /// sealed. A reservation the allocator refuses is done without.
    pub(crate) fn with_capacity(lists: usize, blocks: usize, data_bytes: usize) -> Self {
        let mut store = ListStore {
            starts: Vec::with_capacity(lists),
            ..ListStore::default()
        };
        let _ = store.blocks.try_reserve_exact(blocks);
        let _ = store.data.try_reserve_exact(data_bytes);
        store
    }

    /// Empties the store, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.starts.clear();
        self.blocks.clear();
        self.data.clear();
    }

    /// The start of a list appended now.
    fn end(&self) -> ListStart {
        let origin = self.starts.first().copied().unwrap_or_default();
        ListStart {
            block: origin.block + self.blocks.len(),
            data: origin.data + self.data.len(),
        }
    }

    /// Appends a copy of `list`.
    pub(crate) fn push(&mut self, list: ListView<'_>) {
        self.starts.push(self.end());
        self.blocks.extend_from_slice(list.blocks);
        self.data.extend_from_slice(list.data);
    }

    /// Where list `list` lies in the vector of `len` elements that
    /// `coordinate` positions a start in.
    fn range(&self, list: usize, len: usize, coordinate: fn(&ListStart) -> usize) -> Range<usize> {
        let origin = coordinate(&self.starts[0]);
        let end = self.starts.get(list + 1);
        coordinate(&self.starts[list]) - origin..end.map_or(len, |s| coordinate(s) - origin)
    }

    fn block_range(&self, list: usize) -> Range<usize> {
        self.range(list, self.blocks.len(), |s| s.block)
    }

    fn data_range(&self, list: usize) -> Range<usize> {
        self.range(list, self.data.len(), |s| s.data)
    }

    /// List `list` of the store, with the statistics kept beside it.
    ///
    /// # Panics
    ///
    /// Panics if the store has no such list.
    pub(crate) fn view(&self, list: usize, stats: ListStats) -> ListView<'_> {
        ListView {
            stats,
            blocks: &self.blocks[self.block_range(list)],
            data: &self.data[self.data_range(list)],
        }
    }

    /// Freezes the store, trimmed to what it holds, and returns one handle
    /// per list; `stats` are the lists' statistics in list order.
    pub(crate) fn seal(mut self, stats: Vec<ListStats>) -> Vec<EncodedList> {
        debug_assert_eq!(stats.len(), self.starts.len());
        self.starts.shrink_to_fit();
        self.blocks.shrink_to_fit();
        self.data.shrink_to_fit();
        let store = Arc::new(self);
        let handle = |(ordinal, stats)| EncodedList {
            store: Arc::clone(&store),
            ordinal,
            stats,
        };
        (0u32..).zip(stats).map(handle).collect()
    }
}

/// What a list carries beside its blocks: its scheme and the term
/// statistics the scorer needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ListStats {
    pub scheme: Scheme,
    pub df: u32,
    pub idf: f32,
    /// List-level maximum term score (feeds the WAND lookup table).
    pub max_score: f32,
}

/// One encoded list as borrowed slices: what every decode runs on, be the
/// bytes an [`EncodedList`]'s part of its store, a segment reader's
/// current entry or a spill's scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ListView<'a> {
    pub stats: ListStats,
    pub blocks: &'a [BlockMeta],
    /// The list's own payload: block `offset`s are relative to it and
    /// every block is bounds-checked against it, so a corrupt descriptor
    /// reads a typed error, never a neighbouring list's bytes.
    pub data: &'a [u8],
}

impl ListView<'_> {
    /// [`EncodedList::skip_to_block`].
    pub(crate) fn skip_to_block(&self, from: usize, target: DocId) -> usize {
        let from = from.min(self.blocks.len());
        from + self.blocks[from..].partition_point(|m| m.last_doc < target)
    }

    /// [`EncodedList::decode_block`].
    pub(crate) fn decode_block(
        &self,
        i: usize,
        docs: &mut Vec<DocId>,
        tfs: &mut Vec<u32>,
    ) -> Result<(), Error> {
        let meta = self.blocks.get(i).ok_or(Error::BlockOutOfRange {
            block: i,
            n_blocks: self.blocks.len(),
        })?;
        let codec = codec_for(self.stats.scheme);
        let block = self
            .data
            .get(meta.offset as usize..meta.offset as usize + meta.len as usize)
            .ok_or(Error::CorruptMetadata {
                reason: "block offset/len outside the list data area",
            })?;
        if meta.tf_offset as usize > block.len() {
            return Err(Error::CorruptMetadata {
                reason: "tf sub-stream offset beyond the block data",
            });
        }
        if meta.delta_info.count != meta.tf_info.count {
            return Err(Error::CorruptMetadata {
                reason: "docID and tf sub-stream counts disagree",
            });
        }
        let (delta_part, tf_part) = block.split_at(meta.tf_offset as usize);

        // The d-gap prefix sum is seeded with the previous block's last
        // docID, or 0 for the first block (whose first stored gap is the
        // absolute docID).
        let base = if i == 0 {
            0
        } else {
            self.blocks[i - 1].last_doc
        };
        let doc_base = docs.len();
        // A prefix sum that wrapped past 2³² can still land on the
        // descriptor's first and last docIDs, with the docIDs between them
        // past the corpus.
        if codec.decode_d1(delta_part, &meta.delta_info, base, docs)? {
            return Err(Error::CorruptMetadata {
                reason: "block's d-gaps wrap past 2^32",
            });
        }
        // The skip decisions every cursor takes read the descriptor, and
        // the scorers index the norm table with what the decode produced:
        // the two must name the same documents.
        let decoded = &docs[doc_base..];
        let (Some(&first), Some(&last)) = (decoded.first(), decoded.last()) else {
            return Err(Error::CorruptMetadata {
                reason: "block decoded to zero postings",
            });
        };
        if first != meta.first_doc || last != meta.last_doc {
            return Err(Error::CorruptMetadata {
                reason: "decoded block contents disagree with its directory entry",
            });
        }
        // A d-gap of 0 repeats a docID, inside the block or across its
        // first edge, and every engine would sum the repeats differently.
        // The fold has no early exit, so it vectorizes.
        let ascending = decoded
            .iter()
            .zip(&decoded[1..])
            .fold(i == 0 || first > base, |ok, (a, b)| ok & (a < b));
        if !ascending {
            return Err(Error::CorruptMetadata {
                reason: "block's docIDs are not strictly ascending",
            });
        }

        let tf_base = tfs.len();
        codec.decode(tf_part, &meta.tf_info, tfs)?;
        for tf in &mut tfs[tf_base..] {
            *tf += 1;
        }
        Ok(())
    }

    /// [`EncodedList::decode_all_into`].
    pub(crate) fn decode_all_into(&self, scratch: &mut DecodeScratch) -> Result<(), Error> {
        scratch.clear();
        // Clamp each block's claimed count so corrupt metadata cannot turn
        // the up-front reserve into an oversized allocation; the per-block
        // decode rejects the bogus count with a typed error anyway.
        let total: usize = self
            .blocks
            .iter()
            .map(|b| b.count().min(MAX_BLOCK_VALUES))
            .sum();
        scratch.docs.reserve(total);
        scratch.tfs.reserve(total);
        for i in 0..self.blocks.len() {
            self.decode_block(i, &mut scratch.docs, &mut scratch.tfs)?;
        }
        Ok(())
    }
}

/// A posting list encoded into 128-value blocks under one scheme.
///
/// A handle: the descriptors and the payload live in a store the list
/// shares with the other lists of its index (a list encoded on its own
/// has a store to itself), and a clone shares them too. The corruption
/// hooks copy the list onto a private store before handing out anything
/// mutable, so no mutation is ever seen through another handle.
#[derive(Clone)]
pub struct EncodedList {
    store: Arc<ListStore>,
    /// Which of the store's lists this is.
    ordinal: u32,
    stats: ListStats,
}

/// Lists are equal when their contents are, wherever they are stored.
impl PartialEq for EncodedList {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl std::fmt::Debug for EncodedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedList")
            .field("stats", &self.stats)
            .field("blocks", &self.blocks())
            .field("data", &self.data())
            .finish()
    }
}

impl EncodedList {
    /// Encodes `list` under `scheme`, computing block-max scores with
    /// `bm25`, the term's `idf`, and the per-document norms.
    ///
    /// # Errors
    ///
    /// Propagates codec failures (e.g. S16 on gaps wider than 28 bits).
    ///
    /// # Panics
    ///
    /// Panics if some docID in `list` has no entry in `norms`.
    pub fn encode(
        list: &PostingList,
        scheme: Scheme,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
    ) -> Result<Self, Error> {
        Self::encode_with_block_size(list, scheme, bm25, idf, norms, BLOCK_SIZE)
    }

    /// Like [`EncodedList::encode`] but with an explicit block size —
    /// used by the block-size ablation study; the index proper always
    /// uses the paper's 128.
    ///
    /// # Errors
    ///
    /// Same as [`EncodedList::encode`], and [`Error::InvalidBlockSize`]
    /// for a `block_size` of zero or above [`MAX_BLOCK_VALUES`].
    pub fn encode_with_block_size(
        list: &PostingList,
        scheme: Scheme,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
        block_size: usize,
    ) -> Result<Self, Error> {
        let mut store = ListStore::default();
        let stats = ListEncoder::new().encode_blocked(
            &mut store,
            list.docs(),
            list.tfs(),
            SchemeChoice::Fixed(scheme),
            bm25,
            idf,
            norms,
            block_size,
        )?;
        Ok(Self::alone(store, stats))
    }

    /// The handle of a store's only list.
    fn alone(mut store: ListStore, stats: ListStats) -> Self {
        debug_assert_eq!(store.starts.len(), 1);
        store.blocks.shrink_to_fit();
        store.data.shrink_to_fit();
        EncodedList {
            store: Arc::new(store),
            ordinal: 0,
            stats,
        }
    }

    /// A self-contained list holding a copy of `view` — how a segment
    /// reader hands out an entry it has validated.
    pub(crate) fn copy_of(view: ListView<'_>) -> Self {
        let mut store = ListStore::default();
        store.push(view);
        Self::alone(store, view.stats)
    }

    pub(crate) fn view(&self) -> ListView<'_> {
        self.store.view(self.ordinal as usize, self.stats)
    }

    /// Offset of the list's descriptor array in the index image: the
    /// [`BLOCK_META_BYTES`]-sized records and the payload bytes of every
    /// list laid out before it.
    pub(crate) fn image_offset(&self) -> u64 {
        let start = self.store.starts[self.ordinal as usize];
        start.block as u64 * BLOCK_META_BYTES + start.data as u64
    }

    /// The compression scheme used.
    pub fn scheme(&self) -> Scheme {
        self.stats.scheme
    }

    /// Block metadata records.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.store.blocks[self.store.block_range(self.ordinal as usize)]
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.store.block_range(self.ordinal as usize).len()
    }

    /// Document frequency (number of postings).
    pub fn df(&self) -> u32 {
        self.stats.df
    }

    /// The term's inverse document frequency.
    pub fn idf(&self) -> f32 {
        self.stats.idf
    }

    /// List-level maximum term score.
    pub fn max_score(&self) -> f32 {
        self.stats.max_score
    }

    /// Total encoded data bytes (excluding metadata).
    pub fn data_bytes(&self) -> usize {
        self.store.data_range(self.ordinal as usize).len()
    }

    /// The raw encoded data area (docID gaps + tf sections of all blocks).
    pub fn data(&self) -> &[u8] {
        &self.store.data[self.store.data_range(self.ordinal as usize)]
    }

    /// The list's store, made private to this handle and holding this
    /// list alone (at its place in the image, so the simulated addresses
    /// of a mutated list do not move).
    fn detach(&mut self) -> &mut ListStore {
        if self.store.starts.len() != 1 || Arc::get_mut(&mut self.store).is_none() {
            let view = self.view();
            self.store = Arc::new(ListStore {
                starts: vec![self.store.starts[self.ordinal as usize]],
                blocks: view.blocks.to_vec(),
                data: view.data.to_vec(),
            });
            self.ordinal = 0;
        }
        // Unique by now, so nothing is cloned.
        Arc::make_mut(&mut self.store)
    }

    /// Mutable access to the encoded data area — a corruption-harness
    /// hook. Decoders must surface any mutation made here as a typed
    /// error or decode to bit-correct values; they must never panic. The
    /// list is first detached from any storage it shares: the mutation is
    /// this handle's alone.
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.detach().data
    }

    /// Mutable access to the block metadata records — a corruption-harness
    /// hook, same contract as [`EncodedList::data_mut`].
    pub fn blocks_mut(&mut self) -> &mut Vec<BlockMeta> {
        &mut self.detach().blocks
    }

    /// Metadata bytes as accounted by the paper (19 B per block).
    pub fn meta_bytes(&self) -> u64 {
        self.n_blocks() as u64 * BLOCK_META_BYTES
    }

    /// The first block at or after `from` that can contain `target`
    /// (i.e. whose `last_doc >= target`), or `n_blocks()` when no such
    /// block remains. A binary search over the block directory — the
    /// skip-advance primitive of the block-max algorithms.
    pub fn skip_to_block(&self, from: usize, target: DocId) -> usize {
        self.view().skip_to_block(from, target)
    }

    /// Decodes block `i`, appending docIDs and tfs to the output columns.
    ///
    /// The docID sub-stream goes through the codec's fused d-gap path
    /// ([`boss_compress::Codec::decode_d1`]), so gaps become absolute
    /// docIDs inside the unpack loop where the codec supports it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BlockOutOfRange`] if `i` is out of range,
    /// [`Error::CorruptMetadata`] if the block descriptor points outside
    /// the list's data area, its sub-stream counts disagree, the d-gaps'
    /// prefix sum wraps past 2³², or the decoded docIDs are empty or do
    /// not begin at the descriptor's `first_doc` and end at its
    /// `last_doc`, and codec errors on corrupt encoded bytes.
    pub fn decode_block(
        &self,
        i: usize,
        docs: &mut Vec<DocId>,
        tfs: &mut Vec<u32>,
    ) -> Result<(), Error> {
        self.view().decode_block(i, docs, tfs)
    }

    /// Decodes block `i` into `scratch`, replacing its previous contents.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EncodedList::decode_block`].
    pub fn decode_block_into(&self, i: usize, scratch: &mut DecodeScratch) -> Result<(), Error> {
        scratch.clear();
        self.decode_block(i, &mut scratch.docs, &mut scratch.tfs)
    }

    /// Decodes the whole list into fresh columns.
    ///
    /// # Errors
    ///
    /// Returns codec errors on corrupt data.
    pub fn decode_all(&self) -> Result<(Vec<DocId>, Vec<u32>), Error> {
        let mut scratch = DecodeScratch::new();
        self.decode_all_into(&mut scratch)?;
        Ok((scratch.docs, scratch.tfs))
    }

    /// Decodes the whole list into `scratch`, replacing its previous
    /// contents. The full list length is reserved up front from the
    /// per-block metadata counts, so the columns never re-grow mid-decode.
    ///
    /// # Errors
    ///
    /// Returns codec errors on corrupt data.
    pub fn decode_all_into(&self, scratch: &mut DecodeScratch) -> Result<(), Error> {
        self.view().decode_all_into(scratch)
    }
}

/// The one place a posting list becomes an encoded list: every
/// construction path — [`crate::IndexBuilder::build`], SPIMI spills, the
/// segment merge and [`crate::shard::ShardedIndex::split`] — encodes
/// through it, so the hybrid tie-break that is the index's on-disk
/// identity (first of [`ALL_SCHEMES`] wins ties, strictly smaller
/// replaces, a scheme that cannot represent some block is skipped) is
/// decided by one loop.
///
/// One pass per block checks the columns and computes what no scheme
/// changes — d-gaps, `tf - 1`, the block's and the list's maximum BM25
/// term score — and, under [`SchemeChoice::Hybrid`], profiles the block's
/// two streams while they are at hand ([`BitProfile`]: the BP, VB and
/// OptPFD lengths, and OptPFD's width). Simple16 is then sized by
/// planning its words ([`S16Plan`]) and Simple8b by its own search, each
/// given up once it cannot come in under the best so far. The winner is
/// packed once, from what its sizing recorded, straight onto the end of
/// the destination store: no layout or width search runs twice. The
/// scratch is reused across calls; a [`SchemeChoice::Fixed`] encode reads
/// none of the plan.
#[derive(Debug, Default)]
pub struct ListEncoder {
    gaps: Vec<u32>,
    tfs_m1: Vec<u32>,
    block_max: Vec<f32>,
    plan: Plan,
}

/// What the hybrid choice sized the schemes from, and what its winner is
/// packed from; emptied at the start of every hybrid encode. Where a
/// field holds two of something, they are the gap stream's and the
/// `tf - 1` stream's.
#[derive(Debug, Default)]
struct Plan {
    /// The profile of the stream being read.
    profile: BitProfile,
    /// The list's data-area bytes under BP, VB and OptPFD.
    bp: usize,
    vb: usize,
    optpfd: usize,
    /// OptPFD's widths, block by block.
    widths: Vec<[u32; 2]>,
    /// Simple16's words, block by block.
    s16: [S16Plan; 2],
}

impl Plan {
    fn clear(&mut self) {
        (self.bp, self.vb, self.optpfd) = (0, 0, 0);
        self.widths.clear();
        for plan in &mut self.s16 {
            plan.clear();
        }
    }

    /// Profiles a block's two streams while they are at hand, to size
    /// them under BP, VB and OptPFD.
    fn read_block(&mut self, streams: [&[u32]; 2]) {
        let widths = streams.map(|values| {
            let profile = &mut self.profile;
            profile.add(values);
            let (len, width) = profile.optpfd();
            self.bp += profile.bp_len();
            self.vb += profile.vb_len();
            self.optpfd += len;
            profile.clear();
            width
        });
        self.widths.push(widths);
    }

    /// Packs stream `stream` of block `block` under `scheme` from what
    /// its sizing recorded: OptPFD at the width it chose, Simple16 from
    /// the words it planned. `None` for a scheme that recorded nothing to
    /// pack from.
    fn pack(
        &mut self,
        scheme: Scheme,
        block: usize,
        stream: usize,
        values: &[u32],
        out: &mut Vec<u8>,
    ) -> Option<Result<BlockInfo, boss_compress::Error>> {
        match scheme {
            Scheme::OptPfd => Some(optpfd_pack(values, self.widths[block][stream], out)),
            Scheme::S16 => Some(self.s16[stream].pack(values, out)),
            _ => None,
        }
    }

    /// The data-area bytes of the gap and `tf - 1` streams under
    /// Simple16, if that is below `limit`, planning their words on the
    /// way. `None` also when some value is wider than 28 bits; the sum
    /// only grows, so it is given up as soon as it reaches `limit`.
    fn plan_s16(&mut self, streams: [&[u32]; 2], block_size: usize, limit: usize) -> Option<usize> {
        let mut len = 0;
        for (plan, stream) in self.s16.iter_mut().zip(streams) {
            plan.clear();
            for values in stream.chunks(block_size) {
                len += plan.plan(values).ok()?;
                if len >= limit {
                    return None;
                }
            }
        }
        (len < limit).then_some(len)
    }
}

/// The error of columns whose docID at `at` has no entry in `norms`. The
/// columns' own error comes first — every posting used to be checked
/// before any was scored — and a valid list panics, as documented.
#[cold]
#[inline(never)]
fn no_norm(docs: &[DocId], tfs: &[u32], norms: &[f32], at: usize) -> Error {
    for (later, (pair, &tf)) in (at + 1..).zip(docs[at..].windows(2).zip(&tfs[at + 1..])) {
        if pair[1] <= pair[0] {
            return Error::UnsortedPostings { at: later };
        }
        if tf == 0 {
            return Error::ZeroTermFrequency { at: later };
        }
    }
    // The documented panic of `ListEncoder::encode`: norms are the
    // caller's, sized for the corpus the lists were drawn from.
    #[allow(clippy::panic)]
    {
        panic!("docID {} has no entry in {} norms", docs[at], norms.len())
    }
}

impl ListEncoder {
    /// An encoder with empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the posting columns `docs`/`tfs` into [`BLOCK_SIZE`]-value
    /// blocks under `choice`, computing block-max scores with `bm25`, the
    /// term's `idf`, and the per-document norms. The returned list has a
    /// store to itself.
    ///
    /// # Errors
    ///
    /// [`Error::UnsortedPostings`] / [`Error::ZeroTermFrequency`] if the
    /// columns are not a valid posting list (same positions as
    /// [`PostingList::from_columns`]); under [`SchemeChoice::Fixed`] the
    /// codec's failure (e.g. S16 on gaps wider than 28 bits); under
    /// [`SchemeChoice::Hybrid`] such a scheme is skipped, and only if
    /// every scheme fails — BP is total, so never — is it
    /// [`Error::CorruptMetadata`].
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length or some docID has no entry
    /// in `norms`.
    pub fn encode(
        &mut self,
        docs: &[DocId],
        tfs: &[u32],
        choice: SchemeChoice,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
    ) -> Result<EncodedList, Error> {
        let mut store = ListStore::default();
        let stats = self.encode_into(&mut store, docs, tfs, choice, bm25, idf, norms)?;
        Ok(EncodedList::alone(store, stats))
    }

    /// [`ListEncoder::encode`] onto the end of `store`, as its next list;
    /// on an error the store is as it was.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode_into(
        &mut self,
        store: &mut ListStore,
        docs: &[DocId],
        tfs: &[u32],
        choice: SchemeChoice,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
    ) -> Result<ListStats, Error> {
        self.encode_blocked(store, docs, tfs, choice, bm25, idf, norms, BLOCK_SIZE)
    }

    /// [`ListEncoder::encode_into`] with an explicit block size (the
    /// ablation study's entry, via
    /// [`EncodedList::encode_with_block_size`]).
    #[allow(clippy::too_many_arguments)]
    fn encode_blocked(
        &mut self,
        store: &mut ListStore,
        docs: &[DocId],
        tfs: &[u32],
        choice: SchemeChoice,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
        block_size: usize,
    ) -> Result<ListStats, Error> {
        if block_size == 0 || block_size > MAX_BLOCK_VALUES {
            return Err(Error::InvalidBlockSize {
                block_size,
                max: MAX_BLOCK_VALUES,
            });
        }
        assert_eq!(docs.len(), tfs.len(), "column lengths must match");

        let hybrid = choice == SchemeChoice::Hybrid;
        let list_max = if hybrid {
            self.read::<true>(docs, tfs, bm25, idf, norms, block_size)?
        } else {
            self.read::<false>(docs, tfs, bm25, idf, norms, block_size)?
        };
        let scheme = match choice {
            SchemeChoice::Fixed(scheme) => scheme,
            SchemeChoice::Hybrid => self.choose(block_size)?,
        };

        let (n_lists, n_blocks, n_data) =
            (store.starts.len(), store.blocks.len(), store.data.len());
        store.starts.push(store.end());
        if let Err(e) = self.encode_under(scheme, hybrid, docs, block_size, store) {
            store.starts.truncate(n_lists);
            store.blocks.truncate(n_blocks);
            store.data.truncate(n_data);
            return Err(e);
        }
        Ok(ListStats {
            scheme,
            df: docs.len() as u32,
            idf,
            max_score: list_max,
        })
    }

    /// The one pass over the columns: checks them, forms the gap and
    /// `tf - 1` streams and the block maxima, and — with `PLAN`, for the
    /// hybrid choice — reads each block into the plan the schemes are
    /// sized from while it is at hand. Returns the list's maximum term
    /// score.
    fn read<const PLAN: bool>(
        &mut self,
        docs: &[DocId],
        tfs: &[u32],
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
        block_size: usize,
    ) -> Result<f32, Error> {
        // Sized up front and written in place: nothing in the posting
        // loop below grows a vector, so nothing in it is a call. Every
        // position is overwritten, so a resize keeps what an earlier list
        // left and zero-fills only what grows.
        let n = docs.len();
        for stream in [&mut self.gaps, &mut self.tfs_m1] {
            stream.resize(n, 0);
        }
        self.block_max.clear();
        if PLAN {
            self.plan.clear();
        }
        let mut prev = 0;
        let mut list_max = 0.0f32;
        for first in (0..n).step_by(block_size) {
            let block = first..n.min(first + block_size);
            let columns = docs[block.clone()].iter().zip(&tfs[block.clone()]);
            let streams = self.gaps[block.clone()]
                .iter_mut()
                .zip(&mut self.tfs_m1[block.clone()]);
            let mut max_score = 0.0f32;
            for (at, ((&doc, &tf), (gap, tf_m1))) in (first..).zip(columns.zip(streams)) {
                if at > 0 && doc <= prev {
                    return Err(Error::UnsortedPostings { at });
                }
                if tf == 0 {
                    return Err(Error::ZeroTermFrequency { at });
                }
                // The first stored gap is the absolute docID.
                (*gap, *tf_m1) = (doc - prev, tf - 1);
                prev = doc;
                let Some(&norm) = norms.get(doc as usize) else {
                    return Err(no_norm(docs, tfs, norms, at));
                };
                let s = bm25.term_score(idf, tf, norm);
                if s > max_score {
                    max_score = s;
                }
            }
            list_max = list_max.max(max_score);
            self.block_max.push(max_score);
            if PLAN {
                self.plan
                    .read_block([&self.gaps[block.clone()], &self.tfs_m1[block]]);
            }
        }
        Ok(list_max)
    }

    /// The hybrid choice over the plan [`ListEncoder::read`] filled.
    fn choose(&mut self, block_size: usize) -> Result<Scheme, Error> {
        let mut best = None;
        for scheme in ALL_SCHEMES {
            // Only a strictly smaller data area replaces the best.
            let limit = best.map_or(usize::MAX, |(_, len)| len);
            let len = match scheme {
                Scheme::Bp => Some(self.plan.bp),
                Scheme::Vb => Some(self.plan.vb),
                Scheme::OptPfd => Some(self.plan.optpfd),
                Scheme::S16 => {
                    let streams = [&self.gaps[..], &self.tfs_m1];
                    self.plan.plan_s16(streams, block_size, limit)
                }
                _ => self.data_len_under(scheme, block_size, limit),
            };
            if let Some(len) = len.filter(|&len| len < limit) {
                best = Some((scheme, len));
            }
        }
        let (scheme, _) = best.ok_or(Error::CorruptMetadata {
            reason: "no compression scheme could encode the posting list",
        })?;
        Ok(scheme)
    }

    /// The data-area bytes of the prepared gap / `tf - 1` streams under
    /// `scheme`, if that is below `limit`. `None` also when the scheme
    /// cannot represent some block; the sum only grows, so it is given up
    /// as soon as it reaches `limit`.
    fn data_len_under(&self, scheme: Scheme, block_size: usize, limit: usize) -> Option<usize> {
        let codec = codec_for(scheme);
        let mut len = 0;
        for values in self
            .gaps
            .chunks(block_size)
            .chain(self.tfs_m1.chunks(block_size))
        {
            len += codec.encoded_len(values).ok()?;
            if len >= limit {
                return None;
            }
        }
        (len < limit).then_some(len)
    }

    /// Encodes the prepared gap / `tf - 1` streams block by block under
    /// `scheme` onto the end of `store`; block offsets are relative to
    /// where the list's payload begins. The hybrid winner (`planned`) is
    /// packed from its plan where its sizing recorded one; any other
    /// encode is the codec's own.
    fn encode_under(
        &mut self,
        scheme: Scheme,
        planned: bool,
        docs: &[DocId],
        block_size: usize,
        store: &mut ListStore,
    ) -> Result<(), Error> {
        let codec = codec_for(scheme);
        // A fixed choice has no plan to pack from.
        let mut plan = planned.then_some(&mut self.plan);
        let mut pack = |block: usize, stream: usize, values: &[u32], data: &mut Vec<u8>| {
            let packed = plan
                .as_deref_mut()
                .and_then(|plan| plan.pack(scheme, block, stream, values, data));
            packed.unwrap_or_else(|| codec.encode(values, data))
        };
        let (data, blocks) = (&mut store.data, &mut store.blocks);
        let list_start = data.len();
        let streams = self
            .gaps
            .chunks(block_size)
            .zip(self.tfs_m1.chunks(block_size));
        let chunks = docs.chunks(block_size).zip(streams).zip(&self.block_max);
        for (block, ((bdocs, (gaps, tfs_m1)), &max_score)) in chunks.enumerate() {
            let block_start = data.len();
            let delta_info = pack(block, 0, gaps, data)?;
            let tf_offset = (data.len() - block_start) as u32;
            let tf_info = pack(block, 1, tfs_m1, data)?;
            blocks.push(BlockMeta {
                first_doc: bdocs[0],
                last_doc: bdocs[bdocs.len() - 1],
                max_score,
                offset: (block_start - list_start) as u32,
                len: (data.len() - block_start) as u32,
                tf_offset,
                delta_info,
                tf_info,
            });
        }
        Ok(())
    }
}

/// Reusable decode output buffers: callers allocate once (sized from block
/// metadata via [`DecodeScratch::reserve_for`]) and every block decode
/// lands in place instead of growing fresh vectors.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Decoded absolute docIDs.
    pub docs: Vec<DocId>,
    /// Decoded term frequencies (the stored `tf - 1` already undone).
    pub tfs: Vec<u32>,
}

impl DecodeScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves enough room for the largest block of `list`, so per-block
    /// decodes through this scratch never reallocate.
    pub fn reserve_for(&mut self, list: &EncodedList) {
        let largest = list
            .blocks()
            .iter()
            .map(|b| b.count().min(MAX_BLOCK_VALUES))
            .max()
            .unwrap_or(0);
        self.docs.reserve(largest.saturating_sub(self.docs.len()));
        self.tfs.reserve(largest.saturating_sub(self.tfs.len()));
    }

    /// Clears both columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.docs.clear();
        self.tfs.clear();
    }

    /// Number of decoded postings currently held.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the scratch holds no postings.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::Bm25Params;
    use boss_compress::ALL_SCHEMES;

    fn bm25() -> Bm25 {
        Bm25::new(Bm25Params::default(), 1000, 50.0)
    }

    fn sample_list(n: u32, stride: u32) -> PostingList {
        let docs: Vec<u32> = (0..n).map(|i| i * stride).collect();
        let tfs: Vec<u32> = (0..n).map(|i| 1 + (i % 7)).collect();
        PostingList::from_columns(docs, tfs).unwrap()
    }

    #[test]
    fn roundtrip_all_schemes() {
        let list = sample_list(500, 3);
        let norms = vec![1.0f32; 1500];
        for s in ALL_SCHEMES {
            let enc = EncodedList::encode(&list, s, &bm25(), 2.0, &norms).unwrap();
            assert_eq!(enc.n_blocks(), 4, "500 postings -> 4 blocks");
            let (docs, tfs) = enc.decode_all().unwrap();
            assert_eq!(docs, list.docs(), "scheme {s}");
            assert_eq!(tfs, list.tfs(), "scheme {s}");
        }
    }

    #[test]
    fn block_metadata_boundaries() {
        let list = sample_list(300, 2);
        let norms = vec![1.0f32; 600];
        let enc = EncodedList::encode(&list, Scheme::Bp, &bm25(), 2.0, &norms).unwrap();
        let b = enc.blocks();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].first_doc, 0);
        assert_eq!(b[0].last_doc, 254);
        assert_eq!(b[1].first_doc, 256);
        assert_eq!(b[2].last_doc, 598);
        assert_eq!(b[0].count(), 128);
        assert_eq!(b[2].count(), 44);
    }

    #[test]
    fn single_block_decode_matches_slice() {
        let list = sample_list(400, 5);
        let norms = vec![1.2f32; 2000];
        let enc = EncodedList::encode(&list, Scheme::OptPfd, &bm25(), 1.5, &norms).unwrap();
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        enc.decode_block(2, &mut docs, &mut tfs).unwrap();
        assert_eq!(docs, &list.docs()[256..384]);
        assert_eq!(tfs, &list.tfs()[256..384]);
    }

    #[test]
    fn block_max_scores_bound_postings() {
        let list = sample_list(256, 1);
        let norms: Vec<f32> = (0..256).map(|i| 0.5 + i as f32 * 0.01).collect();
        let b = bm25();
        let idf = 1.7f32;
        let enc = EncodedList::encode(&list, Scheme::Vb, &b, idf, &norms).unwrap();
        for (bi, meta) in enc.blocks().iter().enumerate() {
            let mut docs = Vec::new();
            let mut tfs = Vec::new();
            enc.decode_block(bi, &mut docs, &mut tfs).unwrap();
            for (&d, &tf) in docs.iter().zip(&tfs) {
                let s = b.term_score(idf, tf, norms[d as usize]);
                assert!(s <= meta.max_score + 1e-6);
            }
        }
        let list_max = enc
            .blocks()
            .iter()
            .map(|m| m.max_score)
            .fold(0.0f32, f32::max);
        assert!((enc.max_score() - list_max).abs() < 1e-9);
    }

    #[test]
    fn doc_zero_first_posting() {
        let list = PostingList::from_columns(vec![0, 7], vec![2, 1]).unwrap();
        let enc = EncodedList::encode(&list, Scheme::Bp, &bm25(), 1.0, &[1.0; 8]).unwrap();
        let (docs, tfs) = enc.decode_all().unwrap();
        assert_eq!(docs, vec![0, 7]);
        assert_eq!(tfs, vec![2, 1]);
    }

    #[test]
    fn empty_list() {
        let enc =
            EncodedList::encode(&PostingList::default(), Scheme::Bp, &bm25(), 1.0, &[]).unwrap();
        assert_eq!(enc.n_blocks(), 0);
        let (docs, tfs) = enc.decode_all().unwrap();
        assert!(docs.is_empty() && tfs.is_empty());
    }

    #[test]
    fn out_of_range_block_is_typed_error() {
        let list = sample_list(10, 1);
        let enc = EncodedList::encode(&list, Scheme::Bp, &bm25(), 1.0, &[1.0; 16]).unwrap();
        let err = enc
            .decode_block(5, &mut Vec::new(), &mut Vec::new())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::BlockOutOfRange {
                block: 5,
                n_blocks: 1
            }
        ));
    }

    #[test]
    fn corrupt_metadata_is_typed_error_never_panic() {
        let list = sample_list(300, 2);
        let norms = vec![1.0f32; 600];
        for s in ALL_SCHEMES {
            let base = EncodedList::encode(&list, s, &bm25(), 2.0, &norms).unwrap();

            // Offset/len pointing outside the data area.
            let mut enc = base.clone();
            enc.blocks_mut()[1].offset = u32::MAX;
            let err = enc
                .decode_block(1, &mut Vec::new(), &mut Vec::new())
                .unwrap_err();
            assert!(matches!(err, Error::CorruptMetadata { .. }), "scheme {s}");

            // tf offset beyond the block data.
            let mut enc = base.clone();
            let len = enc.blocks()[0].len;
            enc.blocks_mut()[0].tf_offset = len + 1;
            let err = enc
                .decode_block(0, &mut Vec::new(), &mut Vec::new())
                .unwrap_err();
            assert!(matches!(err, Error::CorruptMetadata { .. }), "scheme {s}");

            // Sub-stream counts disagreeing.
            let mut enc = base.clone();
            enc.blocks_mut()[0].tf_info.count += 1;
            let err = enc
                .decode_block(0, &mut Vec::new(), &mut Vec::new())
                .unwrap_err();
            assert!(matches!(err, Error::CorruptMetadata { .. }), "scheme {s}");

            // Oversized claimed count must not blow up the bulk reserve.
            let mut enc = base.clone();
            for b in enc.blocks_mut() {
                b.delta_info.count = u16::MAX;
                b.tf_info.count = u16::MAX;
            }
            let mut scratch = DecodeScratch::new();
            assert!(enc.decode_all_into(&mut scratch).is_err(), "scheme {s}");
            assert!(
                scratch.docs.capacity() <= 3 * MAX_BLOCK_VALUES,
                "scheme {s} reserved for corrupt counts"
            );
        }
    }

    /// `list`'s block `i` re-encoded under its own scheme from `gaps` (tf
    /// 1 each), its descriptor's docID bounds and d-gap base untouched.
    fn reencode(list: &mut EncodedList, i: usize, gaps: &[u32]) {
        let codec = codec_for(list.scheme());
        let mut block = Vec::new();
        let delta_info = codec.encode(gaps, &mut block).unwrap();
        let tf_offset = block.len() as u32;
        let tf_info = codec.encode(&vec![0; gaps.len()], &mut block).unwrap();
        let offset = list.data_mut().len() as u32;
        list.data_mut().extend_from_slice(&block);
        let meta = list.blocks()[i];
        list.blocks_mut()[i] = BlockMeta {
            offset,
            len: block.len() as u32,
            tf_offset,
            delta_info,
            tf_info,
            ..meta
        };
    }

    /// A repeated docID is refused inside a block and across a block's
    /// first edge, where the first d-gap of block `i > 0` is 0: its first
    /// docID is the previous block's last, which a descriptor moved down
    /// to it would otherwise confirm. The same first gap is legal in
    /// block 0, whose base is no docID.
    #[test]
    fn a_repeated_docid_is_refused_inside_a_block_and_at_its_first_edge() {
        let list = sample_list(300, 2);
        let norms = vec![1.0f32; 600];
        let refused = |enc: &EncodedList, i: usize| {
            let err = enc
                .decode_block(i, &mut Vec::new(), &mut Vec::new())
                .unwrap_err();
            assert!(
                matches!(err, Error::CorruptMetadata { reason } if reason.contains("ascending")),
                "{err:?}"
            );
            assert!(enc.decode_all().is_err());
        };
        for s in ALL_SCHEMES {
            let base = EncodedList::encode(&list, s, &bm25(), 2.0, &norms).unwrap();
            let [prev, meta] = [base.blocks()[0], base.blocks()[1]];

            let mut edge = base.clone();
            edge.blocks_mut()[1].first_doc = prev.last_doc;
            reencode(&mut edge, 1, &[0, meta.last_doc - prev.last_doc]);
            refused(&edge, 1);

            let mut inside = base.clone();
            let mut gaps = vec![meta.first_doc - prev.last_doc, 0];
            gaps.push(meta.last_doc - meta.first_doc);
            reencode(&mut inside, 1, &gaps);
            refused(&inside, 1);

            let mut first = base.clone();
            reencode(&mut first, 0, &[0, prev.last_doc]);
            first
                .decode_block(0, &mut Vec::new(), &mut Vec::new())
                .unwrap();
        }
    }

    /// Three lists in one store, as an index holds them.
    fn shared_store() -> (ListStore, Vec<ListStats>) {
        let norms = vec![1.0f32; 1500];
        let mut store = ListStore::default();
        let mut encoder = ListEncoder::new();
        let stats = [(500, 3), (300, 2), (400, 1)].map(|(n, stride)| {
            let list = sample_list(n, stride);
            encoder
                .encode_into(
                    &mut store,
                    list.docs(),
                    list.tfs(),
                    SchemeChoice::Fixed(Scheme::Vb),
                    &bm25(),
                    2.0,
                    &norms,
                )
                .unwrap()
        });
        (store, stats.to_vec())
    }

    #[test]
    fn a_descriptor_never_reaches_a_neighbours_bytes() {
        let (mut store, stats) = shared_store();
        let middle = store.view(1, stats[1]);
        let (own_len, first_len) = (middle.data.len() as u32, middle.blocks[0].len);
        assert_eq!(middle.decode_all_into(&mut DecodeScratch::new()), Ok(()));

        // The bytes claimed below all exist in the store — they are the
        // next list's, or the previous one's tail is where a wrapped
        // offset would land — but not in the middle list's payload.
        let at = store.block_range(1).start;
        for (offset, len) in [
            (own_len, first_len),
            (own_len - first_len + 1, first_len),
            (0, own_len + 1),
            (u32::MAX, 2),
        ] {
            store.blocks[at].offset = offset;
            store.blocks[at].len = len;
            let err = store
                .view(1, stats[1])
                .decode_block(0, &mut Vec::new(), &mut Vec::new())
                .unwrap_err();
            assert!(
                matches!(err, Error::CorruptMetadata { .. }),
                "{offset}+{len}: {err}"
            );
        }
    }

    #[test]
    fn a_mutated_list_leaves_the_store_it_shared() {
        let (store, stats) = shared_store();
        let lists = store.seal(stats);
        let pristine = lists.clone();
        let mut victim = lists[1].clone();
        let address = victim.image_offset();
        assert_eq!(
            address,
            lists[0].meta_bytes() + lists[0].data_bytes() as u64
        );

        victim.data_mut().extend_from_slice(&[0xAB; 7]);
        victim.blocks_mut().pop();
        assert_eq!(victim.data_bytes(), lists[1].data_bytes() + 7);
        assert_eq!(victim.n_blocks(), lists[1].n_blocks() - 1);
        assert_eq!(
            victim.image_offset(),
            address,
            "a detached list keeps its place"
        );
        assert_eq!(lists, pristine, "no other handle saw the mutation");
        assert_eq!(
            lists[2].image_offset(),
            address + lists[1].meta_bytes() + lists[1].data_bytes() as u64
        );
    }

    #[test]
    fn a_block_size_outside_one_to_the_limit_is_a_typed_error() {
        let list = sample_list(300, 2);
        let norms = vec![1.0f32; 600];
        let encode = |block_size| {
            EncodedList::encode_with_block_size(&list, Scheme::Bp, &bm25(), 1.0, &norms, block_size)
        };
        for block_size in [0, MAX_BLOCK_VALUES + 1] {
            assert_eq!(
                encode(block_size),
                Err(Error::InvalidBlockSize {
                    block_size,
                    max: MAX_BLOCK_VALUES
                })
            );
        }
        assert_eq!(encode(1).unwrap().n_blocks(), 300);
        assert_eq!(encode(MAX_BLOCK_VALUES).unwrap().n_blocks(), 1);
    }

    #[test]
    fn meta_bytes_accounting() {
        let list = sample_list(129, 1);
        let enc = EncodedList::encode(&list, Scheme::Bp, &bm25(), 1.0, &[1.0; 130]).unwrap();
        assert_eq!(enc.meta_bytes(), 2 * BLOCK_META_BYTES);
    }
}
