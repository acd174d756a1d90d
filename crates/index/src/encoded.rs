//! Block-structured encoded posting lists with the paper's per-block
//! metadata (Section IV-A "Index Structure and Per-block Metadata").

use crate::{Bm25, DocId, Error, PostingList, SchemeChoice};
use boss_compress::{codec_for, BlockInfo, Scheme, ALL_SCHEMES};

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

    /// Whether the docID range `[first_doc, last_doc]` overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: DocId, hi: DocId) -> bool {
        self.first_doc <= hi && lo <= self.last_doc
    }
}

/// A posting list encoded into 128-value blocks under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedList {
    scheme: Scheme,
    blocks: Vec<BlockMeta>,
    data: Vec<u8>,
    df: u32,
    idf: f32,
    /// List-level maximum term score (feeds the WAND lookup table).
    max_score: f32,
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
    /// Same as [`EncodedList::encode`].
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or above the codec block limit.
    pub fn encode_with_block_size(
        list: &PostingList,
        scheme: Scheme,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
        block_size: usize,
    ) -> Result<Self, Error> {
        ListEncoder::new().encode_blocked(
            list.docs(),
            list.tfs(),
            SchemeChoice::Fixed(scheme),
            bm25,
            idf,
            norms,
            block_size,
        )
    }

    /// Reassembles a list from its serialized parts — the segment-file
    /// load path. Crate-private: callers outside the crate go through
    /// [`crate::segment`], whose readers validate the parts; the decode
    /// paths themselves treat blocks/data as untrusted regardless.
    pub(crate) fn from_parts(
        scheme: Scheme,
        blocks: Vec<BlockMeta>,
        data: Vec<u8>,
        df: u32,
        idf: f32,
        max_score: f32,
    ) -> Self {
        EncodedList {
            scheme,
            blocks,
            data,
            df,
            idf,
            max_score,
        }
    }

    /// The compression scheme used.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Block metadata records.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Document frequency (number of postings).
    pub fn df(&self) -> u32 {
        self.df
    }

    /// The term's inverse document frequency.
    pub fn idf(&self) -> f32 {
        self.idf
    }

    /// List-level maximum term score.
    pub fn max_score(&self) -> f32 {
        self.max_score
    }

    /// Total encoded data bytes (excluding metadata).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw encoded data area (docID gaps + tf sections of all blocks).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the encoded data area — a corruption-harness
    /// hook. Decoders must surface any mutation made here as a typed
    /// error or decode to bit-correct values; they must never panic.
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Mutable access to the block metadata records — a corruption-harness
    /// hook, same contract as [`EncodedList::data_mut`].
    pub fn blocks_mut(&mut self) -> &mut Vec<BlockMeta> {
        &mut self.blocks
    }

    /// Metadata bytes as accounted by the paper (19 B per block).
    pub fn meta_bytes(&self) -> u64 {
        self.blocks.len() as u64 * BLOCK_META_BYTES
    }

    /// The sanitized block-max upper bound of block `i`: the stored
    /// per-block max term score, or `+∞` when the stored value cannot be
    /// an upper bound of anything (NaN, negative, or out of range).
    ///
    /// Pruning built on this accessor degrades safely under metadata
    /// corruption: an implausible block-max turns into "never skip this
    /// block", so the block is decoded and scored exhaustively instead of
    /// silently dropping documents. A *plausible* finite lowering is
    /// undetectable without decoding the block — that case is covered by
    /// the decode-time containment checks and the score-vs-bound
    /// verification in [`crate::prune`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (callers iterate `0..n_blocks()`).
    pub(crate) fn block_max_ub(&self, i: usize) -> f32 {
        let m = self.blocks[i].max_score;
        if m.is_finite() && m >= 0.0 {
            m
        } else {
            f32::INFINITY
        }
    }

    /// The first block at or after `from` that can contain `target`
    /// (i.e. whose `last_doc >= target`), or `n_blocks()` when no such
    /// block remains. A binary search over the block directory — the
    /// skip-advance primitive of the block-max algorithms.
    pub fn skip_to_block(&self, from: usize, target: DocId) -> usize {
        let tail = &self.blocks[from.min(self.blocks.len())..];
        from.min(self.blocks.len()) + tail.partition_point(|m| m.last_doc < target)
    }

    /// The docID the d-gap prefix sum of block `i` is seeded with: the
    /// previous block's last docID, or 0 for the first block (whose first
    /// stored gap is the absolute docID).
    fn block_base(&self, i: usize) -> DocId {
        if i == 0 {
            0
        } else {
            self.blocks[i - 1].last_doc
        }
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
    /// the data area or its sub-stream counts disagree, and codec errors
    /// on corrupt encoded bytes.
    pub fn decode_block(
        &self,
        i: usize,
        docs: &mut Vec<DocId>,
        tfs: &mut Vec<u32>,
    ) -> Result<(), Error> {
        let meta = self.blocks.get(i).ok_or(Error::BlockOutOfRange {
            block: i,
            n_blocks: self.blocks.len(),
        })?;
        let codec = codec_for(self.scheme);
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

        codec.decode_d1(delta_part, &meta.delta_info, self.block_base(i), docs)?;

        let tf_base = tfs.len();
        codec.decode(tf_part, &meta.tf_info, tfs)?;
        for tf in &mut tfs[tf_base..] {
            *tf += 1;
        }
        Ok(())
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
        scratch.clear();
        // Clamp each block's claimed count so corrupt metadata cannot turn
        // the up-front reserve into an oversized allocation; the per-block
        // decode rejects the bogus count with a typed error anyway.
        let total: usize = self
            .blocks
            .iter()
            .map(|b| b.count().min(boss_compress::MAX_BLOCK_VALUES))
            .sum();
        scratch.docs.reserve(total);
        scratch.tfs.reserve(total);
        for i in 0..self.blocks.len() {
            self.decode_block(i, &mut scratch.docs, &mut scratch.tfs)?;
        }
        Ok(())
    }
}

/// The one place a posting list becomes an [`EncodedList`]: every
/// construction path — [`crate::IndexBuilder::build`], SPIMI spills, the
/// segment merge and [`crate::shard::ShardedIndex::split`] — encodes
/// through it, so the hybrid tie-break that is the index's on-disk
/// identity (first of [`ALL_SCHEMES`] wins ties, strictly smaller
/// replaces, a scheme that cannot represent some block is skipped) is
/// decided by one loop.
///
/// One call computes what no scheme changes — d-gaps, `tf - 1`, per-block
/// and list maxima of the BM25 term score — once, then *sizes* the blocks
/// under each candidate scheme ([`boss_compress::Codec::encoded_len`]:
/// the bytes of an encode without the output) and encodes them once,
/// under the winner. The scratch is reused across calls; the returned
/// list owns exactly-sized copies.
#[derive(Debug, Default)]
pub struct ListEncoder {
    gaps: Vec<u32>,
    tfs_m1: Vec<u32>,
    block_max: Vec<f32>,
    data: Vec<u8>,
    blocks: Vec<BlockMeta>,
}

impl ListEncoder {
    /// An encoder with empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the posting columns `docs`/`tfs` into [`BLOCK_SIZE`]-value
    /// blocks under `choice`, computing block-max scores with `bm25`, the
    /// term's `idf`, and the per-document norms.
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
        self.encode_blocked(docs, tfs, choice, bm25, idf, norms, BLOCK_SIZE)
    }

    /// [`ListEncoder::encode`] with an explicit block size (the ablation
    /// study's entry, via [`EncodedList::encode_with_block_size`]).
    #[allow(clippy::too_many_arguments)]
    fn encode_blocked(
        &mut self,
        docs: &[DocId],
        tfs: &[u32],
        choice: SchemeChoice,
        bm25: &Bm25,
        idf: f32,
        norms: &[f32],
        block_size: usize,
    ) -> Result<EncodedList, Error> {
        assert!(block_size > 0 && block_size <= boss_compress::MAX_BLOCK_VALUES);
        assert_eq!(docs.len(), tfs.len(), "column lengths must match");

        self.gaps.clear();
        self.tfs_m1.clear();
        self.block_max.clear();
        let mut prev = 0;
        for (at, (&doc, &tf)) in docs.iter().zip(tfs).enumerate() {
            if at > 0 && doc <= prev {
                return Err(Error::UnsortedPostings { at });
            }
            if tf == 0 {
                return Err(Error::ZeroTermFrequency { at });
            }
            // The first stored gap is the absolute docID.
            self.gaps.push(doc - prev);
            self.tfs_m1.push(tf - 1);
            prev = doc;
        }
        let mut list_max = 0.0f32;
        for (bdocs, btfs) in docs.chunks(block_size).zip(tfs.chunks(block_size)) {
            let mut max_score = 0.0f32;
            for (&doc, &tf) in bdocs.iter().zip(btfs) {
                let s = bm25.term_score(idf, tf, norms[doc as usize]);
                if s > max_score {
                    max_score = s;
                }
            }
            list_max = list_max.max(max_score);
            self.block_max.push(max_score);
        }

        let scheme = match choice {
            SchemeChoice::Fixed(scheme) => scheme,
            SchemeChoice::Hybrid => {
                let mut best = None;
                for scheme in ALL_SCHEMES {
                    // Only a strictly smaller data area replaces the best.
                    let limit = best.map_or(usize::MAX, |(_, len)| len);
                    if let Some(len) = self.data_len_under(scheme, block_size, limit) {
                        best = Some((scheme, len));
                    }
                }
                let (scheme, _) = best.ok_or(Error::CorruptMetadata {
                    reason: "no compression scheme could encode the posting list",
                })?;
                scheme
            }
        };
        self.encode_under(scheme, docs, block_size)?;

        Ok(EncodedList {
            scheme,
            blocks: self.blocks.clone(),
            data: self.data.clone(),
            df: docs.len() as u32,
            idf,
            max_score: list_max,
        })
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
    /// `scheme` into the output buffers.
    fn encode_under(
        &mut self,
        scheme: Scheme,
        docs: &[DocId],
        block_size: usize,
    ) -> Result<(), Error> {
        let codec = codec_for(scheme);
        let (data, blocks) = (&mut self.data, &mut self.blocks);
        data.clear();
        blocks.clear();
        let streams = self
            .gaps
            .chunks(block_size)
            .zip(self.tfs_m1.chunks(block_size));
        for ((bdocs, (gaps, tfs_m1)), &max_score) in
            docs.chunks(block_size).zip(streams).zip(&self.block_max)
        {
            let offset = data.len() as u32;
            let delta_info = codec.encode(gaps, data)?;
            let tf_offset = data.len() as u32 - offset;
            let tf_info = codec.encode(tfs_m1, data)?;
            let len = data.len() as u32 - offset;
            blocks.push(BlockMeta {
                first_doc: bdocs[0],
                last_doc: bdocs[bdocs.len() - 1],
                max_score,
                offset,
                len,
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
            .map(|b| b.count().min(boss_compress::MAX_BLOCK_VALUES))
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
    fn overlap_check() {
        let m = BlockMeta {
            first_doc: 100,
            last_doc: 200,
            max_score: 0.0,
            offset: 0,
            len: 0,
            tf_offset: 0,
            delta_info: BlockInfo::default(),
            tf_info: BlockInfo::default(),
        };
        assert!(m.overlaps(150, 160));
        assert!(m.overlaps(0, 100));
        assert!(m.overlaps(200, 300));
        assert!(!m.overlaps(0, 99));
        assert!(!m.overlaps(201, 999));
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
        let enc = EncodedList::encode(&PostingList::new(), Scheme::Bp, &bm25(), 1.0, &[]).unwrap();
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
                scratch.docs.capacity() <= 3 * boss_compress::MAX_BLOCK_VALUES,
                "scheme {s} reserved for corrupt counts"
            );
        }
    }

    #[test]
    fn meta_bytes_accounting() {
        let list = sample_list(129, 1);
        let enc = EncodedList::encode(&list, Scheme::Bp, &bm25(), 1.0, &[1.0; 130]).unwrap();
        assert_eq!(enc.meta_bytes(), 2 * BLOCK_META_BYTES);
    }
}
