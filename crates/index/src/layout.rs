//! Flat virtual-address layout of an index image in the SCM pool.
//!
//! The simulators need realistic addresses so that channel interleaving and
//! sequential-stream detection behave as they would for a real memory
//! image. The layout mirrors what `init()` loads into the pool
//! (Section IV-D): per term, a metadata array (19 B per block) followed by
//! the compressed block data; after all lists, the per-document scoring
//! metadata table (4 B per document).
//!
//! The index is held in that order — all descriptors in one vector, all
//! payload in another, both by term id — so the map is arithmetic on where
//! a list starts in the two: `d` descriptors and `p` payload bytes laid
//! out before it put its metadata array at `IMAGE_BASE + 19·d + p`, and
//! its data area right after its own descriptors. Nothing is tabulated
//! per term, and an [`IndexImage`] costs nothing to make.

use crate::{DocId, InvertedIndex, TermId};

/// Base virtual address of the index image. Non-zero so address arithmetic
/// bugs surface, 2 GiB-aligned to play nicely with the paper's huge pages.
pub(crate) const IMAGE_BASE: u64 = 0x8000_0000;

/// Address map of one index image: a view of the index it was made from.
#[derive(Debug, Clone, Copy)]
pub struct IndexImage<'a> {
    index: &'a InvertedIndex,
    norms_addr: u64,
}

impl<'a> IndexImage<'a> {
    /// The image of `index`, starting at `IMAGE_BASE`.
    pub fn new(index: &'a InvertedIndex) -> Self {
        // The norm table follows the last list.
        let lists_end = index.n_terms().checked_sub(1).map_or(IMAGE_BASE, |last| {
            let list = index.list(last as TermId);
            IMAGE_BASE + list.image_offset() + list.meta_bytes() + list.data_bytes() as u64
        });
        IndexImage {
            index,
            norms_addr: lists_end,
        }
    }

    /// Address of the block-metadata array of a term's list.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn meta_addr(&self, term: TermId) -> u64 {
        IMAGE_BASE + self.index.list(term).image_offset()
    }

    /// Address of the compressed data area of a term's list.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn data_addr(&self, term: TermId) -> u64 {
        let list = self.index.list(term);
        IMAGE_BASE + list.image_offset() + list.meta_bytes()
    }

    /// Address of a document's 4-byte scoring metadata (BM25 norm).
    pub fn norm_addr(&self, doc: DocId) -> u64 {
        self.norms_addr + u64::from(doc) * 4
    }

    /// Total bytes occupied by the image.
    pub fn total_bytes(&self) -> u64 {
        self.end_addr() - IMAGE_BASE
    }

    /// One past the highest address of the image.
    pub fn end_addr(&self) -> u64 {
        self.norms_addr + u64::from(self.index.n_docs()) * 4
    }
}

/// A scratch region for intermediate data / results, placed after the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchRegion {
    cursor: u64,
}

impl ScratchRegion {
    /// Creates a scratch region starting after `image`.
    pub fn after(image: &IndexImage<'_>) -> Self {
        // Align to the next 4 KiB.
        ScratchRegion {
            cursor: image.end_addr().div_ceil(4096) * 4096,
        }
    }

    /// Allocates `bytes` and returns the address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let a = self.cursor;
        self.cursor += bytes;
        a
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{IndexBuilder, BLOCK_META_BYTES};

    fn index() -> InvertedIndex {
        IndexBuilder::new()
            .add_documents(["a b c d", "a c", "b d", "a a a"])
            .build()
            .unwrap()
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let idx = index();
        let img = IndexImage::new(&idx);
        let mut prev_end = IMAGE_BASE;
        for id in idx.term_ids() {
            assert_eq!(img.meta_addr(id), prev_end);
            let meta_end = img.meta_addr(id) + idx.list(id).n_blocks() as u64 * BLOCK_META_BYTES;
            assert_eq!(img.data_addr(id), meta_end);
            prev_end = meta_end + idx.list(id).data_bytes() as u64;
        }
        assert_eq!(img.norm_addr(0), prev_end);
        assert_eq!(img.end_addr(), prev_end + u64::from(idx.n_docs()) * 4);
    }

    #[test]
    fn norm_addresses_stride_4() {
        let idx = index();
        let img = IndexImage::new(&idx);
        assert_eq!(img.norm_addr(3) - img.norm_addr(0), 12);
    }

    #[test]
    fn scratch_after_image() {
        let idx = index();
        let img = IndexImage::new(&idx);
        let mut s = ScratchRegion::after(&img);
        let a = s.alloc(100);
        assert!(a >= img.end_addr());
        assert_eq!(a % 4096, 0);
        let b = s.alloc(8);
        assert_eq!(b, a + 100);
    }

    #[test]
    fn total_bytes_consistent() {
        let idx = index();
        let img = IndexImage::new(&idx);
        let expect: u64 =
            idx.total_meta_bytes() + idx.total_data_bytes() + u64::from(idx.n_docs()) * 4;
        assert_eq!(img.total_bytes(), expect);
    }
}
