//! Flat virtual-address layout of an index image in the SCM pool.
//!
//! The simulators need realistic addresses so that channel interleaving and
//! sequential-stream detection behave as they would for a real memory
//! image. The layout mirrors what `init()` loads into the pool
//! (Section IV-D): per term, a metadata array (19 B per block) followed by
//! the compressed block data; after all lists, the per-document scoring
//! metadata table (4 B per document).

use crate::{DocId, InvertedIndex, TermId, BLOCK_META_BYTES};

/// Base virtual address of the index image. Non-zero so address arithmetic
/// bugs surface, 2 GiB-aligned to play nicely with the paper's huge pages.
pub(crate) const IMAGE_BASE: u64 = 0x8000_0000;

/// Address map of one index image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexImage {
    meta_addr: Vec<u64>,
    data_addr: Vec<u64>,
    norms_addr: u64,
    total_bytes: u64,
    n_docs: u32,
}

impl IndexImage {
    /// Lays out `index` starting at `IMAGE_BASE`.
    pub fn new(index: &InvertedIndex) -> Self {
        let mut cursor = IMAGE_BASE;
        let mut meta_addr = Vec::with_capacity(index.n_terms());
        let mut data_addr = Vec::with_capacity(index.n_terms());
        for id in index.term_ids() {
            let list = index.list(id);
            meta_addr.push(cursor);
            cursor += list.n_blocks() as u64 * BLOCK_META_BYTES;
            data_addr.push(cursor);
            cursor += list.data_bytes() as u64;
        }
        let norms_addr = cursor;
        cursor += u64::from(index.n_docs()) * 4;
        IndexImage {
            meta_addr,
            data_addr,
            norms_addr,
            total_bytes: cursor - IMAGE_BASE,
            n_docs: index.n_docs(),
        }
    }

    /// Address of the block-metadata array of a term's list.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn meta_addr(&self, term: TermId) -> u64 {
        self.meta_addr[term as usize]
    }

    /// Address of the compressed data area of a term's list.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn data_addr(&self, term: TermId) -> u64 {
        self.data_addr[term as usize]
    }

    /// Address of a document's 4-byte scoring metadata (BM25 norm).
    pub fn norm_addr(&self, doc: DocId) -> u64 {
        self.norms_addr + u64::from(doc) * 4
    }

    /// Total bytes occupied by the image.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// One past the highest address of the image.
    pub fn end_addr(&self) -> u64 {
        IMAGE_BASE + self.total_bytes
    }
}

/// A scratch region for intermediate data / results, placed after the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchRegion {
    cursor: u64,
}

impl ScratchRegion {
    /// Creates a scratch region starting after `image`.
    pub fn after(image: &IndexImage) -> Self {
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
    use super::*;
    use crate::IndexBuilder;

    fn image() -> (InvertedIndex, IndexImage) {
        let idx = IndexBuilder::new()
            .add_documents(["a b c d", "a c", "b d", "a a a"])
            .build()
            .unwrap();
        let img = IndexImage::new(&idx);
        (idx, img)
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let (idx, img) = image();
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
        let (_, img) = image();
        assert_eq!(img.norm_addr(3) - img.norm_addr(0), 12);
    }

    #[test]
    fn scratch_after_image() {
        let (_, img) = image();
        let mut s = ScratchRegion::after(&img);
        let a = s.alloc(100);
        assert!(a >= img.end_addr());
        assert_eq!(a % 4096, 0);
        let b = s.alloc(8);
        assert_eq!(b, a + 100);
    }

    #[test]
    fn total_bytes_consistent() {
        let (idx, img) = image();
        let expect: u64 =
            idx.total_meta_bytes() + idx.total_data_bytes() + u64::from(idx.n_docs()) * 4;
        assert_eq!(img.total_bytes(), expect);
    }
}
