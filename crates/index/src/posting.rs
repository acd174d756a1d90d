//! Raw (uncompressed) posting lists.

use crate::{DocId, Error};

/// One posting: a document that contains the term, with its frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Document identifier.
    pub doc: DocId,
    /// Number of occurrences of the term in the document (>= 1).
    pub tf: u32,
}

/// An uncompressed posting list: docIDs strictly increasing, tf >= 1.
///
/// Stored as two parallel columns, which is both cache-friendlier and the
/// shape the block encoder consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostingList {
    docs: Vec<DocId>,
    tfs: Vec<u32>,
}

impl PostingList {
    /// Builds a list from parallel columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsortedPostings`] if docIDs are not strictly
    /// increasing, and [`Error::ZeroTermFrequency`] for a zero tf.
    pub fn from_columns(docs: Vec<DocId>, tfs: Vec<u32>) -> Result<Self, Error> {
        assert_eq!(docs.len(), tfs.len(), "column lengths must match");
        for i in 0..docs.len() {
            if i > 0 && docs[i] <= docs[i - 1] {
                return Err(Error::UnsortedPostings { at: i });
            }
            if tfs[i] == 0 {
                return Err(Error::ZeroTermFrequency { at: i });
            }
        }
        Ok(PostingList { docs, tfs })
    }

    /// Number of postings (the term's document frequency).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The docID column.
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// The term-frequency column.
    pub fn tfs(&self) -> &[u32] {
        &self.tfs
    }

    /// Iterates over `(doc, tf)` postings.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.docs
            .iter()
            .zip(&self.tfs)
            .map(|(&doc, &tf)| Posting { doc, tf })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn from_columns_validates() {
        assert!(PostingList::from_columns(vec![1, 2, 3], vec![1, 1, 1]).is_ok());
        assert!(matches!(
            PostingList::from_columns(vec![1, 1], vec![1, 1]),
            Err(Error::UnsortedPostings { at: 1 })
        ));
        assert!(matches!(
            PostingList::from_columns(vec![3, 2], vec![1, 1]),
            Err(Error::UnsortedPostings { at: 1 })
        ));
        assert!(matches!(
            PostingList::from_columns(vec![1, 2], vec![1, 0]),
            Err(Error::ZeroTermFrequency { at: 1 })
        ));
    }

    #[test]
    fn iter_yields_pairs() {
        let l = PostingList::from_columns(vec![2, 9], vec![1, 4]).unwrap();
        let v: Vec<_> = l.iter().collect();
        assert_eq!(
            v,
            vec![Posting { doc: 2, tf: 1 }, Posting { doc: 9, tf: 4 }]
        );
    }

    #[test]
    fn doc_zero_is_legal() {
        let l = PostingList::from_columns(vec![0, 1], vec![1, 1]).unwrap();
        assert_eq!(l.docs()[0], 0);
    }
}
