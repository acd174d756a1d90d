//! Index error type.

/// Errors produced while building or querying an index.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Posting docIDs were not strictly increasing.
    UnsortedPostings {
        /// The position of the violation.
        at: usize,
    },
    /// A term frequency of zero was supplied (postings imply tf >= 1).
    ZeroTermFrequency {
        /// The position of the violation.
        at: usize,
    },
    /// A query referenced a term that is not in the index vocabulary.
    UnknownTerm {
        /// The missing term.
        term: String,
    },
    /// A query expression is structurally invalid (empty operator, no terms).
    InvalidQuery {
        /// Human-readable description.
        reason: String,
    },
    /// An encoded block failed to decode.
    Codec(boss_compress::Error),
    /// Per-block metadata was internally inconsistent (offsets or lengths
    /// outside the data area, mismatched sub-stream counts).
    CorruptMetadata {
        /// Human-readable description.
        reason: &'static str,
    },
    /// A block index was outside the list.
    BlockOutOfRange {
        /// The requested block index.
        block: usize,
        /// Number of blocks in the list.
        n_blocks: usize,
    },
    /// A simulated memory read was flagged uncorrectable by the active
    /// fault plan (see `boss_scm::FaultPlan`).
    ReadFault {
        /// Device address of the faulted read.
        addr: u64,
    },
    /// A shard split was requested with an impossible shard count: zero,
    /// or more shards than the corpus has documents.
    InvalidShardCount {
        /// The requested number of shards.
        n_shards: u32,
        /// Documents in the corpus being split.
        n_docs: u32,
    },
    /// The same term reached the builder more than once: injected twice
    /// via [`crate::IndexBuilder::add_posting_list`], or injected and
    /// also found in the text of
    /// [`crate::IndexBuilder::add_documents`] (in either order).
    /// Accumulating lists for one term used to be silent last-write-wins
    /// territory; it is now a build-time error so conflicting inputs
    /// cannot merge unnoticed.
    DuplicateTerm {
        /// The term supplied more than once.
        term: String,
    },
    /// A stock decompressor configuration did not parse, so a device
    /// cannot price the blocks it decodes. The configurations ship inside
    /// `boss-decomp`; this is a defect of the build, never of a query.
    DecompressorConfig {
        /// The parser's diagnostic.
        reason: String,
    },
    /// Both explicit document lengths and tokenized documents were
    /// supplied to the builder. Tokenization derives lengths itself, so
    /// one source would silently overwrite the other.
    ConflictingDocLens,
    /// A list was to be encoded in blocks of no postings, or of more than
    /// one block descriptor can address.
    InvalidBlockSize {
        /// The requested number of postings per block.
        block_size: usize,
        /// The largest block a descriptor can address.
        max: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnsortedPostings { at } => {
                write!(f, "posting docIDs not strictly increasing at position {at}")
            }
            Error::ZeroTermFrequency { at } => {
                write!(f, "zero term frequency at position {at}")
            }
            Error::UnknownTerm { term } => write!(f, "term {term:?} is not in the index"),
            Error::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            Error::Codec(e) => write!(f, "codec error: {e}"),
            Error::CorruptMetadata { reason } => {
                write!(f, "corrupt block metadata: {reason}")
            }
            Error::BlockOutOfRange { block, n_blocks } => {
                write!(f, "block {block} out of range for a {n_blocks}-block list")
            }
            Error::ReadFault { addr } => {
                write!(f, "uncorrectable memory fault reading address {addr:#x}")
            }
            Error::InvalidShardCount { n_shards, n_docs } => {
                write!(f, "cannot split {n_docs} documents into {n_shards} shards")
            }
            Error::DuplicateTerm { term } => {
                write!(f, "posting list for term {term:?} was supplied twice")
            }
            Error::DecompressorConfig { reason } => {
                write!(f, "stock decompressor configuration is broken: {reason}")
            }
            Error::ConflictingDocLens => {
                write!(
                    f,
                    "explicit doc_lens conflict with tokenized add_documents lengths"
                )
            }
            Error::InvalidBlockSize { block_size, max } => {
                write!(f, "block size {block_size} is outside 1..={max}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<boss_compress::Error> for Error {
    fn from(e: boss_compress::Error) -> Self {
        Error::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::UnknownTerm {
            term: "zebra".into(),
        };
        assert!(e.to_string().contains("zebra"));
        let e: Error = boss_compress::Error::Corrupt { reason: "x" }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
