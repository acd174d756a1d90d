//! The dynamic-pruning algorithm family: which query plan a traversal
//! uses to exploit the term-level and block-level score upper bounds the
//! index already pays for (19 B of metadata per block, including the
//! block-max term score).
//!
//! Every algorithm is *safe*: its top-k is bit-identical to the
//! exhaustive oracle ([`crate::reference::evaluate`]) for every query,
//! every `k`, and every corpus — the pruning only changes which blocks
//! are decoded and which documents are examined, never the result.

/// A dynamic-pruning query plan, selectable per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryAlgorithm {
    /// No dynamic pruning: the traversal the engine always had.
    #[default]
    Exhaustive,
    /// Term-level upper bounds split the lists into an essential and a
    /// non-essential set; candidates come only from essential lists and
    /// non-essential lists are probed with early abandoning.
    MaxScore,
    /// Document-level WAND: a pivot over the sorted upper-bound frontier
    /// skips documents whose term-level bound cannot beat the threshold.
    Wand,
    /// Block-Max WAND: WAND pivoting refined by the per-block max scores,
    /// skipping whole blocks before they are ever decoded.
    BlockMaxWand,
    /// MaxScore with block-max refinement of the essential candidates.
    BlockMaxMaxScore,
}

/// All algorithms, in sweep order (exhaustive first as the baseline).
pub const ALL_ALGORITHMS: [QueryAlgorithm; 5] = [
    QueryAlgorithm::Exhaustive,
    QueryAlgorithm::MaxScore,
    QueryAlgorithm::Wand,
    QueryAlgorithm::BlockMaxWand,
    QueryAlgorithm::BlockMaxMaxScore,
];

impl QueryAlgorithm {
    /// Short label used by bench flags, TSV columns, and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            QueryAlgorithm::Exhaustive => "exhaustive",
            QueryAlgorithm::MaxScore => "maxscore",
            QueryAlgorithm::Wand => "wand",
            QueryAlgorithm::BlockMaxWand => "bmw",
            QueryAlgorithm::BlockMaxMaxScore => "bmm",
        }
    }

    /// Whether this plan prunes at all (everything but `Exhaustive`).
    pub fn prunes(self) -> bool {
        self != QueryAlgorithm::Exhaustive
    }

    /// Whether this plan consults the per-block max scores (and can skip
    /// a block before decoding it).
    pub fn is_block_max(self) -> bool {
        matches!(
            self,
            QueryAlgorithm::BlockMaxWand | QueryAlgorithm::BlockMaxMaxScore
        )
    }
}

impl std::fmt::Display for QueryAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for QueryAlgorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(QueryAlgorithm::Exhaustive),
            "maxscore" | "max-score" => Ok(QueryAlgorithm::MaxScore),
            "wand" => Ok(QueryAlgorithm::Wand),
            "bmw" | "block-max-wand" => Ok(QueryAlgorithm::BlockMaxWand),
            "bmm" | "block-max-maxscore" => Ok(QueryAlgorithm::BlockMaxMaxScore),
            other => Err(format!(
                "unknown algorithm {other:?} (expected exhaustive|maxscore|wand|bmw|bmm)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn labels_round_trip_through_from_str() {
        for a in ALL_ALGORITHMS {
            assert_eq!(a.label().parse::<QueryAlgorithm>().unwrap(), a);
        }
        assert_eq!(
            "Block-Max-Wand".parse::<QueryAlgorithm>().unwrap(),
            QueryAlgorithm::BlockMaxWand
        );
        assert!("nope".parse::<QueryAlgorithm>().is_err());
    }

    #[test]
    fn classification() {
        assert!(!QueryAlgorithm::Exhaustive.prunes());
        assert!(QueryAlgorithm::MaxScore.prunes());
        assert!(QueryAlgorithm::BlockMaxWand.is_block_max());
        assert!(QueryAlgorithm::BlockMaxMaxScore.is_block_max());
        assert!(!QueryAlgorithm::Wand.is_block_max());
        assert!(!QueryAlgorithm::MaxScore.is_block_max());
        assert_eq!(QueryAlgorithm::default(), QueryAlgorithm::Exhaustive);
    }
}
