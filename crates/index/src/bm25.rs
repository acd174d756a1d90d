//! Okapi BM25 scoring (Section II-B of the paper), with the invariant
//! portion precomputed per document exactly as BOSS does: at runtime a term
//! score costs one division, one multiplication and one addition.

use serde::{Deserialize, Serialize};

/// BM25 free parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation; the paper notes `k1 ∈ [1.2, 2.0]`.
    pub k1: f32,
    /// Length-normalization strength; the paper uses `b = 0.75`.
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// A BM25 scorer bound to corpus statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25 {
    params: Bm25Params,
    n_docs: u32,
    avgdl: f32,
}

impl Bm25 {
    /// Creates a scorer for a corpus of `n_docs` documents with average
    /// length `avgdl`.
    ///
    /// # Panics
    ///
    /// Panics if `n_docs == 0` or `avgdl <= 0`.
    pub fn new(params: Bm25Params, n_docs: u32, avgdl: f32) -> Self {
        assert!(n_docs > 0, "corpus must contain documents");
        assert!(avgdl > 0.0, "average document length must be positive");
        Bm25 {
            params,
            n_docs,
            avgdl,
        }
    }

    /// The free parameters.
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// Inverse document frequency of a term appearing in `df` documents:
    /// `ln((N - df + 0.5) / (df + 0.5) + 1)`.
    pub fn idf(&self, df: u32) -> f32 {
        let n = self.n_docs as f32;
        let df = df as f32;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// The per-document invariant `K = k1 * (1 - b + b * |D| / avgdl)`.
    ///
    /// This is the 4-byte scoring metadata BOSS stores per document so that
    /// the runtime term score needs only `idf * tf * (k1+1) / (tf + K)`.
    pub fn doc_norm(&self, doc_len: u32) -> f32 {
        let Bm25Params { k1, b } = self.params;
        k1 * (1.0 - b + b * doc_len as f32 / self.avgdl)
    }

    /// Term score given the term's `idf`, its frequency `tf` in the
    /// document, and the document's precomputed [`Self::doc_norm`].
    pub fn term_score(&self, idf: f32, tf: u32, doc_norm: f32) -> f32 {
        let tf = tf as f32;
        idf * (tf * (self.params.k1 + 1.0)) / (tf + doc_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer() -> Bm25 {
        Bm25::new(Bm25Params::default(), 1000, 100.0)
    }

    #[test]
    fn idf_decreases_with_df() {
        let s = scorer();
        assert!(s.idf(1) > s.idf(10));
        assert!(s.idf(10) > s.idf(500));
        assert!(s.idf(999) > 0.0, "idf stays positive with the +1 form");
    }

    #[test]
    fn score_increases_with_tf_but_saturates() {
        let s = scorer();
        let idf = s.idf(10);
        let norm = s.doc_norm(100);
        let s1 = s.term_score(idf, 1, norm);
        let s2 = s.term_score(idf, 2, norm);
        let s100 = s.term_score(idf, 100, norm);
        let s101 = s.term_score(idf, 101, norm);
        assert!(s2 > s1);
        assert!(s101 > s100);
        assert!(s101 - s100 < s2 - s1, "diminishing returns");
        // As tf -> inf, score -> idf * (k1 + 1).
        assert!(s101 < idf * (s.params().k1 + 1.0));
    }

    #[test]
    fn longer_docs_score_lower() {
        let s = scorer();
        let idf = s.idf(10);
        let short = s.term_score(idf, 3, s.doc_norm(20));
        let long = s.term_score(idf, 3, s.doc_norm(500));
        assert!(short > long);
    }

    #[test]
    fn doc_norm_formula() {
        let s = scorer();
        // |D| == avgdl => K = k1.
        assert!((s.doc_norm(100) - 1.2).abs() < 1e-6);
        // b=0.75: K = k1 * (0.25 + 0.75*len/avgdl)
        assert!((s.doc_norm(0) - 1.2 * 0.25).abs() < 1e-6);
    }

    #[test]
    fn matches_unfactored_formula() {
        // Cross-check the precomputed-norm factorization against the
        // textbook formula from Section II-B.
        let s = Bm25::new(Bm25Params { k1: 1.5, b: 0.75 }, 5000, 87.3);
        let (df, tf, dl) = (123u32, 7u32, 140u32);
        let idf = s.idf(df);
        let got = s.term_score(idf, tf, s.doc_norm(dl));
        let k1 = 1.5f32;
        let b = 0.75f32;
        let expect =
            idf * (tf as f32 * (k1 + 1.0)) / (tf as f32 + k1 * (1.0 - b + b * dl as f32 / 87.3));
        assert!((got - expect).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "corpus must contain documents")]
    fn zero_docs_panics() {
        let _ = Bm25::new(Bm25Params::default(), 0, 1.0);
    }
}
