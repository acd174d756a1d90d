//! The Q1–Q6 query types of Table II and a TREC-like query sampler.

use crate::rng::{self, SeededRng};
use boss_index::{InvertedIndex, QueryExpr};
use rand::RngExt;

/// The six query types of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    /// 1 term: `A`.
    Q1,
    /// 2 terms: `A AND B`.
    Q2,
    /// 2 terms: `A OR B`.
    Q3,
    /// 4 terms: `A AND B AND C AND D`.
    Q4,
    /// 4 terms: `A OR B OR C OR D`.
    Q5,
    /// 4 terms: `A AND (B OR C OR D)`.
    Q6,
}

/// All types in Table II order.
pub const ALL_QUERY_TYPES: [QueryType; 6] = [
    QueryType::Q1,
    QueryType::Q2,
    QueryType::Q3,
    QueryType::Q4,
    QueryType::Q5,
    QueryType::Q6,
];

impl QueryType {
    /// Number of terms the type takes.
    pub fn n_terms(self) -> usize {
        match self {
            QueryType::Q1 => 1,
            QueryType::Q2 | QueryType::Q3 => 2,
            QueryType::Q4 | QueryType::Q5 | QueryType::Q6 => 4,
        }
    }

    /// The figure label ("Q1".."Q6").
    pub fn label(self) -> &'static str {
        match self {
            QueryType::Q1 => "Q1",
            QueryType::Q2 => "Q2",
            QueryType::Q3 => "Q3",
            QueryType::Q4 => "Q4",
            QueryType::Q5 => "Q5",
            QueryType::Q6 => "Q6",
        }
    }

    /// Builds the Table II expression over `terms`.
    ///
    /// # Panics
    ///
    /// Panics if `terms.len() != self.n_terms()`.
    pub fn build(self, terms: &[String]) -> QueryExpr {
        assert_eq!(
            terms.len(),
            self.n_terms(),
            "{self:?} takes {} terms",
            self.n_terms()
        );
        self.build_with(|i| QueryExpr::term(terms[i].clone()))
    }

    /// The Table II expression whose `i`-th term is `t(i)`.
    fn build_with(self, t: impl Fn(usize) -> QueryExpr) -> QueryExpr {
        match self {
            QueryType::Q1 => t(0),
            QueryType::Q2 => QueryExpr::and([t(0), t(1)]),
            QueryType::Q3 => QueryExpr::or([t(0), t(1)]),
            QueryType::Q4 => QueryExpr::and([t(0), t(1), t(2), t(3)]),
            QueryType::Q5 => QueryExpr::or([t(0), t(1), t(2), t(3)]),
            QueryType::Q6 => QueryExpr::and([t(0), QueryExpr::or([t(1), t(2), t(3)])]),
        }
    }
}

impl std::fmt::Display for QueryType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedQuery {
    /// Which Table II row this query instantiates.
    pub qtype: QueryType,
    /// The expression.
    pub expr: QueryExpr,
}

/// Why query sampling could not proceed. These conditions are reachable
/// from caller input (a tiny or degenerate corpus), so they are errors,
/// not panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleError {
    /// The index has no term with `df >= 2` to draw from.
    EmptyVocabulary,
    /// A query shape needs more distinct terms than the vocabulary has.
    NotEnoughTerms {
        /// Distinct terms the query shape requires.
        wanted: usize,
        /// Eligible terms the vocabulary offers.
        have: usize,
    },
    /// Rejection sampling failed to find enough *distinct* terms (an
    /// extremely skewed df distribution can starve the draw).
    SamplingStalled {
        /// Distinct terms the query shape requires.
        wanted: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::EmptyVocabulary => {
                write!(f, "index vocabulary has no term with df >= 2")
            }
            SampleError::NotEnoughTerms { wanted, have } => write!(
                f,
                "query shape needs {wanted} distinct terms but the vocabulary has {have}"
            ),
            SampleError::SamplingStalled { wanted } => write!(
                f,
                "df-weighted sampling could not draw {wanted} distinct terms"
            ),
        }
    }
}

impl std::error::Error for SampleError {}

/// Samples query terms the way the TREC Terabyte tracks skew: terms drawn
/// proportionally to document frequency, excluding the ultra-rare tail
/// real users seldom type.
///
/// A draw `u` in `0..total` picks the first term whose cumulative df
/// exceeds it. A guide table over `u`'s high bits narrows that search:
/// `guide[b]` is the term picked by `u = b << shift`, so every `u` of
/// slice `b` picks a term in `guide[b]..=guide[b + 1]` (integers, so the
/// table is exact).
#[derive(Debug)]
pub struct QuerySampler {
    terms: Vec<String>,
    cumulative: Vec<u64>,
    /// The last cumulative df; positive, as `new` rejects an empty
    /// vocabulary.
    total: u64,
    /// `u >> shift` is `u`'s slice of the guide table.
    shift: u32,
    /// `guide[b]`: the index `u = b << shift` picks, for every slice and
    /// the one past the last.
    guide: Vec<u32>,
    rng: SeededRng,
}

/// Guide-table slices per [`QuerySampler`]: at most `2^GUIDE_BITS`.
const GUIDE_BITS: u32 = 12;

impl QuerySampler {
    /// Builds a sampler over the index vocabulary.
    ///
    /// # Errors
    ///
    /// [`SampleError::EmptyVocabulary`] if no term has `df >= 2`.
    pub fn new(index: &InvertedIndex, seed: u64) -> Result<Self, SampleError> {
        let mut terms = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0u64;
        for id in index.term_ids() {
            let info = index.term_info(id);
            if info.df >= 2 {
                acc += u64::from(info.df);
                terms.push(info.text.to_owned());
                cumulative.push(acc);
            }
        }
        if terms.is_empty() {
            return Err(SampleError::EmptyVocabulary);
        }
        let shift = (u64::BITS - acc.leading_zeros()).saturating_sub(GUIDE_BITS);
        let guide = (0..=((acc - 1) >> shift) + 1)
            .map(|b| cumulative.partition_point(|&c| c <= b << shift) as u32)
            .collect();
        Ok(QuerySampler {
            terms,
            cumulative,
            total: acc,
            shift,
            guide,
            rng: rng::rng(seed),
        })
    }

    /// The index of a df-weighted term.
    fn sample_index(&mut self) -> usize {
        let u = self.rng.random_range(0..self.total);
        self.index_of(u)
    }

    /// The index of the term the draw `u` in `0..total` picks: the first
    /// whose cumulative df exceeds `u`.
    #[inline]
    fn index_of(&self, u: u64) -> usize {
        let b = (u >> self.shift) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cumulative[lo..hi].partition_point(|&c| c <= u)
    }

    /// Samples `n` distinct terms.
    ///
    /// # Errors
    ///
    /// [`SampleError::NotEnoughTerms`] if the vocabulary has fewer than
    /// `n` eligible terms, [`SampleError::SamplingStalled`] if rejection
    /// sampling cannot realize `n` distinct draws.
    pub fn sample_terms(&mut self, n: usize) -> Result<Vec<String>, SampleError> {
        let picked = self.sample_indices(n)?;
        Ok(picked.into_iter().map(|i| self.terms[i].clone()).collect())
    }

    /// [`QuerySampler::sample_terms`] as indices into `terms`. Terms are
    /// distinct strings, so distinct indices are distinct terms, and
    /// only the terms kept are ever cloned.
    fn sample_indices(&mut self, n: usize) -> Result<Vec<usize>, SampleError> {
        if n > self.terms.len() {
            return Err(SampleError::NotEnoughTerms {
                wanted: n,
                have: self.terms.len(),
            });
        }
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        let mut guard = 0;
        while picked.len() < n {
            let i = self.sample_index();
            if !picked.contains(&i) {
                picked.push(i);
            }
            guard += 1;
            if guard >= 10_000 {
                return Err(SampleError::SamplingStalled { wanted: n });
            }
        }
        Ok(picked)
    }

    /// Samples one query of the given type.
    ///
    /// # Errors
    ///
    /// As for [`QuerySampler::sample_terms`].
    pub fn sample(&mut self, qtype: QueryType) -> Result<TypedQuery, SampleError> {
        let picked = self.sample_indices(qtype.n_terms())?;
        Ok(TypedQuery {
            qtype,
            expr: qtype.build_with(|i| QueryExpr::term(self.terms[picked[i]].clone())),
        })
    }

    /// The paper's methodology: equal thirds of 1-, 2- and 4-term queries
    /// (the paper uses 100 each from TREC 2005/2006), each randomly
    /// assigned a compatible Table II type.
    ///
    /// # Errors
    ///
    /// As for [`QuerySampler::sample_terms`].
    pub fn trec_like_mix(&mut self, n: usize) -> Result<Vec<TypedQuery>, SampleError> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let qtype = match i % 3 {
                0 => QueryType::Q1,
                1 => {
                    if self.rng.random_range(0..2) == 0 {
                        QueryType::Q2
                    } else {
                        QueryType::Q3
                    }
                }
                _ => match self.rng.random_range(0..3) {
                    0 => QueryType::Q4,
                    1 => QueryType::Q5,
                    _ => QueryType::Q6,
                },
            };
            out.push(self.sample(qtype)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::corpus::{CorpusSpec, Scale};
    use rand::RngCore;

    #[test]
    fn table2_shapes() {
        let terms: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
        assert_eq!(QueryType::Q1.build(&terms[..1]).to_string(), "\"w0\"");
        assert_eq!(
            QueryType::Q2.build(&terms[..2]).to_string(),
            "(\"w0\" AND \"w1\")"
        );
        assert_eq!(
            QueryType::Q3.build(&terms[..2]).to_string(),
            "(\"w0\" OR \"w1\")"
        );
        assert_eq!(
            QueryType::Q6.build(&terms).to_string(),
            "(\"w0\" AND (\"w1\" OR \"w2\" OR \"w3\"))"
        );
        assert_eq!(QueryType::Q4.n_terms(), 4);
        assert_eq!(QueryType::Q5.label(), "Q5");
    }

    #[test]
    #[should_panic(expected = "takes 2 terms")]
    fn build_wrong_arity_panics() {
        let _ = QueryType::Q2.build(&["a".into()]);
    }

    #[test]
    fn sampler_prefers_frequent_terms() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let mut s = QuerySampler::new(&idx, 11).unwrap();
        let mut top_hits = 0;
        for _ in 0..200 {
            let t = s.sample_terms(1).unwrap().remove(0);
            let df = idx.term_info(idx.term_id(&t).unwrap()).df;
            if df > 100 {
                top_hits += 1;
            }
        }
        assert!(
            top_hits > 100,
            "df-weighted sampling should mostly pick frequent terms ({top_hits}/200)"
        );
    }

    #[test]
    fn sampled_queries_are_valid_and_distinct() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let mut s = QuerySampler::new(&idx, 12).unwrap();
        for qt in ALL_QUERY_TYPES {
            let q = s.sample(qt).unwrap();
            q.expr.validate(16).unwrap();
            let terms = q.expr.terms();
            assert_eq!(terms.len(), qt.n_terms(), "distinct terms");
        }
    }

    #[test]
    fn trec_mix_composition() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let mut s = QuerySampler::new(&idx, 13).unwrap();
        let qs = s.trec_like_mix(30).unwrap();
        assert_eq!(qs.len(), 30);
        let ones = qs.iter().filter(|q| q.qtype.n_terms() == 1).count();
        let twos = qs.iter().filter(|q| q.qtype.n_terms() == 2).count();
        let fours = qs.iter().filter(|q| q.qtype.n_terms() == 4).count();
        assert_eq!((ones, twos, fours), (10, 10, 10));
    }

    /// [`QuerySampler::sample_terms`] before the guide table and the
    /// index dedup, verbatim: a search of the whole cumulative table and
    /// a `String` per draw.
    fn sample_terms_oracle(s: &mut QuerySampler, n: usize) -> Result<Vec<String>, SampleError> {
        if n > s.terms.len() {
            return Err(SampleError::NotEnoughTerms {
                wanted: n,
                have: s.terms.len(),
            });
        }
        let mut out: Vec<String> = Vec::with_capacity(n);
        let mut guard = 0;
        while out.len() < n {
            let u = s.rng.random_range(0..s.total);
            let t = s.terms[s.cumulative.partition_point(|&c| c <= u)].clone();
            if !out.contains(&t) {
                out.push(t);
            }
            guard += 1;
            if guard >= 10_000 {
                return Err(SampleError::SamplingStalled { wanted: n });
            }
        }
        Ok(out)
    }

    /// Two terms of df 2 and 3: a total below the guide's slice count,
    /// so every draw has a slice of its own.
    fn tiny_index() -> InvertedIndex {
        boss_index::IndexBuilder::new()
            .add_documents(["a b", "a b", "b c"])
            .build()
            .unwrap()
    }

    /// The guided search picks what the whole-table search picks for
    /// `u` at every slice edge and every cumulative df, each with its
    /// neighbours, and at both ends of `0..total`.
    #[test]
    fn guide_equals_the_whole_table_search() {
        let smoke = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        for index in [tiny_index(), smoke] {
            let s = QuerySampler::new(&index, 1).unwrap();
            let slices = (0..s.guide.len() as u64).map(|b| b << s.shift);
            let mut us = vec![0, s.total - 1];
            for edge in slices.chain(s.cumulative.iter().copied()) {
                us.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
            for u in us.into_iter().filter(|&u| u < s.total) {
                let want = s.cumulative.partition_point(|&c| c <= u);
                assert_eq!(s.index_of(u), want, "u {u} of {}", s.total);
            }
        }
    }

    /// Query for query and draw for draw: terms, whole queries under
    /// every type, the TREC-like mix with its type draws, and the errors,
    /// on the smoke corpus and an index too small for four terms.
    #[test]
    fn sampler_equals_the_string_form() {
        let smoke = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        for seed in [0, 11, 0xB055] {
            let (mut new, mut old) = (
                QuerySampler::new(&smoke, seed).unwrap(),
                QuerySampler::new(&smoke, seed).unwrap(),
            );
            for n in [1, 2, 4, 1, 4] {
                assert_eq!(new.sample_terms(n), sample_terms_oracle(&mut old, n));
            }
            for round in 0..200 {
                let qtype = ALL_QUERY_TYPES[round % 6];
                let terms = sample_terms_oracle(&mut old, qtype.n_terms()).unwrap();
                let want = TypedQuery {
                    qtype,
                    expr: qtype.build(&terms),
                };
                assert_eq!(
                    new.sample(qtype).unwrap(),
                    want,
                    "seed {seed} round {round}"
                );
            }
            assert_eq!(new.rng.next_u64(), old.rng.next_u64(), "seed {seed}");
        }
        let tiny = tiny_index();
        let (mut new, mut old) = (
            QuerySampler::new(&tiny, 3).unwrap(),
            QuerySampler::new(&tiny, 3).unwrap(),
        );
        for n in [1, 2, 2, 3] {
            assert_eq!(
                new.sample_terms(n),
                sample_terms_oracle(&mut old, n),
                "n {n}"
            );
        }
        assert_eq!(new.rng.next_u64(), old.rng.next_u64());
    }

    #[test]
    fn sampler_is_deterministic() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let a: Vec<_> = QuerySampler::new(&idx, 7)
            .unwrap()
            .trec_like_mix(9)
            .unwrap();
        let b: Vec<_> = QuerySampler::new(&idx, 7)
            .unwrap()
            .trec_like_mix(9)
            .unwrap();
        assert_eq!(a, b);
    }
}
