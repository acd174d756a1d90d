//! Synthetic web corpora standing in for ClueWeb12 and CC-News.
//!
//! The paper's experiments depend on three statistical properties of real
//! corpora, all of which these generators reproduce:
//!
//! * **Zipfian document frequencies** — a few huge posting lists, a long
//!   tail of small ones (drives list-length mixes and skip efficacy);
//! * **docID locality** — a fraction of lists are clustered, which is what
//!   block-level skipping exploits;
//! * **skewed term frequencies** — geometric tf (mostly 1–2 with a tail)
//!   gives realistic BM25 score skew, which is what early termination
//!   exploits.

use crate::rng::{self, Geometric, SeededRng, Zipf};
use boss_index::{IndexBuilder, InvertedIndex, PostingList};
use rand::RngExt;

/// Corpus size presets used by all figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-fast: CI and unit tests.
    Smoke,
    /// Default for figure regeneration (tens of seconds end to end).
    Small,
    /// Closest to the paper's shard sizes this side of a data center.
    Full,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (use smoke|small|full)")),
        }
    }
}

/// Specification of a synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Corpus name used in reports.
    pub name: String,
    /// Number of documents in the shard.
    pub n_docs: u32,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the document-frequency distribution.
    pub zipf_s: f64,
    /// Average number of *distinct* terms per document (sets the total
    /// posting count: `n_docs * avg_unique_terms`).
    pub avg_unique_terms: u32,
    /// Geometric parameter for `tf - 1` (larger = more tf=1 postings).
    pub tf_p: f64,
    /// Fraction of posting lists generated with clustered docIDs.
    pub cluster_fraction: f64,
    /// Generator seed.
    pub seed: u64,
}

impl CorpusSpec {
    /// A ClueWeb12-like shard: long web documents, strongly skewed
    /// vocabulary, substantial docID clustering (crawl locality).
    pub fn clueweb12_like(scale: Scale) -> Self {
        let (n_docs, vocab) = match scale {
            Scale::Smoke => (2_500, 2_000),
            Scale::Small => (40_000, 15_000),
            Scale::Full => (250_000, 60_000),
        };
        CorpusSpec {
            name: format!("clueweb12-like-{scale:?}").to_lowercase(),
            n_docs,
            vocab_size: vocab,
            zipf_s: 1.05,
            avg_unique_terms: 110,
            tf_p: 0.55,
            cluster_fraction: 0.5,
            seed: 0xC1_EB12,
        }
    }

    /// A CC-News-like shard: shorter articles, milder clustering.
    pub fn ccnews_like(scale: Scale) -> Self {
        let (n_docs, vocab) = match scale {
            Scale::Smoke => (3_000, 2_500),
            Scale::Small => (50_000, 18_000),
            Scale::Full => (300_000, 70_000),
        };
        CorpusSpec {
            name: format!("ccnews-like-{scale:?}").to_lowercase(),
            n_docs,
            vocab_size: vocab,
            zipf_s: 1.15,
            avg_unique_terms: 65,
            tf_p: 0.65,
            cluster_fraction: 0.3,
            seed: 0xCC_0E35,
        }
    }

    /// Generates the corpus as term-major posting lists in lexical term
    /// order — the common substrate of [`CorpusSpec::build`] (in-memory)
    /// and [`CorpusSpec::build_segments`] (SPIMI), so both paths index
    /// the identical corpus.
    ///
    /// # Errors
    ///
    /// Propagates posting-list construction failures (cannot occur for
    /// the generated, always-valid posting data).
    pub fn term_lists(&self) -> Result<Vec<(String, PostingList)>, boss_index::Error> {
        let mut r = rng::rng(self.seed);
        let total_postings = u64::from(self.n_docs) * u64::from(self.avg_unique_terms);
        let zipf = Zipf::new(self.vocab_size, self.zipf_s);
        let extra_tf = Geometric::new(self.tf_p);

        let mut lists = Vec::with_capacity(self.vocab_size);
        let width = (self.vocab_size as f64).log10().ceil().max(1.0) as usize;
        for rank in 1..=self.vocab_size {
            let df = ((total_postings as f64 * zipf.weight(rank)).round() as u64)
                .clamp(1, u64::from(self.n_docs) * 6 / 10) as usize;
            let docs = self.sample_docs(&mut r, df);
            let tfs: Vec<u32> = (0..docs.len())
                .map(|_| 1 + extra_tf.sample(&mut r))
                .collect();
            let list = PostingList::from_columns(docs, tfs)?;
            // Lexical order == rank order thanks to zero padding, so rank-r
            // terms are cheap to find in tests and samplers.
            let mut term = String::new();
            push_term(&mut term, rank, width);
            lists.push((term, list));
        }
        Ok(lists)
    }

    /// Builds the inverted index (hybrid-compressed, like BOSS's index).
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures (cannot occur for the
    /// generated, always-valid posting data).
    pub fn build(&self) -> Result<InvertedIndex, boss_index::Error> {
        // The builder encodes out of `lists` in place, so they outlive it.
        let lists = self.term_lists()?;
        let mut builder = IndexBuilder::new();
        for (term, list) in &lists {
            builder = builder.add_posting_list(term, list);
        }
        builder.build()
    }

    /// Builds the same corpus through the SPIMI spill/merge path: the
    /// term-major lists are transposed doc-major and fed to a
    /// [`boss_index::SpimiBuilder`] capped at `n_segments` on-disk
    /// segments in `dir`. The returned set's
    /// [`boss_index::SegmentSet::merge`] is bit-identical to
    /// [`CorpusSpec::build`].
    ///
    /// # Errors
    ///
    /// Propagates segment I/O and index-construction failures.
    pub fn build_segments(
        &self,
        dir: &std::path::Path,
        n_segments: u32,
    ) -> Result<boss_index::SegmentSet, boss_index::io::IoError> {
        self.build_segments_with(dir, n_segments, boss_index::SchemeChoice::Hybrid)
    }

    /// [`CorpusSpec::build_segments`] with an explicit compression
    /// policy, mirroring `IndexBuilder::scheme` — used by the
    /// `segment_build --verify` codec sweep.
    ///
    /// # Errors
    ///
    /// As for [`CorpusSpec::build_segments`], plus encoding failures for
    /// a fixed scheme that cannot represent some list.
    pub fn build_segments_with(
        &self,
        dir: &std::path::Path,
        n_segments: u32,
        scheme: boss_index::SchemeChoice,
    ) -> Result<boss_index::SegmentSet, boss_index::io::IoError> {
        use boss_index::io::IoError;

        let lists = self.term_lists().map_err(IoError::Invalid)?;
        // Transpose term-major → doc-major. Documents no term sampled
        // stay as empty tail entries, exactly like the in-memory build
        // (which sizes the corpus by the highest docID seen).
        let n_docs = lists
            .iter()
            .filter_map(|(_, l)| l.docs().last().copied())
            .max()
            .map_or(0, |d| d as usize + 1);
        let mut docs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_docs];
        for (term_id, (_, list)) in lists.iter().enumerate() {
            for p in list.iter() {
                docs[p.doc as usize].push((term_id as u32, p.tf));
            }
        }

        let per_segment = (n_docs as u32).div_ceil(n_segments.max(1));
        let cfg = boss_index::SpimiConfig {
            max_docs_per_segment: per_segment,
            scheme,
            ..boss_index::SpimiConfig::default()
        };
        let mut builder = boss_index::SpimiBuilder::create(dir, cfg)?;
        for terms in &docs {
            // doc_len 0 → tf-sum fallback, matching the in-memory build
            // of injected lists without explicit lengths.
            builder.add_document(
                terms
                    .iter()
                    .map(|&(t, tf)| (lists[t as usize].0.as_str(), tf)),
                0,
            )?;
        }
        builder.finish()
    }

    fn sample_docs(&self, r: &mut SeededRng, df: usize) -> Vec<u32> {
        let clustered = r.random_range(0.0..1.0) < self.cluster_fraction;
        if !clustered || df < 64 {
            return rng::sorted_distinct(r, df, self.n_docs);
        }
        // Clustered list: docs drawn from a handful of contiguous regions.
        let n_clusters = (df / 256).clamp(1, 64);
        let width = (self.n_docs / n_clusters as u32 / 4).max(512);
        let per = df / n_clusters;
        let take = per.min(width as usize / 2).max(1);
        // Overlapping clusters merge through a bitmap over the corpus (or
        // over one cluster's width, where that is wider).
        let mut merged = rng::Bitmap::new(self.n_docs.max(width));
        let mut len = 0;
        for _ in 0..n_clusters {
            let base = r.random_range(0..self.n_docs.saturating_sub(width).max(1));
            for v in rng::sorted_distinct(r, take, width) {
                len += usize::from(merged.insert(base + v));
            }
        }
        merged.into_sorted(len)
    }
}

/// A doc-major synthetic corpus that is never materialized: each
/// document's term bag is generated on demand from a per-document RNG, so
/// a 10–100M-document corpus can be fed straight into a
/// [`boss_index::SpimiBuilder`] with memory bounded by one document plus
/// the SPIMI budget. Document frequencies still come out Zipfian (terms
/// are drawn rank-wise from a Zipf sampler) and term frequencies
/// geometric, like [`CorpusSpec`]; unlike `CorpusSpec` there is no docID
/// clustering knob — streaming generation is docID-order by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingCorpusSpec {
    /// Number of documents.
    pub n_docs: u32,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the term-draw distribution.
    pub zipf_s: f64,
    /// Term draws per document (distinct terms ≤ this; repeated draws
    /// aggregate into the term's frequency).
    pub terms_per_doc: u32,
    /// Generator seed.
    pub seed: u64,
}

impl StreamingCorpusSpec {
    /// Prepares the per-run sampling state (the Zipf cdf, built once).
    pub fn streamer(&self) -> DocStreamer {
        DocStreamer {
            spec: self.clone(),
            zipf: Zipf::new(self.vocab_size, self.zipf_s),
            width: (self.vocab_size as f64).log10().ceil().max(1.0) as usize,
        }
    }
}

/// Sampling state of a [`StreamingCorpusSpec`] run.
#[derive(Debug, Clone)]
pub struct DocStreamer {
    spec: StreamingCorpusSpec,
    zipf: Zipf,
    width: usize,
}

impl DocStreamer {
    /// Generates document `doc`'s term bag into `out` (replacing its
    /// contents, reusing its `String`s) as `(term, tf)` pairs with
    /// distinct terms in lexical order, and returns the document length
    /// in tokens. Deterministic per `(seed, doc)` — documents can be
    /// generated in any order or in parallel.
    pub fn doc_terms(&self, doc: u32, out: &mut Vec<(String, u32)>) -> u32 {
        // SplitMix-style per-document stream so doc i+1 does not depend
        // on how many draws doc i consumed.
        let mix = (u64::from(doc) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut r = rng::rng(self.spec.seed ^ mix);
        let mut ranks: Vec<usize> = (0..self.spec.terms_per_doc)
            .map(|_| self.zipf.sample(&mut r))
            .collect();
        ranks.sort_unstable();
        let width = self.width;
        let mut distinct = 0;
        for run in ranks.chunk_by(|a, b| a == b) {
            if distinct == out.len() {
                out.push((String::new(), 0));
            }
            let (term, tf) = &mut out[distinct];
            term.clear();
            push_term(term, run[0], width);
            *tf = run.len() as u32;
            distinct += 1;
        }
        out.truncate(distinct);
        ranks.len() as u32
    }
}

/// Appends rank `rank`'s term, `t` and the rank zero-padded to `width`
/// digits (more if the rank has more): `format!("t{rank:0width$}")`
/// without the formatting machinery, which the streamer would run once
/// per distinct term of every document.
fn push_term(term: &mut String, rank: usize, width: usize) {
    let mut digits = [0u8; 20];
    let (mut at, mut rest) = (digits.len(), rank);
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let len = digits.len() - at;
    term.reserve(1 + width.max(len));
    term.push('t');
    term.extend(std::iter::repeat_n('0', width.saturating_sub(len)));
    term.extend(digits[at..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use rand::RngCore;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv1a(h: u64, bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// [`CorpusSpec::sample_docs`] before the bitmap merge, verbatim but
    /// for the oracle [`sorted_distinct`](rng::sorted_distinct) it
    /// calls.
    fn sample_docs_oracle(spec: &CorpusSpec, r: &mut SeededRng, df: usize) -> Vec<u32> {
        let clustered = r.random_range(0.0..1.0) < spec.cluster_fraction;
        if !clustered || df < 64 {
            return rng::sorted_distinct_oracle(r, df, spec.n_docs);
        }
        let n_clusters = (df / 256).clamp(1, 64);
        let width = (spec.n_docs / n_clusters as u32 / 4).max(512);
        let per = df / n_clusters;
        let mut docs = Vec::with_capacity(df);
        for _ in 0..n_clusters {
            let base = r.random_range(0..spec.n_docs.saturating_sub(width).max(1));
            let take = per.min(width as usize / 2).max(1);
            for v in rng::sorted_distinct_oracle(r, take, width) {
                docs.push(base + v);
            }
        }
        docs.sort_unstable();
        docs.dedup();
        docs
    }

    /// Plain and clustered lists at every df threshold — the clustered
    /// cut at 64, one cluster against two at 512, the cluster cap at
    /// 16 384 — in corpora smaller than one cluster's width, at the smoke
    /// size and at the benchmark's: the same docIDs, and the stream left
    /// where the oracle leaves it.
    #[test]
    fn sample_docs_equals_the_sorting_form() {
        let dfs = [
            1, 63, 64, 65, 255, 256, 511, 512, 513, 16_383, 16_384, 16_385, 60_000,
        ];
        for n_docs in [300, 2_500, 100_000] {
            for cluster_fraction in [0.0, 0.5, 1.0] {
                let spec = CorpusSpec {
                    n_docs,
                    cluster_fraction,
                    ..CorpusSpec::clueweb12_like(Scale::Smoke)
                };
                for &df in dfs.iter().filter(|&&df| df <= n_docs as usize * 6 / 10) {
                    let (mut new, mut old) = (rng::rng(df as u64), rng::rng(df as u64));
                    let want = sample_docs_oracle(&spec, &mut old, df);
                    let got = spec.sample_docs(&mut new, df);
                    assert_eq!(
                        got, want,
                        "n_docs {n_docs} fraction {cluster_fraction} df {df}"
                    );
                    assert_eq!(new.next_u64(), old.next_u64(), "{n_docs} {df}");
                }
            }
        }
    }

    #[test]
    fn push_term_equals_format() {
        for rank in [0, 1, 9, 10, 99, 100, 999, 1_000, 12_345, usize::MAX] {
            for width in 1..=6 {
                let mut term = String::from("stale");
                term.clear();
                push_term(&mut term, rank, width);
                assert_eq!(term, format!("t{rank:0width$}"));
            }
        }
    }

    /// [`DocStreamer::doc_terms`] before its guided Zipf search and
    /// direct digit writing, verbatim but for the oracle Zipf search.
    fn doc_terms_oracle(s: &DocStreamer, doc: u32) -> Vec<(String, u32)> {
        use std::fmt::Write as _;
        let mix = (u64::from(doc) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut r = rng::rng(s.spec.seed ^ mix);
        let mut ranks: Vec<usize> = (0..s.spec.terms_per_doc)
            .map(|_| s.zipf.sample_by_search(&mut r))
            .collect();
        ranks.sort_unstable();
        let width = s.width;
        let mut out = Vec::new();
        for run in ranks.chunk_by(|a, b| a == b) {
            let mut term = String::new();
            let _ = write!(term, "t{:0width$}", run[0]);
            out.push((term, run.len() as u32));
        }
        out
    }

    /// Vocabularies whose last rank has more digits than the padding
    /// (10, 100, 1 000) and the benchmark's stream.
    #[test]
    fn doc_terms_equal_the_formatting_form() {
        for (vocab_size, terms_per_doc) in [(9, 20), (10, 20), (100, 40), (1_000, 60), (30_000, 60)]
        {
            let spec = StreamingCorpusSpec {
                n_docs: 400,
                vocab_size,
                zipf_s: 1.1,
                terms_per_doc,
                seed: 0xB055,
            };
            let s = spec.streamer();
            let mut out = Vec::new();
            for doc in 0..spec.n_docs {
                assert_eq!(s.doc_terms(doc, &mut out), terms_per_doc);
                assert_eq!(
                    out,
                    doc_terms_oracle(&s, doc),
                    "vocab {vocab_size} doc {doc}"
                );
            }
        }
    }

    #[test]
    fn smoke_corpus_builds() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        assert_eq!(idx.n_docs(), 3_000);
        assert_eq!(idx.n_terms(), 2_500);
        assert!(idx.total_raw_bytes() > 0);
    }

    #[test]
    fn deterministic() {
        let a = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let b = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        assert_eq!(a.total_data_bytes(), b.total_data_bytes());
        let t0 = a.term_id("t0001").unwrap();
        assert_eq!(a.term_info(t0).df, b.term_info(t0).df);
    }

    #[test]
    fn df_distribution_is_zipfian() {
        let idx = CorpusSpec::clueweb12_like(Scale::Smoke).build().unwrap();
        // Rank 1 term should have a much bigger list than rank 100.
        let top = idx.term_info(idx.term_id("t0001").unwrap()).df;
        let mid = idx.term_info(idx.term_id("t0100").unwrap()).df;
        let tail = idx.term_info(idx.term_id("t1900").unwrap()).df;
        // df clamping caps the head, so compare against a softer factor.
        assert!(top > mid * 3, "top {top} vs mid {mid}");
        assert!(mid > tail, "mid {mid} vs tail {tail}");
    }

    #[test]
    fn compression_beats_raw() {
        let idx = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        assert!(
            idx.total_data_bytes() < idx.total_raw_bytes() / 2,
            "hybrid compression should at least halve the index: {} vs {}",
            idx.total_data_bytes(),
            idx.total_raw_bytes()
        );
    }

    #[test]
    fn segment_build_matches_in_memory_build() {
        let spec = CorpusSpec::ccnews_like(Scale::Smoke);
        let dir = std::env::temp_dir().join(format!("boss-corpus-seg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let set = spec.build_segments(&dir, 4).unwrap();
        assert_eq!(set.entries().len(), 4);
        assert_eq!(set.merge().unwrap(), spec.build().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_docs_deterministic_and_zipfian() {
        let spec = StreamingCorpusSpec {
            n_docs: 500,
            vocab_size: 200,
            zipf_s: 1.1,
            terms_per_doc: 8,
            seed: 7,
        };
        let s = spec.streamer();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut head = 0u32;
        let mut total = 0u32;
        for doc in 0..spec.n_docs {
            let len = s.doc_terms(doc, &mut a);
            assert_eq!(len, spec.terms_per_doc);
            assert!(!a.is_empty() && a.len() <= spec.terms_per_doc as usize);
            // Order-independent regeneration.
            s.doc_terms(doc, &mut b);
            assert_eq!(a, b);
            for (t, tf) in &a {
                assert!(*tf >= 1);
                if t == "t001" {
                    head += 1;
                }
                total += 1;
            }
        }
        assert!(
            head * 10 > total / spec.terms_per_doc,
            "rank-1 term should be frequent: {head} of {total}"
        );
    }

    /// The corpus is frozen: every exact benchmark metric and the write
    /// path's golden record depend on these bags, so a faster generator
    /// must reproduce them term for term. Recorded from the generator
    /// that counted ranks in a `BTreeMap` and `format!`ted each term.
    #[test]
    fn streaming_term_bags_are_pinned() {
        let spec = StreamingCorpusSpec {
            n_docs: 500,
            vocab_size: 1200,
            zipf_s: 1.1,
            terms_per_doc: 12,
            seed: 7,
        };
        #[rustfmt::skip]
        let pinned: [(u32, &[(&str, u32)]); 4] = [
            (0, &[("t0001", 4), ("t0002", 1), ("t0007", 2), ("t0034", 1), ("t0063", 1), ("t0231", 1), ("t0342", 1), ("t1057", 1)]),
            (1, &[("t0001", 2), ("t0003", 1), ("t0006", 1), ("t0007", 1), ("t0009", 1), ("t0011", 1), ("t0012", 1), ("t0035", 1), ("t0071", 1), ("t0091", 1), ("t0288", 1)]),
            (499, &[("t0001", 2), ("t0002", 2), ("t0003", 1), ("t0007", 1), ("t0008", 1), ("t0017", 1), ("t0019", 1), ("t0041", 1), ("t0312", 1), ("t0347", 1)]),
            (40_000, &[("t0001", 2), ("t0002", 1), ("t0003", 1), ("t0014", 1), ("t0017", 1), ("t0033", 2), ("t0049", 1), ("t0093", 1), ("t0301", 1), ("t1000", 1)]),
        ];
        let s = spec.streamer();
        // One buffer throughout, so longer and shorter bags overwrite
        // each other's strings.
        let mut out = vec![("stale".to_owned(), 9); 20];
        for (doc, bag) in pinned {
            assert_eq!(s.doc_terms(doc, &mut out), 12);
            let got: Vec<(&str, u32)> = out.iter().map(|(t, tf)| (t.as_str(), *tf)).collect();
            assert_eq!(got, bag, "doc {doc}");
        }
        // FNV-1a over the first 2000 documents' bags.
        let mut h = FNV_OFFSET;
        for doc in 0..2000 {
            s.doc_terms(doc, &mut out);
            for (t, tf) in &out {
                h = fnv1a(h, t.bytes().chain(tf.to_le_bytes()));
            }
        }
        assert_eq!(h, 0xa412_a9b1_c0be_d8d3);
    }

    /// The term-major generator is frozen like the doc-major one: the
    /// figure goldens and three benchmark workloads index these lists.
    /// FNV-1a over every term, docID and tf of the two smoke presets,
    /// recorded from the generator that recomputed `ln(1 - p)` and
    /// `floor`ed on every tf draw.
    #[test]
    fn term_lists_are_pinned() {
        for (spec, postings, pinned) in [
            (
                CorpusSpec::clueweb12_like(Scale::Smoke),
                159_447,
                0x169c_54d7_dc4a_c4d3u64,
            ),
            (
                CorpusSpec::ccnews_like(Scale::Smoke),
                112_254,
                0xb8cb_1efd_b079_17b0,
            ),
        ] {
            let lists = spec.term_lists().unwrap();
            let mut h = FNV_OFFSET;
            let mut n = 0;
            for (term, list) in &lists {
                h = fnv1a(h, term.bytes());
                for column in [list.docs(), list.tfs()] {
                    h = fnv1a(h, column.iter().flat_map(|v| v.to_le_bytes()));
                }
                n += list.len();
            }
            assert_eq!((n, h), (postings, pinned), "{} {n} {h:#x}", spec.name);
        }
    }

    #[test]
    fn streaming_feeds_spimi() {
        let spec = StreamingCorpusSpec {
            n_docs: 300,
            vocab_size: 100,
            zipf_s: 1.05,
            terms_per_doc: 6,
            seed: 11,
        };
        let dir = std::env::temp_dir().join(format!("boss-stream-seg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = boss_index::SpimiConfig {
            budget_bytes: 4 << 10,
            ..boss_index::SpimiConfig::default()
        };
        let mut b = boss_index::SpimiBuilder::create(&dir, cfg).unwrap();
        let s = spec.streamer();
        let mut terms = Vec::new();
        for doc in 0..spec.n_docs {
            let len = s.doc_terms(doc, &mut terms);
            b.add_document(terms.iter().map(|(t, tf)| (t.as_str(), *tf)), len)
                .unwrap();
        }
        let set = b.finish().unwrap();
        assert!(set.stats().spills >= 2, "4 KB budget must spill");
        let idx = set.merge().unwrap();
        assert_eq!(idx.n_docs(), spec.n_docs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_parse() {
        assert_eq!("smoke".parse::<Scale>().unwrap(), Scale::Smoke);
        assert_eq!("full".parse::<Scale>().unwrap(), Scale::Full);
        assert!("giant".parse::<Scale>().is_err());
    }
}
