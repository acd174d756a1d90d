//! The figure registry: every table and figure of the evaluation as one
//! `fn(&mut FigureCtx)` behind a name.
//!
//! [`REGISTRY`] is the whole surface: the `figure` binary looks a name up
//! and runs it on stdout, `tests/golden_figures.rs` runs every entry
//! in-process (over one [`Corpora`] cache) against the committed goldens,
//! and regenerating `results/` is a shell loop over `figure --list`.
//!
//! Every entry funnels through [`run_system`], so its TSV data rows are
//! bit-identical at every `--threads` value; the thread count appears
//! only in the `# threads` comment. `--engines` gates the row-oriented
//! figures (9–12, 16); the column-style comparisons (13–15, 17) always
//! simulate the systems they compare, since each column normalizes
//! against another.

mod ablation;
mod latency;
mod paper;

use crate::{boss_engine, iiu_engine, lucene_engine, run_system, BenchArgs, SystemRun, TypedSuite};
use boss_core::EtMode;
use boss_index::{InvertedIndex, QueryExpr};
use boss_scm::MemoryConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::QuerySampler;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::rc::Rc;

/// One registry entry: writes its table to the context's sink.
pub(crate) type FigureFn = fn(&mut FigureCtx) -> io::Result<()>;

/// Every table and figure, in the order `results/` and the golden file
/// list them.
pub const REGISTRY: &[(&str, FigureFn)] = &[
    ("table01_config", paper::table01_config),
    ("table03_area_power", paper::table03_area_power),
    ("corpus_stats", paper::corpus_stats),
    ("fig03_compression_ratio", paper::fig03_compression_ratio),
    ("fig09_multicore_clueweb", paper::fig09_multicore_clueweb),
    ("fig10_multicore_ccnews", paper::fig10_multicore_ccnews),
    ("fig11_bandwidth_clueweb", paper::fig11_bandwidth_clueweb),
    ("fig12_bandwidth_ccnews", paper::fig12_bandwidth_ccnews),
    ("fig13_singlecore", paper::fig13_singlecore),
    ("fig14_evaluated_docs", paper::fig14_evaluated_docs),
    ("fig15_memory_accesses", paper::fig15_memory_accesses),
    ("fig16_dram_vs_scm", paper::fig16_dram_vs_scm),
    ("fig17_energy", paper::fig17_energy),
    ("ablation_block_size", ablation::block_size),
    ("ablation_cores", ablation::cores),
    ("ablation_fidelity", ablation::fidelity),
    ("ablation_hybrid", ablation::hybrid),
    ("ablation_k", ablation::k),
    ("ablation_pool_scaleout", ablation::pool_scaleout),
    ("ablation_scheduler", ablation::scheduler),
    ("latency_profile", latency::latency_profile),
    ("latency_vs_load", latency::latency_vs_load),
    ("shard_scaling", latency::shard_scaling),
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<FigureFn> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// The two corpus stand-ins of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// The ClueWeb12-like corpus (Figures 9 and 11).
    Clueweb,
    /// The CC-News-like corpus (Figures 10 and 12, and every ablation).
    Ccnews,
}

impl CorpusKind {
    /// Both corpora, in the order the two-corpus figures print them.
    pub(crate) const BOTH: [CorpusKind; 2] = [CorpusKind::Clueweb, CorpusKind::Ccnews];

    /// The name the figures print.
    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::Clueweb => "clueweb12-like",
            CorpusKind::Ccnews => "ccnews-like",
        }
    }
}

/// One built corpus with the query suites sampled from it, each sampled
/// at most once.
#[derive(Debug)]
pub struct Corpus {
    /// The name the figures print.
    pub name: &'static str,
    /// The index.
    pub index: InvertedIndex,
    /// By (queries per type, seed).
    suites: RefCell<HashMap<(usize, u64), Rc<TypedSuite>>>,
}

impl Corpus {
    /// `n` queries of the TREC-like type mix.
    fn trec_mix(&self, n: usize, seed: u64) -> io::Result<Vec<QueryExpr>> {
        let mix = self
            .sampler(seed)?
            .trec_like_mix(n)
            .map_err(|e| io::Error::other(format!("query sampling failed: {e}")))?;
        Ok(mix.into_iter().map(|t| t.expr).collect())
    }

    fn sampler(&self, seed: u64) -> io::Result<QuerySampler> {
        QuerySampler::new(&self.index, seed)
            .map_err(|e| io::Error::other(format!("corpus has no usable vocabulary: {e}")))
    }
}

/// The corpora built so far, by kind and `--scale`. Outlives any one
/// [`FigureCtx`], so a process running several figures builds each
/// corpus once.
#[derive(Debug, Default)]
pub struct Corpora {
    built: HashMap<(CorpusKind, Scale), Rc<Corpus>>,
}

/// What a registry entry runs against: the parsed flags, the sink its
/// rows and `#` comments go to, and the corpus cache.
pub struct FigureCtx<'a> {
    /// The run's flags.
    pub args: BenchArgs,
    /// Where the entry writes its table.
    pub out: &'a mut dyn Write,
    corpora: &'a mut Corpora,
}

impl<'a> FigureCtx<'a> {
    /// A context over `corpora`, which it fills on demand.
    pub fn new(args: BenchArgs, out: &'a mut dyn Write, corpora: &'a mut Corpora) -> Self {
        FigureCtx { args, out, corpora }
    }

    /// The corpus of `kind` at `--scale`, built on first use.
    ///
    /// # Errors
    ///
    /// The corpus build failure.
    pub fn corpus(&mut self, kind: CorpusKind) -> io::Result<Rc<Corpus>> {
        let key = (kind, self.args.scale);
        if let Some(c) = self.corpora.built.get(&key) {
            return Ok(Rc::clone(c));
        }
        let spec = match kind {
            CorpusKind::Clueweb => CorpusSpec::clueweb12_like(self.args.scale),
            CorpusKind::Ccnews => CorpusSpec::ccnews_like(self.args.scale),
        };
        let index = spec
            .build()
            .map_err(|e| io::Error::other(format!("corpus build failed: {e}")))?;
        let corpus = Rc::new(Corpus {
            name: kind.name(),
            index,
            suites: RefCell::default(),
        });
        self.corpora.built.insert(key, Rc::clone(&corpus));
        Ok(corpus)
    }

    /// `per_type` queries of each Table II type from `corpus` at
    /// `--seed`.
    pub fn suite(&self, corpus: &Corpus, per_type: usize) -> Rc<TypedSuite> {
        let seed = self.args.seed;
        let mut suites = corpus.suites.borrow_mut();
        let suite = suites
            .entry((per_type, seed))
            .or_insert_with(|| Rc::new(TypedSuite::sample(&corpus.index, per_type, seed)));
        Rc::clone(suite)
    }
}

/// The three systems over one corpus at the run's common knobs —
/// shorthand for the `run_system(&x_engine(..), queries, k, threads)`
/// every figure repeats.
struct Systems<'a> {
    index: &'a InvertedIndex,
    args: &'a BenchArgs,
}

impl<'a> Systems<'a> {
    fn new(corpus: &'a Corpus, args: &'a BenchArgs) -> Self {
        Systems {
            index: &corpus.index,
            args,
        }
    }

    fn boss(
        &self,
        cores: u32,
        et: EtMode,
        memory: MemoryConfig,
        k: usize,
        queries: &[QueryExpr],
    ) -> SystemRun {
        let engine = boss_engine(self.index, cores, et, memory, k, &self.args.tuning);
        run_system(&engine, queries, k, self.args.threads)
    }

    fn iiu(&self, cores: u32, memory: MemoryConfig, queries: &[QueryExpr]) -> SystemRun {
        let engine = iiu_engine(self.index, cores, memory, &self.args.tuning);
        run_system(&engine, queries, self.args.k, self.args.threads)
    }

    fn lucene(&self, threads: u32, memory: MemoryConfig, queries: &[QueryExpr]) -> SystemRun {
        let engine = lucene_engine(self.index, threads, memory, &self.args.tuning);
        run_system(&engine, queries, self.args.k, self.args.threads)
    }
}
