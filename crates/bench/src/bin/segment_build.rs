//! Memory-bounded SPIMI segment-build benchmark and verifier.
//!
//! Streams a synthetic corpus ([`StreamingCorpusSpec`] — documents are
//! generated on demand, never materialized) into a
//! [`boss_index::SpimiBuilder`] under a fixed in-memory byte budget,
//! spilling on-disk segments, then (unless `--no-merge`) merges them
//! back into one [`boss_index::InvertedIndex`]. Reports build/merge
//! throughput and the builder's memory accounting as TSV on stdout.
//!
//! Two enforcement knobs make this CI-able:
//!
//! * the peak in-memory postings bytes must stay within the budget plus
//!   one document's worst-case contribution (the builder checks the
//!   budget *after* each document) — violation exits non-zero;
//! * `--min-spills N` requires at least `N` spilled segments —
//!   proving the budget actually forced spills, not that it was sized
//!   above the whole corpus.
//!
//! `--verify` runs an orthogonal bit-identity sweep instead: both smoke
//! corpora × every codec (hybrid + the five fixed schemes) are built
//! through the segment spill/merge path and in memory, the two indexes
//! compared for equality, and every engine × [`QueryAlgorithm`] batch
//! checked for identical outcomes. Any mismatch exits non-zero.
//!
//! The throughput numbers here are *host* wall-clock and vary machine to
//! machine (the repeated, calibrated measurement is `benchmark/`'s
//! `ingest_open` workload); the gates and everything under `--verify`
//! are exact.

use boss_core::{BossConfig, QueryAlgorithm};
use boss_engine::{BatchExecutor, Boss, Iiu, Lucene, SearchEngine};
use boss_iiu::IiuConfig;
use boss_index::{
    IndexBuilder, InvertedIndex, QueryExpr, SchemeChoice, SpimiBuilder, SpimiConfig, ALL_ALGORITHMS,
};
use boss_luceneish::LuceneConfig;
use boss_workload::corpus::{CorpusSpec, Scale, StreamingCorpusSpec};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use std::time::Instant;

struct Args {
    docs: u32,
    vocab: usize,
    terms_per_doc: u32,
    zipf_s: f64,
    budget_mb: usize,
    scheme: SchemeChoice,
    seed: u64,
    dir: Option<String>,
    min_spills: u32,
    merge: bool,
    verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        docs: 200_000,
        vocab: 20_000,
        terms_per_doc: 3,
        zipf_s: 1.07,
        budget_mb: 8,
        scheme: SchemeChoice::Hybrid,
        seed: 42,
        dir: None,
        min_spills: 0,
        merge: true,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--docs" => args.docs = take("--docs").parse().expect("--docs N"),
            "--vocab" => args.vocab = take("--vocab").parse().expect("--vocab N"),
            "--terms-per-doc" => {
                args.terms_per_doc = take("--terms-per-doc").parse().expect("--terms-per-doc N");
            }
            "--zipf" => args.zipf_s = take("--zipf").parse().expect("--zipf F"),
            "--budget-mb" => {
                args.budget_mb = take("--budget-mb")
                    .parse::<usize>()
                    .expect("--budget-mb N")
                    .max(1);
            }
            "--scheme" => {
                args.scheme = take("--scheme").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--seed" => args.seed = take("--seed").parse().expect("--seed N"),
            "--dir" => args.dir = Some(take("--dir")),
            "--min-spills" => {
                args.min_spills = take("--min-spills").parse().expect("--min-spills N");
            }
            "--no-merge" => args.merge = false,
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                println!(
                    "usage: [--docs N] [--vocab N] [--terms-per-doc N] [--zipf F] \
                     [--budget-mb N] [--scheme hybrid|BP|VB|OptPFD|S16|S8b|GVB] [--seed N] \
                     [--dir PATH] [--min-spills N] [--no-merge] [--verify]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Worst-case in-memory bytes one document can add before the builder's
/// post-document budget check fires: every draw at the builder's own
/// per-entry worst case, plus the document's length.
fn doc_slack_bytes(args: &Args) -> usize {
    let term_name = 1 + (args.vocab.max(10) as f64).log10().ceil() as usize;
    args.terms_per_doc as usize * SpimiBuilder::entry_worst_case_bytes(term_name) + 4
}

fn run_build(args: &Args) -> i32 {
    let dir = match &args.dir {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("boss-segment-build-{}", std::process::id())),
    };
    std::fs::remove_dir_all(&dir).ok();

    let spec = StreamingCorpusSpec {
        n_docs: args.docs,
        vocab_size: args.vocab,
        zipf_s: args.zipf_s,
        terms_per_doc: args.terms_per_doc,
        seed: args.seed,
    };
    let streamer = spec.streamer();
    let budget_bytes = args.budget_mb << 20;
    let cfg = SpimiConfig {
        budget_bytes,
        scheme: args.scheme,
        ..SpimiConfig::default()
    };

    let t_build = Instant::now();
    let mut builder = SpimiBuilder::create(&dir, cfg).expect("create segment dir");
    let mut terms = Vec::new();
    for doc in 0..args.docs {
        let len = streamer.doc_terms(doc, &mut terms);
        builder
            .add_document(terms.iter().map(|(t, tf)| (t.as_str(), *tf)), len)
            .expect("add document");
    }
    let set = builder.finish().expect("finish segment set");
    let build_secs = t_build.elapsed().as_secs_f64();
    let stats = *set.stats();

    let merge_secs = if args.merge {
        let t_merge = Instant::now();
        set.merge().expect("merge segments");
        t_merge.elapsed().as_secs_f64()
    } else {
        0.0
    };
    if args.dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }

    let slack = doc_slack_bytes(args);
    let bounded = stats.peak_inmem_bytes <= budget_bytes + slack;
    let merge_postings_per_sec = if args.merge {
        stats.postings as f64 / merge_secs.max(1e-9)
    } else {
        0.0
    };
    println!(
        "docs\tpostings\tspills\tpeak_inmem_bytes\tbudget_bytes\tsegment_bytes\tbuild_docs_per_sec\tmerge_postings_per_sec"
    );
    println!(
        "{}\t{}\t{}\t{}\t{budget_bytes}\t{}\t{:.0}\t{merge_postings_per_sec:.0}",
        stats.docs,
        stats.postings,
        stats.spills,
        stats.peak_inmem_bytes,
        stats.segment_bytes,
        stats.docs as f64 / build_secs.max(1e-9),
    );

    if !bounded {
        eprintln!(
            "FAIL: peak in-memory bytes {} exceed budget {} + per-doc slack {}",
            stats.peak_inmem_bytes, budget_bytes, slack
        );
        return 1;
    }
    if stats.spills < args.min_spills {
        eprintln!(
            "FAIL: {} spilled segments < required --min-spills {}",
            stats.spills, args.min_spills
        );
        return 1;
    }
    println!(
        "# budget bounded ({} <= {} + {}), {} spills",
        stats.peak_inmem_bytes, budget_bytes, slack, stats.spills
    );
    0
}

/// Two-query-per-type suite over the index's own vocabulary.
fn suite(index: &InvertedIndex, seed: u64) -> Vec<QueryExpr> {
    let mut sampler = QuerySampler::new(index, seed).expect("sampler");
    let mut queries = Vec::new();
    for qt in ALL_QUERY_TYPES {
        for _ in 0..2 {
            queries.push(sampler.sample(qt).expect("sample").expr);
        }
    }
    queries
}

fn batch_identical<E: SearchEngine + Send>(mem: &E, seg: &E, queries: &[QueryExpr]) -> bool {
    let a = BatchExecutor::with_threads(2)
        .run(mem, queries, 20)
        .expect("in-memory batch");
    let b = BatchExecutor::with_threads(2)
        .run(seg, queries, 20)
        .expect("segment batch");
    a.makespan_cycles == b.makespan_cycles
        && a.mem == b.mem
        && a.eval == b.eval
        && a.outcomes == b.outcomes
}

fn engines_identical(
    mem: &InvertedIndex,
    seg: &InvertedIndex,
    algo: QueryAlgorithm,
    queries: &[QueryExpr],
) -> Vec<(&'static str, bool)> {
    vec![
        (
            "boss",
            batch_identical(
                &Boss::new(
                    mem,
                    BossConfig::with_cores(4).with_k(20).with_algorithm(algo),
                ),
                &Boss::new(
                    seg,
                    BossConfig::with_cores(4).with_k(20).with_algorithm(algo),
                ),
                queries,
            ),
        ),
        (
            "iiu",
            batch_identical(
                &Iiu::new(mem, IiuConfig::with_cores(4).with_algorithm(algo)),
                &Iiu::new(seg, IiuConfig::with_cores(4).with_algorithm(algo)),
                queries,
            ),
        ),
        (
            "lucene",
            batch_identical(
                &Lucene::new(mem, LuceneConfig::with_threads(4).with_algorithm(algo)),
                &Lucene::new(seg, LuceneConfig::with_threads(4).with_algorithm(algo)),
                queries,
            ),
        ),
    ]
}

fn run_verify(args: &Args) -> i32 {
    let schemes: Vec<SchemeChoice> = std::iter::once(SchemeChoice::Hybrid)
        .chain(
            boss_compress::ALL_SCHEMES
                .iter()
                .map(|&s| SchemeChoice::Fixed(s)),
        )
        .collect();
    let corpora = [
        ("clueweb12-like", CorpusSpec::clueweb12_like(Scale::Smoke)),
        ("ccnews-like", CorpusSpec::ccnews_like(Scale::Smoke)),
    ];
    println!("corpus\tscheme\tindex_equal\tengine\talgorithm\tidentical");
    let mut failures = 0u32;
    for (name, spec) in corpora {
        for &scheme in &schemes {
            let dir = std::env::temp_dir().join(format!(
                "boss-segment-verify-{name}-{scheme}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let seg = spec
                .build_segments_with(&dir, 4, scheme)
                .expect("segment build")
                .merge()
                .expect("merge");
            std::fs::remove_dir_all(&dir).ok();
            let lists = spec.term_lists().expect("term lists");
            let mut builder = IndexBuilder::new().scheme(scheme);
            for (term, list) in &lists {
                builder = builder.add_posting_list(term, list);
            }
            let mem = builder.build().expect("in-memory build");
            let index_equal = mem == seg;
            if !index_equal {
                failures += 1;
            }
            let queries = suite(&mem, args.seed);
            for algo in ALL_ALGORITHMS {
                for (engine, ok) in engines_identical(&mem, &seg, algo, &queries) {
                    if !ok {
                        failures += 1;
                    }
                    println!("{name}\t{scheme}\t{index_equal}\t{engine}\t{algo:?}\t{ok}");
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} segment-vs-memory mismatches");
        return 1;
    }
    println!("# all segment-loaded engines bit-identical to in-memory builds");
    0
}

fn main() {
    let args = parse_args();
    let code = if args.verify {
        run_verify(&args)
    } else {
        run_build(&args)
    };
    std::process::exit(code);
}
