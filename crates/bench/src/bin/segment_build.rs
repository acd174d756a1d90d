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
//! The throughput numbers here are *host* wall-clock and vary machine to
//! machine (the repeated, calibrated measurement is `benchmark/`'s
//! `ingest_open` workload); the gates are exact. That a merged segment
//! set equals the in-memory build is `boss-engine`'s
//! `tests/segment_identity.rs`.

use boss_index::{SchemeChoice, SpimiBuilder, SpimiConfig};
use boss_workload::corpus::StreamingCorpusSpec;
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
            "--help" | "-h" => {
                println!(
                    "usage: [--docs N] [--vocab N] [--terms-per-doc N] [--zipf F] \
                     [--budget-mb N] [--scheme hybrid|BP|VB|OptPFD|S16|S8b|GVB] [--seed N] \
                     [--dir PATH] [--min-spills N] [--no-merge]"
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

fn main() {
    std::process::exit(run_build(&parse_args()));
}
