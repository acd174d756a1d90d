//! The flags that must not move a figure, checked in-process over the
//! registry at `--scale smoke`: `--threads` leaves every data row
//! byte-identical (diagnostics may differ only in `#` comment lines), and
//! every `--algorithm` returns the exhaustive run's hits (doc id + score
//! bits) at every thread count. Four queries per type (not the default
//! ten) keep the figure runs inside the tier-1 budget in a debug build.
//! What the figure CLI does not select is the engine layer's contract,
//! not a flag's: shards, the segment build path and a quiet fault plan
//! move no bit (the `shards`, `segments` and `quiet_fault_plan` rows of
//! `boss-engine`'s `tests/invariance.rs`, and `differential.rs` against
//! the reference evaluator), and open-loop serving decides alike at every
//! worker count (`end_to_end_run_is_bit_identical_across_worker_counts`).
//!
//! This file stays beside that table: it is the one test that runs
//! registry entries end to end — argument parsing, the figure driver, the
//! printed rows — at more than one thread count. The table compares
//! engine outcomes (hits, `MemStats`, `EvalCounts`) and would not see a
//! figure that prints the same outcomes differently. This file holds only
//! checks that go through `figure`; an invariance of the engines belongs
//! in the table.

use boss_bench::figures::{self, Corpora, FigureCtx};
use boss_bench::{boss_engine, iiu_engine, lucene_engine, run_system};
use boss_bench::{BenchArgs, TypedSuite};
use boss_core::EtMode;
use boss_index::ALL_ALGORITHMS;
use boss_scm::MemoryConfig;
use boss_workload::corpus::{CorpusSpec, Scale};

fn smoke_args(flags: &str) -> BenchArgs {
    BenchArgs::parse(
        format!("--scale smoke --queries-per-type 4 {flags}")
            .split_whitespace()
            .map(String::from),
    )
}

/// `figure <name> --scale smoke --queries-per-type 4 <flags>`, captured
/// (a later `--queries-per-type` in `flags` wins). Runs of one test share
/// `corpora`, so each corpus is built once per test.
fn figure(corpora: &mut Corpora, name: &str, flags: &str) -> String {
    let mut buf = Vec::new();
    let run = figures::find(name).expect("registered figure");
    run(&mut FigureCtx::new(smoke_args(flags), &mut buf, corpora))
        .unwrap_or_else(|e| panic!("figure {name} {flags}: {e}"));
    String::from_utf8(buf).expect("figures print UTF-8")
}

/// The data rows: every `#` comment line removed.
fn rows(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.starts_with('#')).collect()
}

/// Everything but the `# threads` line.
fn sans_threads(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.starts_with("# threads"))
        .collect()
}

/// `name`'s data rows under each flag set equal its rows under no flags.
fn assert_rows_match_base(name: &str, flag_sets: &[String]) {
    let mut corpora = Corpora::default();
    let base = figure(&mut corpora, name, "");
    for flags in flag_sets {
        assert_eq!(
            rows(&figure(&mut corpora, name, flags)),
            rows(&base),
            "{name} data rows moved under {flags}"
        );
    }
}

#[test]
fn fig13_rows_ignore_threads() {
    let flag_sets = [1, 2, 4].map(|threads| format!("--threads {threads}"));
    assert_rows_match_base("fig13_singlecore", &flag_sets);
}

#[test]
fn fig09_is_thread_invariant_comments_included() {
    let corpora = &mut Corpora::default();
    let t1 = figure(corpora, "fig09_multicore_clueweb", "--threads 1");
    let t4 = figure(corpora, "fig09_multicore_clueweb", "--threads 4");
    assert_eq!(sans_threads(&t1), sans_threads(&t4));
}

#[test]
fn every_algorithm_returns_the_exhaustive_hits_at_every_thread_count() {
    let index = CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds");
    let args = smoke_args("");
    let suite = TypedSuite::sample(&index, args.queries_per_type, args.seed);
    let queries = suite.all();
    // Per engine, per query: (doc id, score bits) in rank order.
    let hits = |algorithm, threads| {
        let scm = MemoryConfig::optane_dcpmm;
        [
            run_system(
                &lucene_engine(&index, 1, MemoryConfig::host_scm_6ch(), algorithm),
                &queries,
                args.k,
                threads,
            ),
            run_system(
                &iiu_engine(&index, 1, scm(), algorithm),
                &queries,
                args.k,
                threads,
            ),
            run_system(
                &boss_engine(&index, 1, EtMode::Full, scm(), args.k, algorithm),
                &queries,
                args.k,
                threads,
            ),
        ]
        .map(|run| {
            run.outcomes
                .iter()
                .map(|o| {
                    o.hits
                        .iter()
                        .map(|h| (h.doc, h.score.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
    };
    let exhaustive = hits(ALL_ALGORITHMS[0], 1);
    for algorithm in ALL_ALGORITHMS {
        for threads in [1, 2, 4] {
            assert_eq!(
                hits(algorithm, threads),
                exhaustive,
                "{algorithm} at {threads} threads"
            );
        }
    }
}
