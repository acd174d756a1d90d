//! The flags that must not move a figure, checked in-process over the
//! registry at `--scale smoke`: `--threads`, a quiet `--fault-plan` under
//! either `--degrade` policy and the `--serve*` comment block leave every
//! data row byte-identical, and every `--algorithm` returns the exhaustive
//! run's hits (doc id + score bits) at every thread count. Diagnostics may
//! differ only in `#` comment lines. Four queries per type (not the
//! default ten) keep the figure runs inside the tier-1 budget in a debug
//! build. That shards and the segment build path move no hit is the
//! engine layer's contract (`boss-engine`'s `differential.rs` and
//! `segment_identity.rs`), not a flag's.

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
fn a_quiet_fault_plan_changes_no_line_under_either_degrade_policy() {
    let corpora = &mut Corpora::default();
    for threads in [1, 4] {
        let off = figure(corpora, "fig13_singlecore", &format!("--threads {threads}"));
        for degrade in ["fail", "skip"] {
            let flags = format!("--threads {threads} --fault-plan 7 --degrade {degrade}");
            assert_eq!(figure(corpora, "fig13_singlecore", &flags), off, "{flags}");
        }
    }
}

#[test]
fn fig09_is_thread_invariant_comments_included() {
    let corpora = &mut Corpora::default();
    let t1 = figure(corpora, "fig09_multicore_clueweb", "--threads 1");
    let t4 = figure(corpora, "fig09_multicore_clueweb", "--threads 4");
    assert_eq!(sans_threads(&t1), sans_threads(&t4));
}

#[test]
fn latency_profile_serving_block_is_comment_only() {
    let corpora = &mut Corpora::default();
    let plain = figure(corpora, "latency_profile", "--queries-per-type 20");
    let serving = figure(
        corpora,
        "latency_profile",
        "--queries-per-type 20 --serve --serve-load 1.5 --serve-policy shed --serve-degrade",
    );
    assert!(serving.lines().any(|l| l.starts_with("# serving BOSS")));
    assert_eq!(rows(&plain), rows(&serving));
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
        let tuning = args.tuning.clone().with_algorithm(algorithm);
        let scm = MemoryConfig::optane_dcpmm;
        [
            run_system(
                &lucene_engine(&index, 1, MemoryConfig::host_scm_6ch(), &tuning),
                &queries,
                args.k,
                threads,
            ),
            run_system(
                &iiu_engine(&index, 1, scm(), &tuning),
                &queries,
                args.k,
                threads,
            ),
            run_system(
                &boss_engine(&index, 1, EtMode::Full, scm(), args.k, &tuning),
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
