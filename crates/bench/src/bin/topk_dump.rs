//! Hits-only top-k dump for the CI algorithm-invariance diffs.
//!
//! Prints one data row per (query type, system, query, rank) with the
//! document id and the score's exact bit pattern in hex. No cycle,
//! bandwidth, or counter columns: everything in a data row must be
//! bit-identical across `--algorithm`, `--threads`, and `--shards`, so
//! CI can compare runs with
//!
//! ```sh
//! diff <(grep -v '^#' exhaustive.tsv) <(grep -v '^#' bmw.tsv)
//! ```
//!
//! and any divergence — a pruning plan dropping a hit, a shard merge
//! reordering a tie — shows up as a diff failure rather than a subtle
//! quality regression.

use boss_bench::TypedSuite;
use boss_bench::{boss_engine, header, iiu_engine, lucene_engine, BenchArgs, BenchTarget};
use boss_core::EtMode;
use boss_engine::SearchEngine;
use boss_scm::MemoryConfig;
use boss_workload::corpus::CorpusSpec;

fn dump<E: SearchEngine>(name: &str, engine: &mut E, suite: &TypedSuite, k: usize) {
    for (qt, queries) in &suite.per_type {
        for (qi, q) in queries.iter().enumerate() {
            let out = engine.search(q, k).expect("query runs");
            for (rank, h) in out.hits.iter().enumerate() {
                println!(
                    "{}\t{}\t{}\t{}\t{}\t{:08x}",
                    qt.label(),
                    name,
                    qi,
                    rank,
                    h.doc,
                    h.score.to_bits(),
                );
            }
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("ccnews-like", &CorpusSpec::ccnews_like(args.scale));
    let sharded = args.shard_split(&index);
    let target = BenchTarget::new(&index, sharded.as_ref());
    let suite = TypedSuite::sample(&index, args.queries_per_type, args.seed);
    println!("# Top-k hit dump (doc id + score bits); data rows are invariant");
    println!("# across --algorithm / --threads / --shards by construction");
    args.print_threads_comment();
    header(&["qtype", "system", "query", "rank", "doc", "score_bits"]);
    if args.engines.lucene {
        let mut luc = lucene_engine(&target, 1, MemoryConfig::host_scm_6ch(), &args.tuning);
        dump("Lucene", &mut luc, &suite, args.k);
    }
    if args.engines.iiu {
        let mut iiu = iiu_engine(&target, 1, MemoryConfig::optane_dcpmm(), &args.tuning);
        dump("IIU", &mut iiu, &suite, args.k);
    }
    if args.engines.boss {
        let mut boss = boss_engine(
            &target,
            1,
            EtMode::Full,
            MemoryConfig::optane_dcpmm(),
            args.k,
            &args.tuning,
        );
        dump("BOSS", &mut boss, &suite, args.k);
    }
}
