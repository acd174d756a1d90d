//! Ablation: how the result count k drives early-termination efficacy and
//! host-interconnect traffic (the DESIGN.md `ablation_k` study).
//!
//! The paper fixes k = 1000; this sweep shows why the top-k module's
//! bandwidth saving grows as k shrinks, and that ET gets sharper.

use boss_bench::{boss_engine, f, header, row, run_system, BenchArgs, BenchTarget, TypedSuite};
use boss_core::EtMode;
use boss_scm::{AccessCategory, MemoryConfig};
use boss_workload::corpus::CorpusSpec;
use boss_workload::queries::QueryType;

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("ccnews-like", &CorpusSpec::ccnews_like(args.scale));
    let sharded = args.shard_split(&index);
    let target = BenchTarget::new(&index, sharded.as_ref());
    let suite = TypedSuite::sample(&index, args.queries_per_type, args.seed);
    println!("# Ablation: k sweep (BOSS, 1 core, union queries)");
    args.print_threads_comment();
    header(&[
        "qtype",
        "k",
        "docs_scored",
        "frac_scored",
        "st_result_bytes",
        "qps",
    ]);
    for (qt, queries) in &suite.per_type {
        if !matches!(qt, QueryType::Q3 | QueryType::Q5) {
            continue;
        }
        let exhaustive = run_system(
            &boss_engine(
                &target,
                1,
                EtMode::Exhaustive,
                MemoryConfig::optane_dcpmm(),
                10,
                &args.tuning,
            ),
            queries,
            10,
            args.threads,
        );
        let total = exhaustive.eval.docs_scored.max(1);
        for k in [10usize, 100, 1000] {
            let r = run_system(
                &boss_engine(
                    &target,
                    1,
                    EtMode::Full,
                    MemoryConfig::optane_dcpmm(),
                    k,
                    &args.tuning,
                ),
                queries,
                k,
                args.threads,
            );
            row(&[
                qt.label().into(),
                k.to_string(),
                r.eval.docs_scored.to_string(),
                f(r.eval.docs_scored as f64 / total as f64),
                r.mem.bytes(AccessCategory::StResult).to_string(),
                f(r.qps),
            ]);
        }
    }
}
