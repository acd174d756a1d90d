//! Ablation: core scaling beyond the paper's 8, exposing the SCM
//! bandwidth ceiling — the "scale-out further" argument of Section III-A.

use boss_bench::{boss_engine, f, header, iiu_engine, row, run_system, BenchArgs, BenchTarget};
use boss_core::EtMode;
use boss_scm::MemoryConfig;
use boss_workload::corpus::CorpusSpec;
use boss_workload::queries::QuerySampler;

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("clueweb12-like", &CorpusSpec::clueweb12_like(args.scale));
    let sharded = args.shard_split(&index);
    let target = BenchTarget::new(&index, sharded.as_ref());
    let mut sampler = QuerySampler::new(&index, args.seed).expect("corpus vocabulary");
    let queries: Vec<_> = sampler
        .trec_like_mix(args.queries_per_type * 6)
        .expect("corpus samples")
        .into_iter()
        .map(|t| t.expr)
        .collect();
    println!(
        "# Ablation: core-count sweep on the TREC-like mix (k={})",
        args.k
    );
    args.print_threads_comment();
    header(&[
        "cores",
        "boss_qps",
        "iiu_qps",
        "boss_gbps",
        "iiu_gbps",
        "boss_speedup_vs_iiu",
    ]);
    for cores in [1u32, 2, 4, 8, 16, 32] {
        let b = run_system(
            &boss_engine(
                &target,
                cores,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                &args.tuning,
            ),
            &queries,
            args.k,
            args.threads,
        );
        let i = run_system(
            &iiu_engine(&target, cores, MemoryConfig::optane_dcpmm(), &args.tuning),
            &queries,
            args.k,
            args.threads,
        );
        row(&[
            cores.to_string(),
            f(b.qps),
            f(i.qps),
            f(b.bandwidth_gbps),
            f(i.bandwidth_gbps),
            f(b.qps / i.qps.max(1e-9)),
        ]);
    }
}
