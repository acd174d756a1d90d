//! Pooled-memory scaling study: how BOSS and IIU throughput scale with
//! core count on an SCM node, and where the bandwidth roofline bites —
//! the architectural argument of Sections I and III.
//!
//! Run with: `cargo run --release -p boss-examples --bin pooled_memory_scaling`

use boss_core::{BossConfig, EtMode};
use boss_engine::{BatchExecutor, Boss, Iiu, SearchEngine};
use boss_iiu::IiuConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::QuerySampler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index = CorpusSpec::clueweb12_like(Scale::Smoke).build()?;
    let mut sampler = QuerySampler::new(&index, 7)?;
    let queries: Vec<_> = sampler
        .trec_like_mix(48)?
        .into_iter()
        .map(|t| t.expr)
        .collect();
    let k = 100;
    let executor = BatchExecutor::new();

    println!("cores\tBOSS qps\tIIU qps\tBOSS GB/s\tIIU GB/s");
    for cores in [1u32, 2, 4, 8, 16] {
        let boss = Boss::new(
            &index,
            BossConfig::with_cores(cores)
                .with_et(EtMode::Full)
                .with_k(k),
        );
        let b = executor.run(&boss, &queries, k)?;
        let iiu = Iiu::new(&index, IiuConfig::with_cores(cores));
        let i = executor.run(&iiu, &queries, k)?;
        // Logical bytes over the makespan; at 1 GHz, bytes/cycle = GB/s.
        let iiu_bw = i.mem.total_bytes() as f64 / i.makespan_cycles as f64;
        println!(
            "{cores}\t{:.0}\t{:.0}\t{:.2}\t{:.2}",
            b.throughput_qps(boss.clock_ghz()),
            i.throughput_qps(iiu.clock_ghz()),
            boss.bandwidth_gbps(&b.mem, b.makespan_cycles),
            iiu_bw
        );
    }
    println!("\nBOSS keeps scaling where IIU saturates: bandwidth efficiency is the headroom.");
    Ok(())
}
