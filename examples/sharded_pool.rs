//! A terabyte-scale serving story in miniature: shard a corpus across a
//! pool of SCM memory nodes (Figure 2), give each node its own BOSS
//! device, and serve queries root-to-leaves — watching what crosses the
//! shared CXL link.
//!
//! Run with: `cargo run --release -p boss-examples --bin sharded_pool`

use boss_core::BossConfig;
use boss_engine::{Boss, QueryOutcome, SearchEngine, ShardTiming, Sharded};
use boss_index::shard::ShardedIndex;
use boss_scm::AccessCategory;
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

    let config = || BossConfig::with_cores(2);
    let leaves = (sharded.shards().iter())
        .map(|shard| vec![Boss::new(shard, config())])
        .collect();
    let mut pool = Sharded::new(
        Boss::new(&index, config()),
        &sharded,
        leaves,
        ShardTiming::ScatterGather,
    );
    let mut single = Boss::new(&index, config());
    let mut sampler = QuerySampler::new(&index, 11)?;
    let k = 10;
    // Each node writes 8 bytes per hit it ships over the link. At
    // k = n_docs every node ships its whole candidate list: the traffic
    // of a host-side design without hardware top-k.
    let link_bytes = |out: &QueryOutcome| out.mem.bytes(AccessCategory::StResult);

    println!("\nquery\tlink_bytes\thostside_bytes\tlatency_us\thits");
    for qt in [QueryType::Q1, QueryType::Q3, QueryType::Q5] {
        let q = sampler.sample(qt)?.expr;
        let out = pool.search(&q, k)?;
        let hostside = link_bytes(&pool.search(&q, index.n_docs() as usize)?);
        println!(
            "{}\t{}\t{}\t{:.1}\t{}",
            qt.label(),
            link_bytes(&out),
            hostside,
            out.cycles as f64 / 1e3,
            out.hits.len()
        );
        // The pool's merged answer equals a single-index search, hit for
        // hit: the same docIDs and the same score bits.
        let global = single.search(&q, k)?.hits;
        let bits = |hits: &[boss_index::SearchHit]| -> Vec<(u32, u32)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        assert_eq!(
            bits(&out.hits),
            bits(&global),
            "the pool's hits differ from one device's over the unsplit index"
        );
    }
    println!("\nhardware top-k keeps the shared link at k x 8 bytes per node per query.");
    Ok(())
}
