//! CLI: load a segment file (`build_index`) and serve queries through the BOSS offload
//! API — the end-to-end `init()` + `search()` flow of Section IV-D.
//!
//! Usage: `cargo run --release -p boss-bench --bin search_index -- <index.bosseg> '<expr>' [k]`
//! Example expr: `"t0001" AND ("t0002" OR "t0003")`

use boss_core::{BossConfig, BossHandle, SearchRequest};
use boss_index::segment::load_segment;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: search_index <index.bosseg> '<query expression>' [k]");
        std::process::exit(2);
    }
    let k: usize = args.get(2).map_or(10, |s| {
        s.parse().unwrap_or_else(|e| {
            eprintln!("invalid k {s:?}: {e}");
            std::process::exit(2);
        })
    });
    let index = match load_segment(&args[0]) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("failed to load {}: {e}", args[0]);
            std::process::exit(1);
        }
    };
    let mut boss = BossHandle::init(&index, BossConfig::default().with_k(k));
    match boss.search(&SearchRequest::new(&args[1]).with_k(k)) {
        Ok(out) => {
            for h in &out.hits {
                println!("{}\t{:.4}", h.doc, h.score);
            }
            eprintln!(
                "# {} hits, {} core cycles ({:.1} us at 1 GHz), {} bytes of SCM traffic, {} docs scored / {} skipped",
                out.hits.len(),
                out.cycles,
                out.cycles as f64 / 1e3,
                out.mem.total_bytes(),
                out.eval.docs_scored,
                out.eval.docs_skipped_block + out.eval.docs_skipped_wand,
            );
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}
