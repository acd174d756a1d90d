//! CLI: build a synthetic corpus and save it as one segment file for
//! `search_index` (the artifact `init(indexFile, ...)` consumes).
//!
//! Usage: `cargo run --release -p boss-bench --bin build_index -- <out.bosseg> [--scale smoke|small|full] [--corpus ccnews|clueweb]`

use boss_index::segment::write_segment;
use boss_workload::corpus::{CorpusSpec, Scale};
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() {
    let mut out: Option<String> = None;
    let mut scale = Scale::Smoke;
    let mut corpus = "ccnews".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .expect("scale value")
                    .parse()
                    .expect("valid scale")
            }
            "--corpus" => corpus = it.next().expect("corpus value"),
            "--help" | "-h" => {
                println!("usage: build_index <out.bosseg> [--scale smoke|small|full] [--corpus ccnews|clueweb]");
                return;
            }
            other => out = Some(other.to_owned()),
        }
    }
    let Some(out) = out else {
        eprintln!("missing output path; see --help");
        std::process::exit(2);
    };
    let spec = match corpus.as_str() {
        "ccnews" => CorpusSpec::ccnews_like(scale),
        "clueweb" => CorpusSpec::clueweb12_like(scale),
        other => {
            eprintln!("unknown corpus {other:?} (use ccnews|clueweb)");
            std::process::exit(2);
        }
    };
    eprintln!("building {} ...", spec.name);
    let index = spec.build().expect("corpus builds");
    // Term ids are in lexical order, the order a segment stores.
    let terms: Vec<_> = index
        .term_ids()
        .map(|id| (index.term_info(id).text.to_owned(), index.list(id).clone()))
        .collect();
    let mut file = BufWriter::new(File::create(&out).expect("index file created"));
    write_segment(
        &mut file,
        0,
        index.doc_lens(),
        index.bm25().params(),
        &terms,
    )
    .expect("index file written");
    file.flush().expect("index file flushed");
    eprintln!(
        "wrote {out}: {} docs, {} terms, {:.1} MiB compressed postings",
        index.n_docs(),
        index.n_terms(),
        index.total_data_bytes() as f64 / (1 << 20) as f64
    );
}
