//! Wall-clock scoring microbenchmark: seed per-document hot loop vs the
//! block-at-a-time kernels vs the software-pipelined traversal.
//!
//! Over the same encoded 128-value posting blocks, times three
//! functionally identical host paths feeding one top-k heap:
//!
//! * **scalar** — the seed hot loop: decode a block, then per document
//!   compute [`Bm25::term_score`] and [`TopK::offer`] it;
//! * **bulk** — decode a block, score all 128 documents with
//!   [`Bm25::score_block`], then [`TopK::sift_block`] the results;
//! * **bulk+pipelined** — the bulk kernels on a double-buffered
//!   traversal that decodes block `i + 1` before sifting block `i`, the
//!   structure `boss_core::fetch` uses on the query hot path.
//!
//! Outputs millions of documents scored per second (best of `--reps`
//! repetitions) per mode as TSV, verifies all three paths produce
//! bit-identical top-k hits, and writes a machine-readable summary to
//! `BENCH_score.json` (`--json PATH` to move it).
//!
//! Like `wallclock_decode`, this binary measures *host* wall-clock time:
//! its numbers vary run to run, unlike the simulated figures.

use boss_bench::{f, header, row};
use boss_compress::{BitPacking, BlockInfo, Codec};
use boss_core::TopK;
use boss_index::{Bm25, Bm25Params, ScoreScratch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

const VALUES_PER_BLOCK: usize = 128;

#[derive(Debug, Serialize)]
struct ModeResult {
    mode: String,
    blocks: usize,
    values_per_block: usize,
    mdocs_per_sec: f64,
    speedup_vs_scalar: f64,
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    reps: usize,
    k: usize,
    results: Vec<ModeResult>,
}

struct Args {
    blocks: usize,
    reps: usize,
    seed: u64,
    k: usize,
    json: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        blocks: 8192,
        reps: 5,
        seed: 42,
        k: 100,
        json: "BENCH_score.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--blocks" => args.blocks = take("--blocks").parse().expect("--blocks N"),
            "--reps" => args.reps = take("--reps").parse::<usize>().expect("--reps N").max(1),
            "--seed" => args.seed = take("--seed").parse().expect("--seed N"),
            "--k" => args.k = take("--k").parse::<usize>().expect("--k N").max(1),
            "--json" => args.json = take("--json"),
            "--help" | "-h" => {
                println!("usage: [--blocks N] [--reps N] [--seed N] [--k N] [--json PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One encoded posting block: BP-packed docID d-gaps and tf values.
struct EncodedBlock {
    gaps: Vec<u8>,
    gaps_info: BlockInfo,
    tfs: Vec<u8>,
    tfs_info: BlockInfo,
    first_doc: u32,
}

/// Reusable decode buffers, double-buffered for the pipelined mode —
/// the host-side mirror of `boss_core::fetch::DecodeScratch`.
#[derive(Default)]
struct Decoded {
    docs: Vec<u32>,
    tfs: Vec<u32>,
}

fn decode_block(block: &EncodedBlock, out: &mut Decoded) {
    // Concrete codec: static dispatch keeps the word-level kernels
    // inlinable into the traversal loop.
    let codec = BitPacking;
    out.docs.clear();
    out.tfs.clear();
    // d-gap decode with the fused prefix-sum, as the posting traversal
    // does.
    codec
        .decode_d1(
            &block.gaps,
            &block.gaps_info,
            block.first_doc,
            &mut out.docs,
        )
        .expect("block decodes");
    codec
        .decode(&block.tfs, &block.tfs_info, &mut out.tfs)
        .expect("block decodes");
}

/// A synthetic dense posting list — small d-gaps and low term
/// frequencies, as in the high-df lists where query time is spent (and
/// where the bulk scoring path runs).
fn posting_blocks(n: usize, rng: &mut ChaCha8Rng) -> (Vec<EncodedBlock>, Vec<f32>) {
    let codec = BitPacking;
    let bm25 = scoring_model();
    let mut blocks = Vec::with_capacity(n);
    let mut doc = 0u32;
    for _ in 0..n {
        let first_doc = doc;
        let gaps: Vec<u32> = (0..VALUES_PER_BLOCK)
            .map(|_| match rng.random_range(0..10u32) {
                0..=7 => rng.random_range(1..8u32),
                8 => rng.random_range(8..64u32),
                _ => rng.random_range(64..512u32),
            })
            .collect();
        doc += gaps.iter().sum::<u32>();
        let tfs: Vec<u32> = (0..VALUES_PER_BLOCK)
            .map(|_| match rng.random_range(0..10u32) {
                0..=5 => rng.random_range(1..4u32),
                6..=7 => rng.random_range(4..16u32),
                _ => rng.random_range(16..1024u32),
            })
            .collect();
        let mut gaps_buf = Vec::new();
        let gaps_info = codec.encode(&gaps, &mut gaps_buf).expect("block encodes");
        let mut tfs_buf = Vec::new();
        let tfs_info = codec.encode(&tfs, &mut tfs_buf).expect("block encodes");
        blocks.push(EncodedBlock {
            gaps: gaps_buf,
            gaps_info,
            tfs: tfs_buf,
            tfs_info,
            first_doc,
        });
    }
    let norms: Vec<f32> = (0..=doc)
        .map(|_| bm25.doc_norm(rng.random_range(64..2048u32)))
        .collect();
    (blocks, norms)
}

fn scoring_model() -> Bm25 {
    Bm25::new(Bm25Params::default(), 1_000_000, 320.0)
}

/// The three traversal modes under test.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Scalar,
    Bulk,
    Pipelined,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Scalar => "scalar",
            Mode::Bulk => "bulk",
            Mode::Pipelined => "bulk+pipelined",
        }
    }
}

/// Runs one full traversal of `blocks` (visited in `order`, the same
/// for every mode) into a fresh top-k heap. The shuffled order models a
/// skip-heavy traversal: the next block is usually not in cache, which
/// is the latency the pipelined mode's decode-ahead exists to hide.
#[allow(clippy::too_many_arguments)]
fn traverse(
    mode: Mode,
    blocks: &[EncodedBlock],
    order: &[usize],
    norms: &[f32],
    idf: f32,
    k: usize,
    bufs: &mut [Decoded; 2],
    scratch: &mut ScoreScratch,
) -> TopK {
    let bm25 = scoring_model();
    let mut topk = TopK::new(k);
    match mode {
        Mode::Scalar => {
            let buf = &mut bufs[0];
            for &b in order {
                decode_block(&blocks[b], buf);
                for (&d, &tf) in buf.docs.iter().zip(&buf.tfs) {
                    topk.offer(d, bm25.term_score(idf, tf, norms[d as usize]));
                }
            }
        }
        Mode::Bulk => {
            let buf = &mut bufs[0];
            for &b in order {
                decode_block(&blocks[b], buf);
                bm25.score_block(idf, &buf.docs, &buf.tfs, norms, scratch);
                topk.sift_block(&buf.docs, scratch.scores());
            }
        }
        Mode::Pipelined => {
            // Double buffer: decode block i + 1 before sifting block i,
            // so its cache misses resolve under the scoring arithmetic.
            let [cur, next] = bufs;
            if let Some(&first) = order.first() {
                decode_block(&blocks[first], cur);
            }
            for i in 0..order.len() {
                if let Some(&ahead) = order.get(i + 1) {
                    decode_block(&blocks[ahead], next);
                }
                bm25.score_block(idf, &cur.docs, &cur.tfs, norms, scratch);
                topk.sift_block(&cur.docs, scratch.scores());
                std::mem::swap(cur, next);
            }
        }
    }
    topk
}

/// Best-of-`reps` millions of documents scored per second.
#[allow(clippy::too_many_arguments)]
fn throughput_mdocs(
    mode: Mode,
    reps: usize,
    blocks: &[EncodedBlock],
    order: &[usize],
    norms: &[f32],
    idf: f32,
    k: usize,
) -> f64 {
    let docs = (blocks.len() * VALUES_PER_BLOCK) as f64;
    let mut bufs = [Decoded::default(), Decoded::default()];
    let mut scratch = ScoreScratch::new();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let topk = traverse(mode, blocks, order, norms, idf, k, &mut bufs, &mut scratch);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(topk.into_hits());
    }
    docs / best / 1e6
}

fn main() {
    let args = parse_args();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let (blocks, norms) = posting_blocks(args.blocks, &mut rng);
    let bm25 = scoring_model();
    let idf = bm25.idf((args.blocks * VALUES_PER_BLOCK) as u32);
    // Skip-heavy visit order, shared by every mode (Fisher–Yates).
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i as u32) as usize);
    }

    println!("# Wall-clock scoring throughput, seed per-document loop vs block kernels");
    println!(
        "# {} blocks x {} values, k {}, best of {} reps; Mdocs/s scored into top-k",
        args.blocks, VALUES_PER_BLOCK, args.k, args.reps
    );
    header(&[
        "mode",
        "mdocs_per_sec",
        "speedup_vs_scalar",
        "bit_identical",
    ]);

    // Bit-identity first: all three modes must produce the same hits,
    // score bits included.
    let mut bufs = [Decoded::default(), Decoded::default()];
    let mut scratch = ScoreScratch::new();
    let key = |t: TopK| -> Vec<(u32, u32)> {
        t.into_hits()
            .iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect()
    };
    let baseline = key(traverse(
        Mode::Scalar,
        &blocks,
        &order,
        &norms,
        idf,
        args.k,
        &mut bufs,
        &mut scratch,
    ));

    let mut results = Vec::new();
    let mut scalar_mdocs = 0.0;
    for mode in [Mode::Scalar, Mode::Bulk, Mode::Pipelined] {
        let identical = key(traverse(
            mode,
            &blocks,
            &order,
            &norms,
            idf,
            args.k,
            &mut bufs,
            &mut scratch,
        )) == baseline;
        assert!(
            identical,
            "{}: top-k diverged from scalar path",
            mode.label()
        );
        let mdocs = throughput_mdocs(mode, args.reps, &blocks, &order, &norms, idf, args.k);
        if mode == Mode::Scalar {
            scalar_mdocs = mdocs;
        }
        let speedup = mdocs / scalar_mdocs;
        row(&[
            mode.label().into(),
            f(mdocs),
            f(speedup),
            identical.to_string(),
        ]);
        results.push(ModeResult {
            mode: mode.label().into(),
            blocks: args.blocks,
            values_per_block: VALUES_PER_BLOCK,
            mdocs_per_sec: mdocs,
            speedup_vs_scalar: speedup,
            bit_identical: identical,
        });
    }

    let pipelined = results.last().expect("three modes ran");
    println!(
        "# bulk+pipelined speedup over scalar: {}x (target >= 1.5x)",
        f(pipelined.speedup_vs_scalar)
    );

    let report = Report {
        bench: "wallclock_score".into(),
        reps: args.reps,
        k: args.k,
        results,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&args.json, json + "\n").expect("report written");
    eprintln!("wrote {}", args.json);
}
