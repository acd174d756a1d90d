//! The ablation studies of DESIGN.md: design points the paper fixes,
//! swept.

use super::{CorpusKind, FigureCtx, Systems};
use crate::{f, header, row};
use boss_compress::ALL_SCHEMES;
use boss_core::{BossConfig, BossDevice, EtMode, TimingFidelity};
use boss_engine::{BatchExecutor, Boss, SchedPolicy, SearchEngine, ShardTiming, Sharded};
use boss_index::shard::ShardedIndex;
use boss_index::{Bm25, Bm25Params, EncodedList, PostingList};
use boss_scm::{AccessCategory, MemoryConfig};
use boss_workload::queries::QueryType;
use boss_workload::rng;
use rand::RngExt;
use std::io;

/// Block size (32–512 postings) vs skip precision and metadata overhead
/// — the design choice behind the paper's 128.
pub(super) fn block_size(ctx: &mut FigureCtx) -> io::Result<()> {
    let out = &mut *ctx.out;
    let mut r = rng::rng(ctx.args.seed);
    // A clustered list (skipping-friendly) and a uniform probe list.
    let n_docs = 400_000u32;
    let clustered: Vec<u32> = {
        let mut v = Vec::new();
        for _ in 0..40 {
            let base = r.random_range(0..n_docs - 2000);
            v.extend(
                rng::sorted_distinct(&mut r, 800, 2000)
                    .into_iter()
                    .map(|x| base + x),
            );
        }
        v.sort_unstable();
        v.dedup();
        v
    };
    let probes = rng::sorted_distinct(&mut r, 3_000, n_docs);

    let bm25 = Bm25::new(Bm25Params::default(), n_docs, 100.0);
    let norms = vec![1.2f32; n_docs as usize];
    let tfs = vec![1u32; clustered.len()];
    let list = PostingList::from_columns(clustered, tfs).expect("valid");

    writeln!(
        out,
        "# Ablation: block size vs skip precision (clustered list, uniform probes)"
    )?;
    header(
        out,
        &[
            "block_size",
            "blocks",
            "meta_bytes",
            "data_bytes",
            "blocks_touched",
            "touch_frac",
        ],
    )?;
    for bs in [32usize, 64, 128, 256, 512] {
        let enc = EncodedList::encode_with_block_size(
            &list,
            boss_compress::Scheme::OptPfd,
            &bm25,
            1.5,
            &norms,
            bs,
        )
        .expect("encodes");
        // Blocks an intersection with the probe list must fetch: any block
        // whose [first,last] range contains a probe.
        let mut touched = 0usize;
        let mut pi = 0usize;
        for b in enc.blocks() {
            while pi < probes.len() && probes[pi] < b.first_doc {
                pi += 1;
            }
            if pi < probes.len() && probes[pi] <= b.last_doc {
                touched += 1;
            }
        }
        row(
            out,
            &[
                bs.to_string(),
                enc.n_blocks().to_string(),
                enc.meta_bytes().to_string(),
                enc.data_bytes().to_string(),
                touched.to_string(),
                f(touched as f64 / enc.n_blocks().max(1) as f64),
            ],
        )?;
    }
    writeln!(
        out,
        "# smaller blocks skip more precisely but cost more metadata; 128 balances both"
    )
}

/// Core scaling beyond the paper's 8, exposing the SCM bandwidth ceiling
/// — the "scale-out further" argument of Section III-A.
pub(super) fn cores(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Clueweb)?;
    let args = &ctx.args;
    let sys = Systems::new(&corpus, args);
    let out = &mut *ctx.out;
    let queries = corpus.trec_mix(args.queries_per_type * 6, args.seed)?;
    writeln!(
        out,
        "# Ablation: core-count sweep on the TREC-like mix (k={})",
        args.k
    )?;
    args.write_threads_comment(out)?;
    header(
        out,
        &[
            "cores",
            "boss_qps",
            "iiu_qps",
            "boss_gbps",
            "iiu_gbps",
            "boss_speedup_vs_iiu",
        ],
    )?;
    for cores in [1u32, 2, 4, 8, 16, 32] {
        let b = sys.boss(
            cores,
            EtMode::Full,
            MemoryConfig::optane_dcpmm(),
            args.k,
            &queries,
        );
        let i = sys.iiu(cores, MemoryConfig::optane_dcpmm(), &queries);
        row(
            out,
            &[
                cores.to_string(),
                f(b.qps),
                f(i.qps),
                f(b.bandwidth_gbps),
                f(i.bandwidth_gbps),
                f(b.qps / i.qps.max(1e-9)),
            ],
        )?;
    }
    Ok(())
}

/// Timing fidelity — the bottleneck-stage roofline vs the event-driven
/// pipeline replay, per query type. Functional results are identical by
/// construction (enforced by tests); this quantifies how much latency
/// the roofline's `max()` hides.
pub(super) fn fidelity(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
    let k = ctx.args.k;
    let out = &mut *ctx.out;
    writeln!(out, "# Ablation: timing fidelity (1 BOSS core, k={k})")?;
    header(out, &["qtype", "roofline_us", "pipelined_us", "ratio"])?;
    for (qt, queries) in &suite.per_type {
        let total = [TimingFidelity::Roofline, TimingFidelity::Pipelined].map(|fid| {
            let mut dev = BossDevice::new(
                &corpus.index,
                BossConfig::with_cores(1).with_k(k).with_fidelity(fid),
            );
            queries
                .iter()
                .map(|q| dev.search_expr(q, k).expect("runs").cycles)
                .sum::<u64>()
        });
        let n = queries.len() as f64;
        row(
            out,
            &[
                qt.label().into(),
                f(total[0] as f64 / n / 1e3),
                f(total[1] as f64 / n / 1e3),
                f(total[1] as f64 / total[0].max(1) as f64),
            ],
        )?;
    }
    writeln!(
        out,
        "# ratio > 1 = stage imbalance the roofline hides; both models share the functional layer"
    )
}

/// Hybrid per-list compression vs a single fixed scheme — index
/// footprint for the same corpus.
pub(super) fn hybrid(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let hybrid = &corpus.index;
    let out = &mut *ctx.out;
    writeln!(out, "# Ablation: hybrid vs fixed-scheme index footprint")?;
    header(out, &["scheme", "data_mb", "vs_hybrid", "vs_raw"])?;
    let raw = hybrid.total_raw_bytes() as f64;
    let hybrid_bytes = hybrid.total_data_bytes() as f64;
    row(
        out,
        &[
            "hybrid".into(),
            f(hybrid_bytes / 1e6),
            "1.00".into(),
            f(hybrid_bytes / raw),
        ],
    )?;
    for s in ALL_SCHEMES {
        // Re-encode each list under the fixed scheme.
        let total: Option<u64> = hybrid
            .term_ids()
            .map(|id| {
                let (docs, tfs) = hybrid.list(id).decode_all().expect("decodes");
                let list = PostingList::from_columns(docs, tfs).expect("valid");
                let idf = hybrid.term_info(id).idf;
                EncodedList::encode(&list, s, hybrid.bm25(), idf, hybrid.doc_norms())
                    .ok()
                    .map(|enc| enc.data_bytes() as u64)
            })
            .sum();
        match total {
            Some(total) => row(
                out,
                &[
                    s.label().into(),
                    f(total as f64 / 1e6),
                    f(total as f64 / hybrid_bytes),
                    f(total as f64 / raw),
                ],
            )?,
            None => row(
                out,
                &[s.label().into(), "n/a".into(), "n/a".into(), "n/a".into()],
            )?,
        }
    }
    Ok(())
}

/// How the result count k drives early-termination efficacy and
/// host-interconnect traffic. The paper fixes k = 1000; this sweep shows
/// why the top-k module's bandwidth saving grows as k shrinks, and that
/// ET gets sharper.
pub(super) fn k(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
    let args = &ctx.args;
    let sys = Systems::new(&corpus, args);
    let out = &mut *ctx.out;
    writeln!(out, "# Ablation: k sweep (BOSS, 1 core, union queries)")?;
    args.write_threads_comment(out)?;
    header(
        out,
        &[
            "qtype",
            "k",
            "docs_scored",
            "frac_scored",
            "st_result_bytes",
            "qps",
        ],
    )?;
    for (qt, queries) in &suite.per_type {
        if !matches!(qt, QueryType::Q3 | QueryType::Q5) {
            continue;
        }
        let boss = |et, k| sys.boss(1, et, MemoryConfig::optane_dcpmm(), k, queries);
        let total = boss(EtMode::Exhaustive, 10).eval.docs_scored.max(1);
        for k in [10usize, 100, 1000] {
            let r = boss(EtMode::Full, k);
            row(
                out,
                &[
                    qt.label().into(),
                    k.to_string(),
                    r.eval.docs_scored.to_string(),
                    f(r.eval.docs_scored as f64 / total as f64),
                    r.mem.bytes(AccessCategory::StResult).to_string(),
                    f(r.qps),
                ],
            )?;
        }
    }
    Ok(())
}

/// Memory-pool scale-out (Figure 2 / Section III-A): the corpus split
/// across 1..16 memory nodes, each with its own BOSS device, behind one
/// shared 64 GB/s CXL-like link — the interconnect traffic of BOSS's
/// hardware top-k against a host-side design that ships every node's
/// full scored candidate list to the CPU: the coordinator's result-store
/// bytes (8 per shipped hit) at `k`, and at `k = n_docs`.
pub(super) fn pool_scaleout(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let index = &corpus.index;
    let k = ctx.args.k;
    let out = &mut *ctx.out;
    let mut sampler = corpus.sampler(ctx.args.seed)?;
    let queries: Vec<_> = (0..ctx.args.queries_per_type.max(4))
        .map(|i| {
            let qt = if i % 2 == 0 {
                QueryType::Q3
            } else {
                QueryType::Q5
            };
            sampler.sample(qt).expect("corpus samples").expr
        })
        .collect();

    writeln!(
        out,
        "# Ablation: pool scale-out, k={k} — interconnect bytes per query"
    )?;
    header(
        out,
        &[
            "nodes",
            "topk_link_bytes",
            "hostside_link_bytes",
            "reduction_x",
            "mean_query_us",
        ],
    )?;
    for nodes in [1u32, 2, 4, 8, 16] {
        let sharded = ShardedIndex::split(index, nodes).expect("splits");
        let leaves = (sharded.shards().iter())
            .map(|shard| vec![Boss::new(shard, BossConfig::with_cores(2))])
            .collect();
        let mut pool = Sharded::new(
            Boss::new(index, BossConfig::with_cores(2)),
            &sharded,
            leaves,
            ShardTiming::ScatterGather,
        );
        let mut link = 0u64;
        let mut host = 0u64;
        let mut cycles = 0u64;
        for q in &queries {
            let res = pool.search(q, k).expect("pool search runs");
            link += res.mem.bytes(AccessCategory::StResult);
            cycles += res.cycles;
            let all = pool
                .search(q, index.n_docs() as usize)
                .expect("pool search runs");
            host += all.mem.bytes(AccessCategory::StResult);
        }
        let n = queries.len() as f64;
        row(
            out,
            &[
                nodes.to_string(),
                f(link as f64 / n),
                f(host as f64 / n),
                f(host as f64 / link.max(1) as f64),
                f(cycles as f64 / n / 1e3),
            ],
        )?;
    }
    writeln!(
        out,
        "# top-k traffic grows with nodes*k; host-side traffic stays at the full candidate volume"
    )
}

/// Query-scheduler policy (FIFO vs shortest-job-first) on batches with
/// skewed query sizes — the query scheduler of Figure 4(a) is a design
/// point the paper fixes as FIFO; this quantifies the headroom.
pub(super) fn scheduler(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let queries = corpus.trec_mix(args.queries_per_type * 6, args.seed)?;
    writeln!(
        out,
        "# Ablation: scheduler policy, {} queries, k={}",
        queries.len(),
        args.k
    )?;
    args.write_threads_comment(out)?;
    header(
        out,
        &["cores", "fifo_makespan_ms", "sjf_makespan_ms", "sjf_gain"],
    )?;
    for cores in [2u32, 4, 8] {
        let engine = Boss::new(&corpus.index, BossConfig::with_cores(cores).with_k(args.k));
        let run = |policy: SchedPolicy| {
            BatchExecutor::with_threads(args.threads)
                .with_policy(policy)
                .run(&engine, &queries, args.k)
                .expect("runs")
        };
        let fifo = run(SchedPolicy::Fifo);
        let sjf = run(SchedPolicy::Sjf);
        row(
            out,
            &[
                cores.to_string(),
                f(fifo.makespan_cycles as f64 / 1e6),
                f(sjf.makespan_cycles as f64 / 1e6),
                f(fifo.makespan_cycles as f64 / sjf.makespan_cycles.max(1) as f64),
            ],
        )?;
    }
    Ok(())
}
