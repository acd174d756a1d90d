//! The paper's own tables and figures: Tables I and III, the corpus
//! statistics behind DESIGN.md §2, and Figures 3 and 9–17 (9–12 differ
//! only in corpus, 13–17 loop over both).

use super::{CorpusKind, FigureCtx, Systems};
use crate::{f, geomean, header, row, BenchArgs, SystemRun};
use boss_compress::{best_scheme, compression_ratio, ALL_SCHEMES};
use boss_core::power::{AreaPowerModel, CORE_MODULES, DEVICE_MODULES, HOST_CPU_POWER_W};
use boss_core::{BossConfig, EtMode, QueryAlgorithm};
use boss_core::{CLOCK_GHZ, DECOMPRESSORS_PER_CORE, SCORERS_PER_CORE};
use boss_index::{InvertedIndex, BLOCK_SIZE};
use boss_luceneish::{LuceneConfig, HOST_CLOCK_GHZ};
use boss_scm::{AccessCategory, MemoryConfig};
use boss_workload::corpus::Scale;
use boss_workload::queries::QueryType;
use boss_workload::streams::{generate, ALL_STREAMS};
use std::io;

/// Core counts swept by Figures 9–12.
const CORE_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// The dynamic-pruning plans must be opt-in only: under the default
/// `--algorithm exhaustive`, no simulated system may book pruning work,
/// i.e. the figures' counts are unchanged from before pruning existed.
fn assert_exhaustive_untouched(args: &BenchArgs, system: &str, run: &SystemRun) {
    if args.tuning.algorithm == QueryAlgorithm::Exhaustive {
        assert_eq!(
            (run.eval.blocks_skipped_prune, run.eval.docs_skipped_prune),
            (0, 0),
            "exhaustive {system} run booked dynamic-pruning work"
        );
    }
}

/// Table I: hardware methodology configuration, printed from the actual
/// model constants so drift between the docs and the code is impossible.
pub(super) fn table01_config(ctx: &mut FigureCtx) -> io::Result<()> {
    let out = &mut *ctx.out;
    let boss = BossConfig::default();
    let lucene = LuceneConfig::default();
    let host_dram = MemoryConfig::host_ddr4_6ch();
    let host_scm = MemoryConfig::host_scm_6ch();
    let node = &boss.setup.memory;

    writeln!(out, "# Table I: hardware methodology")?;
    writeln!(out, "[Host Processor]")?;
    writeln!(
        out,
        "Core\tXeon-8280M-like @ {HOST_CLOCK_GHZ:.2} GHz, {} threads",
        lucene.setup.lanes
    )?;
    writeln!(out, "[Host Memory System]")?;
    writeln!(
        out,
        "DRAM\t{} channels, {:.2} GB/s",
        host_dram.channels, host_dram.seq_read_gbps
    )?;
    writeln!(
        out,
        "SCM\t{} channels, {:.1} GB/s ({:.2} GB/s per channel)",
        host_scm.channels,
        host_scm.seq_read_gbps,
        host_scm.seq_read_gbps / f64::from(host_scm.channels)
    )?;
    writeln!(out, "[BOSS Configuration]")?;
    writeln!(out, "BOSS\t{} cores @ {CLOCK_GHZ:.1} GHz", boss.setup.lanes)?;
    writeln!(
        out,
        "BOSS Core\t1 block fetch, {DECOMPRESSORS_PER_CORE} decompression, 1 intersection, 1 union, {SCORERS_PER_CORE} scoring, 1 top-k (k={})",
        boss.k
    )?;
    writeln!(out, "[BOSS Memory System]")?;
    writeln!(out, "Organization\tSCM, {} channels", node.channels)?;
    writeln!(
        out,
        "Bandwidth\tread {:.1} GB/s seq, {:.1} GB/s random; write {:.1} GB/s; {} B granule",
        node.seq_read_gbps, node.rand_read_gbps, node.write_gbps, node.granule_bytes
    )
}

/// Table III: area and power breakdown from the analytical model seeded
/// with the paper's synthesis results.
pub(super) fn table03_area_power(ctx: &mut FigureCtx) -> io::Result<()> {
    let out = &mut *ctx.out;
    let m = AreaPowerModel::new(8);
    writeln!(
        out,
        "# Table III: area and power of BOSS (TSMC 40nm constants)"
    )?;
    writeln!(out, "component\tcount\tarea_mm2\tpower_mw")?;
    writeln!(
        out,
        "BOSS Core\t8\t{:.3}\t{:.1}",
        8.0 * m.core_area_mm2(),
        8.0 * m.core_power_mw()
    )?;
    for c in DEVICE_MODULES {
        writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.3}",
            c.name, c.count, c.area_mm2, c.power_mw
        )?;
    }
    writeln!(
        out,
        "Total\t-\t{:.2}\t{:.2} W",
        m.device_area_mm2(),
        m.device_power_w()
    )?;
    writeln!(out)?;
    writeln!(out, "# per-core breakdown")?;
    writeln!(out, "component\tcount\tarea_mm2\tpower_mw")?;
    for c in CORE_MODULES {
        writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.2}",
            c.name, c.count, c.area_mm2, c.power_mw
        )?;
    }
    writeln!(
        out,
        "Core total\t-\t{:.3}\t{:.1}",
        m.core_area_mm2(),
        m.core_power_mw()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "# power advantage vs host CPU: {:.1}x (paper: 23.3x)",
        HOST_CPU_POWER_W / m.device_power_w()
    )
}

/// Corpus statistics report: the evidence behind DESIGN.md §2's claim
/// that the synthetic corpora match the statistical properties the
/// paper's experiments exercise (Zipfian df, small clustered d-gaps,
/// skewed tf, per-list scheme diversity).
pub(super) fn corpus_stats(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let index = &corpus.index;
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# {}: {} docs, {} terms",
            corpus.name,
            index.n_docs(),
            index.n_terms()
        )?;
        // Document-frequency distribution.
        let mut dfs: Vec<u32> = index.term_ids().map(|t| index.term_info(t).df).collect();
        dfs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = dfs.iter().map(|&d| u64::from(d)).sum();
        let top1pct: u64 = dfs[..dfs.len() / 100].iter().map(|&d| u64::from(d)).sum();
        header(out, &["stat", "value"])?;
        row(out, &["postings".into(), total.to_string()])?;
        row(out, &["df_max".into(), dfs[0].to_string()])?;
        row(out, &["df_median".into(), dfs[dfs.len() / 2].to_string()])?;
        row(
            out,
            &[
                "top1pct_posting_share".into(),
                f(top1pct as f64 / total as f64),
            ],
        )?;
        // Document lengths.
        let mut sorted = index.doc_lens().to_vec();
        sorted.sort_unstable();
        row(
            out,
            &["doclen_p50".into(), sorted[sorted.len() / 2].to_string()],
        )?;
        row(
            out,
            &[
                "doclen_p99".into(),
                sorted[sorted.len() * 99 / 100].to_string(),
            ],
        )?;
        // Compression: per-list scheme histogram + overall ratio.
        let mut counts = std::collections::HashMap::new();
        for t in index.term_ids() {
            *counts.entry(index.list(t).scheme()).or_insert(0u32) += 1;
        }
        for s in ALL_SCHEMES {
            row(
                out,
                &[
                    format!("lists_encoded_{s}"),
                    counts.get(&s).copied().unwrap_or(0).to_string(),
                ],
            )?;
        }
        row(
            out,
            &[
                "bits_per_posting".into(),
                f(index.total_data_bytes() as f64 * 8.0 / total as f64),
            ],
        )?;
        row(
            out,
            &[
                "compression_vs_raw".into(),
                f(index.total_raw_bytes() as f64 / index.total_data_bytes() as f64),
            ],
        )?;
        writeln!(out)?;
    }
    Ok(())
}

fn stream_len(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 100_000,
        Scale::Small => 1_000_000,
        Scale::Full => 10_000_000, // the paper's 10M integers
    }
}

/// Every posting list of `index` as its d-gap sequence.
fn gap_lists(index: &InvertedIndex) -> Vec<Vec<u32>> {
    index
        .term_ids()
        .map(|id| {
            let (docs, _) = index.list(id).decode_all().expect("decodes");
            let mut prev = 0u32;
            docs.iter()
                .map(|&d| {
                    let gap = d - prev;
                    prev = d;
                    gap
                })
                .collect()
        })
        .collect()
}

/// Figure 3: compression ratio of BP/VB/OptPFD/S16/S8b and the hybrid
/// pick on seven synthetic streams and the two corpus stand-ins. Higher
/// is better; the star in the paper marks the per-dataset best.
pub(super) fn fig03_compression_ratio(ctx: &mut FigureCtx) -> io::Result<()> {
    writeln!(
        ctx.out,
        "# Figure 3: compression ratio (raw 4B/int over encoded), higher is better"
    )?;
    writeln!(
        ctx.out,
        "# paper shape: best scheme differs per dataset; hybrid matches the best"
    )?;
    header(
        ctx.out,
        &[
            "dataset", "BP", "VB", "OptPFD", "S16", "S8b", "hybrid", "best",
        ],
    )?;

    for kind in ALL_STREAMS {
        let values = generate(kind, stream_len(ctx.args.scale), ctx.args.seed);
        // Block the stream like a posting list (128-value blocks).
        let mut cells = vec![kind.label().to_owned()];
        for s in ALL_SCHEMES {
            let total: Option<usize> = values
                .chunks(BLOCK_SIZE)
                .map(|c| {
                    let mut buf = Vec::new();
                    boss_compress::codec_for(s)
                        .encode(c, &mut buf)
                        .ok()
                        .map(|_| buf.len())
                })
                .sum();
            cells.push(match total {
                Some(t) => f(compression_ratio(values.len(), t)),
                None => "n/a".into(),
            });
        }
        let hybrid = best_scheme(&values);
        cells.push(f(compression_ratio(values.len(), hybrid.bytes)));
        cells.push(hybrid.scheme.label().to_owned());
        row(ctx.out, &cells)?;
    }

    // Corpus stand-ins: hybrid applies the best scheme per posting list.
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let index = &corpus.index;
        let raw = index.total_raw_bytes() / 2; // docID column only, like the streams
        let gaps = gap_lists(index);
        let mut cells = vec![corpus.name.to_owned()];
        for s in ALL_SCHEMES {
            let total: Option<u64> = gaps
                .iter()
                .map(|g| boss_compress::encoded_size(s, g).ok().map(|sz| sz as u64))
                .sum();
            cells.push(match total {
                Some(t) => f(raw as f64 / t as f64),
                None => "n/a".into(),
            });
        }
        // The index itself is hybrid-encoded (docIDs + tfs); report the
        // docID-equivalent ratio from per-list best choices.
        let hybrid_total: u64 = gaps.iter().map(|g| best_scheme(g).bytes as u64).sum();
        cells.push(f(raw as f64 / hybrid_total as f64));
        cells.push("per-list".into());
        row(ctx.out, &cells)?;
    }
    Ok(())
}

/// Figure 9: multi-core throughput analysis (ClueWeb12-like).
pub(super) fn fig09_multicore_clueweb(ctx: &mut FigureCtx) -> io::Result<()> {
    multicore_throughput(ctx, CorpusKind::Clueweb)
}

/// Figure 10: multi-core throughput analysis (CC-News-like).
pub(super) fn fig10_multicore_ccnews(ctx: &mut FigureCtx) -> io::Result<()> {
    multicore_throughput(ctx, CorpusKind::Ccnews)
}

/// Figure 11: bandwidth utilization (ClueWeb12-like).
pub(super) fn fig11_bandwidth_clueweb(ctx: &mut FigureCtx) -> io::Result<()> {
    bandwidth_utilization(ctx, CorpusKind::Clueweb)
}

/// Figure 12: bandwidth utilization (CC-News-like).
pub(super) fn fig12_bandwidth_ccnews(ctx: &mut FigureCtx) -> io::Result<()> {
    bandwidth_utilization(ctx, CorpusKind::Ccnews)
}

/// Figures 9/10: per-query-type throughput of IIU and BOSS with 1/2/4/8
/// cores, normalized to 8-thread Lucene on SCM.
fn multicore_throughput(ctx: &mut FigureCtx, kind: CorpusKind) -> io::Result<()> {
    let corpus = ctx.corpus(kind)?;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
    let args = &ctx.args;
    let sys = Systems::new(&corpus, args);
    let out = &mut *ctx.out;
    let name = corpus.name;
    writeln!(
        out,
        "# Figure 9/10 ({name}): throughput normalized to Lucene x8 on SCM"
    )?;
    writeln!(
        out,
        "# paper shape: BOSS ~7.5-8.7x at 8 cores, IIU ~1.7x, IIU flattens early"
    )?;
    args.write_threads_comment(out)?;
    header(out, &["qtype", "system", "cores", "norm_throughput", "qps"])?;
    let mut boss8_norms = Vec::new();
    let mut iiu8_norms = Vec::new();
    for (qt, queries) in &suite.per_type {
        // The Lucene baseline always runs: every row normalizes to it.
        let base = sys.lucene(8, MemoryConfig::host_scm_6ch(), queries).qps;
        if args.engines.lucene {
            row(
                out,
                &[
                    qt.label().into(),
                    "Lucene".into(),
                    "8".into(),
                    "1.00".into(),
                    f(base),
                ],
            )?;
        }
        if args.engines.iiu {
            for &cores in &CORE_SWEEP {
                let iiu = sys.iiu(cores, MemoryConfig::optane_dcpmm(), queries);
                row(
                    out,
                    &[
                        qt.label().into(),
                        "IIU".into(),
                        cores.to_string(),
                        f(iiu.qps / base),
                        f(iiu.qps),
                    ],
                )?;
                if cores == 8 {
                    iiu8_norms.push(iiu.qps / base);
                }
            }
        }
        if args.engines.boss {
            for &cores in &CORE_SWEEP {
                let boss = sys.boss(
                    cores,
                    EtMode::Full,
                    MemoryConfig::optane_dcpmm(),
                    args.k,
                    queries,
                );
                row(
                    out,
                    &[
                        qt.label().into(),
                        "BOSS".into(),
                        cores.to_string(),
                        f(boss.qps / base),
                        f(boss.qps),
                    ],
                )?;
                if cores == 8 {
                    boss8_norms.push(boss.qps / base);
                }
            }
        }
    }
    writeln!(
        out,
        "# geomean at 8 cores: BOSS {}x, IIU {}x (paper {}: BOSS 7.54x/8.7x, IIU 1.69x/1.75x)",
        f(geomean(&boss8_norms)),
        f(geomean(&iiu8_norms)),
        name
    )
}

/// Figures 11/12: achieved bandwidth (GB/s) of IIU and BOSS per query
/// type and core count.
fn bandwidth_utilization(ctx: &mut FigureCtx, kind: CorpusKind) -> io::Result<()> {
    let corpus = ctx.corpus(kind)?;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
    let args = &ctx.args;
    let sys = Systems::new(&corpus, args);
    let out = &mut *ctx.out;
    writeln!(
        out,
        "# Figure 11/12 ({}): bandwidth utilization (GB/s)",
        corpus.name
    )?;
    writeln!(
        out,
        "# paper shape: IIU consumes more bandwidth than BOSS at equal core counts"
    )?;
    args.write_threads_comment(out)?;
    header(
        out,
        &[
            "qtype",
            "system",
            "cores",
            "bandwidth_gbps",
            "bytes_per_query_mb",
        ],
    )?;
    for (qt, queries) in &suite.per_type {
        for &cores in &CORE_SWEEP {
            let mut runs: Vec<(&str, SystemRun)> = Vec::new();
            if args.engines.iiu {
                runs.push(("IIU", sys.iiu(cores, MemoryConfig::optane_dcpmm(), queries)));
            }
            if args.engines.boss {
                runs.push((
                    "BOSS",
                    sys.boss(
                        cores,
                        EtMode::Full,
                        MemoryConfig::optane_dcpmm(),
                        args.k,
                        queries,
                    ),
                ));
            }
            for (label, run) in &runs {
                row(
                    out,
                    &[
                        qt.label().into(),
                        (*label).into(),
                        cores.to_string(),
                        f(run.bandwidth_gbps),
                        f(run.mem.total_bytes() as f64 / queries.len() as f64 / 1e6),
                    ],
                )?;
            }
        }
    }
    Ok(())
}

/// Figure 13: single-core throughput of Lucene / IIU / BOSS-exhaustive /
/// BOSS on both corpora, normalized to 1-core Lucene on SCM.
pub(super) fn fig13_singlecore(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
        let args = &ctx.args;
        let sys = Systems::new(&corpus, args);
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# Figure 13 ({}): single-core throughput normalized to Lucene x1 on SCM",
            corpus.name
        )?;
        writeln!(out, "# paper shape: BOSS > BOSS-exhaustive > IIU on most types; ET gain shrinks with union width, grows with intersection width")?;
        args.write_threads_comment(out)?;
        header(out, &["qtype", "Lucene", "IIU", "BOSS-exhaustive", "BOSS"])?;
        for (qt, queries) in &suite.per_type {
            let base = sys.lucene(1, MemoryConfig::host_scm_6ch(), queries).qps;
            let iiu = sys.iiu(1, MemoryConfig::optane_dcpmm(), queries);
            let boss = |et| sys.boss(1, et, MemoryConfig::optane_dcpmm(), args.k, queries);
            row(
                out,
                &[
                    qt.label().into(),
                    "1.00".into(),
                    f(iiu.qps / base),
                    f(boss(EtMode::Exhaustive).qps / base),
                    f(boss(EtMode::Full).qps / base),
                ],
            )?;
        }
    }
    Ok(())
}

/// Figure 14: number of evaluated (scored) documents for the union query
/// types on both corpora, normalized to IIU (which scores everything).
pub(super) fn fig14_evaluated_docs(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
        let args = &ctx.args;
        let sys = Systems::new(&corpus, args);
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# Figure 14 ({}): evaluated documents, normalized to IIU (=1.0)",
            corpus.name
        )?;
        writeln!(
            out,
            "# paper shape: block-only skips shrink as terms grow; WAND recovers them"
        )?;
        args.write_threads_comment(out)?;
        header(out, &["qtype", "IIU", "BOSS-block-only", "BOSS"])?;
        for (qt, queries) in &suite.per_type {
            if !matches!(qt, QueryType::Q1 | QueryType::Q3 | QueryType::Q5) {
                continue; // the paper plots the union types
            }
            let iiu = sys.iiu(1, MemoryConfig::optane_dcpmm(), queries);
            let boss = |et| sys.boss(1, et, MemoryConfig::optane_dcpmm(), args.k, queries);
            let block = boss(EtMode::BlockOnly);
            let full = boss(EtMode::Full);
            assert_exhaustive_untouched(args, "IIU", &iiu);
            assert_exhaustive_untouched(args, "BOSS-block-only", &block);
            assert_exhaustive_untouched(args, "BOSS", &full);
            let base = iiu.eval.docs_scored.max(1) as f64;
            row(
                out,
                &[
                    qt.label().into(),
                    "1.00".into(),
                    f(block.eval.docs_scored as f64 / base),
                    f(full.eval.docs_scored as f64 / base),
                ],
            )?;
        }
    }
    Ok(())
}

/// Figure 15: memory access bytes by category on both corpora,
/// normalized to IIU's total.
pub(super) fn fig15_memory_accesses(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
        let args = &ctx.args;
        let sys = Systems::new(&corpus, args);
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# Figure 15 ({}): memory access volume by category, normalized to IIU total per type",
            corpus.name
        )?;
        writeln!(
            out,
            "# paper shape: BOSS eliminates LD/ST Inter and ST Result, shrinks LD List + LD Score"
        )?;
        args.write_threads_comment(out)?;
        header(
            out,
            &[
                "qtype",
                "system",
                "ld_list",
                "ld_score",
                "ld_inter",
                "st_inter",
                "st_result",
                "total",
            ],
        )?;
        for (qt, queries) in &suite.per_type {
            let iiu = sys.iiu(1, MemoryConfig::optane_dcpmm(), queries);
            let boss = sys.boss(
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                queries,
            );
            assert_exhaustive_untouched(args, "IIU", &iiu);
            assert_exhaustive_untouched(args, "BOSS", &boss);
            let base = iiu.mem.total_bytes().max(1) as f64;
            for (label, m) in [("IIU", &iiu.mem), ("BOSS", &boss.mem)] {
                let ld_list = m.bytes(AccessCategory::LdList) + m.bytes(AccessCategory::LdMeta);
                row(
                    out,
                    &[
                        qt.label().into(),
                        label.into(),
                        f(ld_list as f64 / base),
                        f(m.bytes(AccessCategory::LdScore) as f64 / base),
                        f(m.bytes(AccessCategory::LdInter) as f64 / base),
                        f(m.bytes(AccessCategory::StInter) as f64 / base),
                        f(m.bytes(AccessCategory::StResult) as f64 / base),
                        f(m.total_bytes() as f64 / base),
                    ],
                )?;
            }
        }
    }
    Ok(())
}

/// Figure 16: all three systems on DRAM vs SCM at 8 cores on both
/// corpora, normalized to Lucene x8 on SCM.
pub(super) fn fig16_dram_vs_scm(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
        let args = &ctx.args;
        let sys = Systems::new(&corpus, args);
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# Figure 16 ({}): DRAM vs SCM at 8 cores, normalized to Lucene x8 on SCM",
            corpus.name
        )?;
        writeln!(
            out,
            "# paper shape: Lucene barely moves (<=15%); IIU gains ~3.3x on DRAM, BOSS ~2.3x"
        )?;
        args.write_threads_comment(out)?;
        header(out, &["qtype", "system", "memory", "norm_throughput"])?;
        const SYSTEMS: [&str; 3] = ["Lucene", "IIU", "BOSS"];
        // Per system: per-type qps on (SCM, DRAM).
        let mut ratios: [(Vec<f64>, Vec<f64>); 3] = Default::default();
        for (qt, queries) in &suite.per_type {
            let base = sys.lucene(8, MemoryConfig::host_scm_6ch(), queries).qps;
            // (system, qps on SCM, qps on DRAM)
            let mut runs: Vec<(usize, f64, f64)> = Vec::new();
            if args.engines.lucene {
                let dram = sys.lucene(8, MemoryConfig::host_ddr4_6ch(), queries).qps;
                runs.push((0, base, dram));
            }
            if args.engines.iiu {
                runs.push((
                    1,
                    sys.iiu(8, MemoryConfig::optane_dcpmm(), queries).qps,
                    sys.iiu(8, MemoryConfig::ddr4_2666(), queries).qps,
                ));
            }
            if args.engines.boss {
                let boss = |memory| sys.boss(8, EtMode::Full, memory, args.k, queries).qps;
                runs.push((
                    2,
                    boss(MemoryConfig::optane_dcpmm()),
                    boss(MemoryConfig::ddr4_2666()),
                ));
            }
            for (system, scm, dram) in runs {
                for (memory, qps) in [("SCM", scm), ("DRAM", dram)] {
                    row(
                        out,
                        &[
                            qt.label().into(),
                            SYSTEMS[system].into(),
                            memory.into(),
                            f(qps / base),
                        ],
                    )?;
                }
                ratios[system].0.push(scm);
                ratios[system].1.push(dram);
            }
        }
        for (system, (scm, dram)) in SYSTEMS.iter().zip(&ratios) {
            if scm.is_empty() {
                continue;
            }
            let r: Vec<f64> = scm.iter().zip(dram).map(|(s, d)| d / s).collect();
            writeln!(out, "# {system}: DRAM/SCM geomean {}x", f(geomean(&r)))?;
        }
    }
    Ok(())
}

/// Figure 17: energy per query batch on both corpora, normalized to
/// Lucene x8 on SCM (log-scale bars in the paper; we print the ratio).
pub(super) fn fig17_energy(ctx: &mut FigureCtx) -> io::Result<()> {
    for kind in CorpusKind::BOTH {
        let corpus = ctx.corpus(kind)?;
        let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
        let args = &ctx.args;
        let sys = Systems::new(&corpus, args);
        let out = &mut *ctx.out;
        writeln!(
            out,
            "# Figure 17 ({}): energy normalized to Lucene x8 on SCM (lower is better)",
            corpus.name
        )?;
        writeln!(out, "# paper shape: BOSS ~189x less energy on average")?;
        args.write_threads_comment(out)?;
        header(out, &["qtype", "lucene_j", "boss_j", "savings_x"])?;
        let model = AreaPowerModel::new(8);
        let mut savings = Vec::new();
        for (qt, queries) in &suite.per_type {
            let lucene = sys.lucene(8, MemoryConfig::host_scm_6ch(), queries);
            let boss = sys.boss(
                8,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                queries,
            );
            let e_lucene = AreaPowerModel::host_energy_joules(lucene.seconds);
            let e_boss = model.energy_joules(boss.seconds);
            let s = e_lucene / e_boss.max(1e-12);
            savings.push(s);
            row(out, &[qt.label().into(), f(e_lucene), f(e_boss), f(s)])?;
        }
        writeln!(
            out,
            "# geomean savings {}x (paper: 189x average)",
            f(geomean(&savings))
        )?;
    }
    Ok(())
}
