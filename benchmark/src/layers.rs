//! Per-layer metrics for `--trace 1`: probes that time calls into each
//! layer's public functions on the workload's own data, and the traced
//! pass that attributes per-query host time to layers by replay.
//!
//! Replay: after a query's `search`, the layer kernels (`decode_all_into`,
//! `Bm25::score_block`, `TopK::sift_block`, `QueryPlan::from_expr`) are
//! timed over that query's own term lists to get a per-block / per-doc /
//! per-insert cost, which is then charged x the query's own exact
//! `EvalCounts` — so skipped blocks are not billed. What is left of the
//! `engine.search` span is the engine's traversal and simulator
//! bookkeeping (`trace.share.other`).

use crate::calib::Calib;
use crate::report::{Report, LOADS, SCHEMES};
use crate::run::{exec_pass, hash_hits, Engine, EngineState, Measured, Posture, Serving, MIN_REPS};
use crate::setup::{Env, Workload};
use crate::stats::{median, SplitMix};
use crate::trace::{self_times, Counts, Recorder};
use crate::with_engine;
use boss_compress::{codec_for, BlockInfo, Scheme};
use boss_core::{BossConfig, QueryPlan, TopK};
use boss_decomp::{CompiledProgram, DecompEngine};
use boss_engine::{Boss, SearchEngine, Sharded};
use boss_index::{DecodeScratch, EncodedList, ScoreScratch, SegmentSet, TermId};
use boss_scm::{AccessCategory, MemoryConfig, MemorySim};
use boss_workload::arrivals::ArrivalKind;
use std::hint::black_box;
use std::time::Instant;

const PROBE_REPS: usize = 5;
/// Integers the codec probes encode and decode per scheme.
const CODEC_SAMPLE_INTS: usize = 1 << 20;
/// 32 x this machine's L2; the reported 260 MiB L3 belongs to a shared
/// host, so a buffer four times that would mostly time page faults.
const ROOFLINE_BYTES: usize = 128 << 20;
const SCM_REPLAY_CAP: u64 = 2_000_000;

const SCHEME_ENUM: [Scheme; 5] = [
    Scheme::Bp,
    Scheme::Vb,
    Scheme::OptPfd,
    Scheme::S16,
    Scheme::S8b,
];

/// Seconds at reference speed of each of `reps` runs of `f`.
fn time_reps(calib: &mut Calib, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps).map(|_| calib.time(&mut f).2).collect()
}

/// Raw seconds of each of `reps` runs of `f` (the machine envelope is
/// reported as found, not rescaled).
fn time_reps_raw(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn rates(work: f64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| work / s).collect()
}

/// The distinct term lists the suite touches, in term-id order.
fn suite_terms(env: &Env) -> Vec<TermId> {
    let mut ids: Vec<TermId> = (env.suite.iter())
        .flat_map(|q| q.expr.terms())
        .filter_map(|t| env.index.term_id(t).ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn roofline(report: &mut Report) {
    let src = vec![0x5Au8; ROOFLINE_BYTES];
    let mut dst = vec![0u8; ROOFLINE_BYTES];
    let secs = time_reps_raw(PROBE_REPS, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    report.set_samples(
        "roofline.memcpy_gb_per_s",
        &rates(ROOFLINE_BYTES as f64 / 1e9, &secs),
    );
    drop(dst);
    let words: Vec<u32> = (0..ROOFLINE_BYTES as u32 / 4).collect();
    drop(src);
    let secs = time_reps_raw(PROBE_REPS, || {
        let sum = black_box(&words)
            .iter()
            .fold(0u32, |a, &w| a.wrapping_add(w));
        black_box(sum);
    });
    report.set_samples(
        "roofline.sum_u32_gints_per_s",
        &rates(words.len() as f64 / 1e9, &secs),
    );
}

/// One scheme's encoding of the sampled blocks.
struct Encoded {
    data: Vec<u8>,
    blocks: Vec<(usize, usize, BlockInfo)>,
    ints: usize,
}

/// d-gap and tf-1 blocks drawn from the suite's own posting lists.
fn sample_value_blocks(env: &Env, terms: &[TermId]) -> Result<Vec<Vec<u32>>, String> {
    let mut blocks = Vec::new();
    let mut ints = 0usize;
    let mut scratch = DecodeScratch::new();
    for &t in terms {
        let list = env.index.list(t);
        list.decode_all_into(&mut scratch)
            .map_err(|e| format!("decode failed: {e}"))?;
        let mut at = 0usize;
        let mut prev = 0u32;
        for meta in list.blocks() {
            let end = (at + meta.count()).min(scratch.len());
            let gaps = scratch.docs[at..end]
                .iter()
                .map(|&d| {
                    let gap = d - prev;
                    prev = d;
                    gap
                })
                .collect();
            blocks.push(gaps);
            blocks.push(scratch.tfs[at..end].iter().map(|&tf| tf - 1).collect());
            ints += 2 * (end - at);
            at = end;
        }
        if ints >= CODEC_SAMPLE_INTS {
            break;
        }
    }
    Ok(blocks)
}

fn compress(
    env: &Env,
    terms: &[TermId],
    calib: &mut Calib,
    report: &mut Report,
) -> Result<Vec<Encoded>, String> {
    let blocks = sample_value_blocks(env, terms)?;
    let mut all = Vec::new();
    for (scheme, label) in SCHEME_ENUM.into_iter().zip(SCHEMES) {
        let codec = codec_for(scheme);
        let mut enc = Encoded {
            data: Vec::new(),
            blocks: Vec::new(),
            ints: 0,
        };
        let secs = time_reps(calib, PROBE_REPS, || {
            enc.data.clear();
            enc.blocks.clear();
            enc.ints = 0;
            for values in &blocks {
                let start = enc.data.len();
                // A block a scheme cannot represent is left out of its sample.
                match codec.encode(values, &mut enc.data) {
                    Ok(info) => {
                        enc.blocks.push((start, enc.data.len(), info));
                        enc.ints += values.len();
                    }
                    Err(_) => enc.data.truncate(start),
                }
            }
        });
        report.set_samples(
            &format!("compress.encode_mints_per_s.{label}"),
            &rates(enc.ints as f64 / 1e6, &secs),
        );
        report.set_value(
            &format!("compress.bits_per_int.{label}"),
            enc.data.len() as f64 * 8.0 / enc.ints.max(1) as f64,
        );
        let mut out = Vec::with_capacity(256);
        let mut bad = 0usize;
        let secs = time_reps(calib, PROBE_REPS, || {
            for (start, end, info) in &enc.blocks {
                out.clear();
                bad += usize::from(
                    codec
                        .decode(&enc.data[*start..*end], info, &mut out)
                        .is_err(),
                );
                black_box(&out);
            }
        });
        if bad > 0 {
            report.fail(
                bad as u64,
                format!("{label}: {bad} sampled blocks failed to decode"),
            );
        }
        report.set_samples(
            &format!("compress.decode_mints_per_s.{label}"),
            &rates(enc.ints as f64 / 1e6, &secs),
        );
        let share: u64 = (env.index.term_ids())
            .map(|t| env.index.list(t))
            .filter(|l| l.scheme() == scheme)
            .map(|l| u64::from(l.df()))
            .sum();
        report.set_value(
            &format!("compress.hybrid_posting_share.{label}"),
            share as f64 / env.postings as f64,
        );
        all.push(enc);
    }
    Ok(all)
}

fn decomp(encoded: &[Encoded], calib: &mut Calib, report: &mut Report) -> Result<(), String> {
    for (scheme, label, enc) in [
        (Scheme::Bp, "bp", &encoded[0]),
        (Scheme::OptPfd, "optpfd", &encoded[2]),
    ] {
        let engine =
            DecompEngine::for_scheme(scheme).map_err(|e| format!("decomp config: {e:?}"))?;
        let mut out = Vec::with_capacity(256);
        let mut bad = 0usize;
        let secs = time_reps(calib, PROBE_REPS, || {
            for (start, end, info) in &enc.blocks {
                out.clear();
                bad += usize::from(
                    engine
                        .decode_into(&enc.data[*start..*end], info, &mut out)
                        .is_err(),
                );
                black_box(&out);
            }
        });
        if bad > 0 {
            report.fail(
                bad as u64,
                format!("decomp {label}: {bad} blocks failed to decode"),
            );
        }
        report.set_samples(
            &format!("decomp.decode_mints_per_s.{label}"),
            &rates(enc.ints as f64 / 1e6, &secs),
        );
        if scheme == Scheme::OptPfd {
            let program = &engine.config().program;
            // A compile takes about a microsecond: time them by the hundred.
            let secs = time_reps(calib, PROBE_REPS, || {
                for _ in 0..100 {
                    black_box(CompiledProgram::compile(black_box(program)).is_ok());
                }
            });
            let us: Vec<f64> = secs.iter().map(|s| s * 1e6 / 100.0).collect();
            report.set_samples("decomp.plan_compile_us", &us);
        }
    }
    Ok(())
}

fn index_kernels(
    env: &Env,
    terms: &[TermId],
    k: usize,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(), String> {
    let lists: Vec<&EncodedList> = terms.iter().map(|&t| env.index.list(t)).collect();
    let blocks: usize = lists.iter().map(|l| l.n_blocks()).sum();
    let postings: u64 = lists.iter().map(|l| u64::from(l.df())).sum();
    let mut scratch = DecodeScratch::new();
    let mut bad = 0usize;
    let secs = time_reps(calib, PROBE_REPS, || {
        for list in &lists {
            for i in 0..list.n_blocks() {
                bad += usize::from(list.decode_block_into(i, &mut scratch).is_err());
            }
            black_box(&scratch);
        }
    });
    if bad > 0 {
        report.fail(bad as u64, format!("{bad} block decodes failed"));
    }
    let ns: Vec<f64> = secs
        .iter()
        .map(|s| s * 1e9 / blocks.max(1) as f64)
        .collect();
    report.set_samples("index.decode_block_ns", &ns);
    report.set_samples(
        "index.decode_mpostings_per_s",
        &rates(postings as f64 / 1e6, &secs),
    );

    // Score and sift whole decoded lists, the longest first, up to a cap.
    let mut by_len = lists.clone();
    by_len.sort_by_key(|l| std::cmp::Reverse(l.df()));
    by_len.truncate(64);
    let mut decoded = Vec::new();
    for list in &by_len {
        let mut s = DecodeScratch::new();
        list.decode_all_into(&mut s)
            .map_err(|e| format!("decode failed: {e}"))?;
        decoded.push((list.idf(), s));
    }
    let docs: usize = decoded.iter().map(|(_, s)| s.len()).sum();
    let (bm25, norms) = (env.index.bm25(), env.index.doc_norms());
    let mut scores = ScoreScratch::new();
    let secs = time_reps(calib, PROBE_REPS, || {
        for (idf, s) in &decoded {
            bm25.score_block(*idf, &s.docs, &s.tfs, norms, &mut scores);
            black_box(&scores);
        }
    });
    report.set_samples(
        "index.score_block_mdocs_per_s",
        &rates(docs as f64 / 1e6, &secs),
    );

    // Walk each long list's block directory in fixed doc-id strides.
    let mut calls = 0u64;
    let secs = time_reps(calib, PROBE_REPS, || {
        calls = 0;
        for list in &by_len {
            let Some(last) = list.blocks().last() else {
                continue;
            };
            let step = (last.last_doc / 256).max(1);
            let (mut from, mut target) = (0usize, 0u32);
            while target <= last.last_doc && from < list.n_blocks() {
                from = black_box(list.skip_to_block(from, target));
                target = target.saturating_add(step);
                calls += 1;
            }
        }
    });
    let ns: Vec<f64> = secs.iter().map(|s| s * 1e9 / calls.max(1) as f64).collect();
    report.set_samples("index.skip_to_block_ns", &ns);

    // Top-k over the same real scores: sift throughput, and the cost of
    // one accepted insert at this workload's k.
    let scored: Vec<(&DecodeScratch, Vec<f32>)> = (decoded.iter())
        .map(|(idf, s)| {
            bm25.score_block(*idf, &s.docs, &s.tfs, norms, &mut scores);
            (s, scores.scores().to_vec())
        })
        .collect();
    let mut topk = TopK::new(k);
    let secs = time_reps(calib, PROBE_REPS, || {
        for (s, sc) in &scored {
            topk.reset(k);
            for (d, c) in s.docs.chunks(128).zip(sc.chunks(128)) {
                topk.sift_block(d, c);
            }
            black_box(topk.hits());
        }
    });
    report.set_samples(
        "core.topk_sift_mdocs_per_s",
        &rates(docs as f64 / 1e6, &secs),
    );
    // Ascending scores: every offer is accepted and shifts the queue.
    let mut rng = SplitMix(k as u64);
    let mut rising: Vec<f32> = (0..50_000).map(|_| rng.next_f32()).collect();
    rising.sort_by(f32::total_cmp);
    let secs = time_reps(calib, PROBE_REPS, || {
        topk.reset(k);
        for (doc, &score) in rising.iter().enumerate() {
            black_box(topk.offer(doc as u32, score));
        }
    });
    let ns: Vec<f64> = secs.iter().map(|s| s * 1e9 / rising.len() as f64).collect();
    report.set_samples("core.topk_offer_ns", &ns);
    Ok(())
}

fn scm(boss: &EngineState, calib: &mut Calib, report: &mut Report) {
    let mem = &boss.exact.mem;
    let total = mem.total_count().clamp(1, SCM_REPLAY_CAP);
    let rand_every =
        (mem.total_count().checked_div(mem.rand_accesses)).map_or(u64::MAX, |n| n.max(1));
    let bytes = (mem.total_bytes() / mem.total_count().max(1)).max(1);
    let secs = time_reps(calib, PROBE_REPS, || {
        let mut sim = MemorySim::new(MemoryConfig::optane_dcpmm());
        let (mut addr, mut now) = (0u64, 0u64);
        for i in 0..total {
            now = if i % rand_every == rand_every - 1 {
                sim.read_rand(
                    addr.wrapping_mul(0x9E37_79B9) % (1 << 30),
                    bytes,
                    AccessCategory::LdList,
                    now,
                )
            } else {
                sim.read_seq(addr, bytes, AccessCategory::LdList, now)
            };
            addr += bytes;
        }
        black_box(sim.stats().busy_cycles);
    });
    let ns: Vec<f64> = secs.iter().map(|s| s * 1e9 / total as f64).collect();
    report.set_samples("scm.access_ns", &ns);
    report.set_value("scm.seq_bytes", mem.seq_bytes as f64);
    report.set_value("scm.rand_bytes", mem.rand_bytes as f64);
    report.set_value("scm.rand_accesses", mem.rand_accesses as f64);
    report.set_value("scm.effective_bytes", mem.effective_bytes as f64);
    report.set_value("scm.busy_cycles", mem.busy_cycles as f64);
    report.set_value(
        "scm.ld_list_bytes",
        mem.bytes(AccessCategory::LdList) as f64,
    );
    report.set_value(
        "scm.ld_meta_bytes",
        mem.bytes(AccessCategory::LdMeta) as f64,
    );
}

/// Counters and ratios derived from what the untraced reps already
/// measured (no new timing).
fn derived(m: &Measured, w: &Workload, oracle_us: f64, report: &mut Report) {
    let (env, t) = (&m.env, &m.env.times);
    report.set_value("workload.corpus_gen_s", t.gen_s);
    report.set_value("workload.query_sample_s", t.sample_s);
    report.set_value("index.build_s", t.build_s);
    report.set_value(
        "index.build_mpostings_per_s",
        env.postings as f64 / 1e6 / t.build_s,
    );
    report.set_value(
        "index.meta_bytes_per_posting",
        env.index.total_meta_bytes() as f64 / env.postings as f64,
    );
    report.set_value("index.reference_us_per_query", oracle_us);
    if let Some((stats, _)) = &env.ingest {
        let docs = f64::from(env.index.n_docs());
        report.set_value("workload.doc_stream_docs_per_s", docs / t.gen_s);
        report.set_value("index.spimi.add_docs_per_s", docs / t.add_s);
        report.set_value("index.spimi.spills", f64::from(stats.spills));
        report.set_value(
            "index.spimi.peak_inmem_bytes",
            stats.peak_inmem_bytes as f64,
        );
        report.set_value("index.segment.finish_s", t.finish_s);
        report.set_value("index.segment.open_s", t.open_s);
        report.set_value(
            "index.segment.disk_bytes_per_posting",
            stats.segment_bytes as f64 / stats.postings.max(1) as f64,
        );
    }
    if env.sharded.is_some() {
        report.set_value("index.shard.split_s", t.split_s);
    }

    let suite_postings = |stride: usize| -> f64 {
        env.suite
            .iter()
            .step_by(stride)
            .map(|q| q.postings as f64)
            .sum()
    };
    let boss = &m.engines[0];
    let wall = boss.wall();
    let cycles: u64 = boss.exact.cycles.iter().sum();
    report.set_value("core.host_ns_per_posting", wall * 1e9 / suite_postings(1));
    report.set_value("core.host_ns_per_sim_cycle", wall * 1e9 / cycles as f64);
    let e = &boss.exact.eval;
    report.set_value("core.docs_scored", e.docs_scored as f64);
    report.set_value("core.blocks_fetched", e.blocks_fetched as f64);
    report.set_value("core.blocks_skipped", e.blocks_skipped as f64);
    report.set_value("core.blocks_skipped_prune", e.blocks_skipped_prune as f64);
    report.set_value("core.metas_read", e.metas_read as f64);
    report.set_value(
        "core.docs_scored_per_hit",
        e.docs_scored as f64 / boss.exact.n_hits.max(1) as f64,
    );
    report.set_value(
        "core.block_skip_ratio",
        e.blocks_skipped as f64 / (e.blocks_skipped + e.blocks_fetched).max(1) as f64,
    );
    for (s, prefix) in [(&m.engines[1], "iiu"), (&m.engines[2], "luceneish")] {
        let n = s.queries.len() as f64;
        let wall = s.wall();
        report.set_value(&format!("{prefix}.host_us_per_query"), wall * 1e6 / n);
        report.set_value(
            &format!("{prefix}.host_ns_per_posting"),
            wall * 1e9 / suite_postings(s.kind.stride(w)),
        );
        let cycles: u64 = s.exact.cycles.iter().sum();
        report.set_value(&format!("{prefix}.sim_cycles_per_query"), cycles as f64 / n);
        report.set_value(
            &format!("{prefix}.docs_scored"),
            s.exact.eval.docs_scored as f64,
        );
        report.set_value(
            &format!("{prefix}.blocks_fetched"),
            s.exact.eval.blocks_fetched as f64,
        );
        report.set_value(
            &format!("{prefix}.scm_total_bytes"),
            s.exact.mem.total_bytes() as f64,
        );
    }
}

fn plan_probe(env: &Env, calib: &mut Calib, report: &mut Report) {
    let config = BossConfig::default();
    let mut bad = 0usize;
    let secs = time_reps(calib, PROBE_REPS, || {
        for q in &env.suite {
            bad +=
                usize::from(black_box(QueryPlan::from_expr(&env.index, &q.expr, &config)).is_err());
        }
    });
    if bad > 0 {
        report.fail(bad as u64, format!("{bad} query plans failed"));
    }
    let us: Vec<f64> = secs
        .iter()
        .map(|s| s * 1e6 / env.suite.len() as f64)
        .collect();
    report.set_samples("core.plan_us", &us);
}

/// The executor against the bare `fork().search` loop on the probe suite,
/// and its two-thread speed-up (noisy on a 2-core box: layer-only).
fn executor(
    m: &Measured,
    w: &Workload,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(), String> {
    let boss = &m.engines[0];
    let engine = m.env.boss(w.algorithm, w.k);
    let probe = &m.env.probe;
    let mut walls = Vec::new();
    for _ in 0..3 {
        let (batch, _, wall) = calib.time(|| exec_pass(&engine, probe, w.k, 1));
        if crate::run::Exact::of(&batch?) != m.probe {
            report.fail(1, "probe batch differs from its baseline".into());
        }
        report.attempted += probe.len() as u64;
        walls.push(wall);
    }
    report.set_value(
        "engine.executor.overhead_frac",
        median(&walls) / median(&m.boss_bare_walls) - 1.0,
    );
    let mut walls = Vec::new();
    for _ in 0..3 {
        let (batch, _, wall) = calib.time(|| exec_pass(&engine, &boss.queries, w.k, 2));
        let batch = batch?;
        if crate::run::Exact::of(&batch) != boss.exact {
            report.fail(
                1,
                "2-thread batch differs from the 1-thread baseline".into(),
            );
        }
        report.attempted += boss.queries.len() as u64;
        walls.push(wall);
    }
    let speedups: Vec<f64> = walls.iter().map(|wall| boss.wall() / wall).collect();
    report.set_samples("engine.executor.speedup_2t", &speedups);
    Ok(())
}

/// Shard fan-out against the unsharded engine on the same queries, and
/// the coordinator's merge kernel on real per-shard hit lists.
fn sharded(
    m: &Measured,
    w: &Workload,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(), String> {
    let Some(sh) = &m.env.sharded else {
        return Ok(());
    };
    let boss = &m.engines[0];
    let n = boss.queries.len() as f64;
    report.set_value("engine.sharded.host_us_per_query", boss.wall() * 1e6 / n);
    let config = || {
        BossConfig::default()
            .with_k(w.k)
            .with_algorithm(w.algorithm)
    };
    let single = Sharded::single(Boss::new(&m.env.index, config()));
    let mut walls = Vec::new();
    let mut makespan = 0;
    for _ in 0..3 {
        let (batch, _, wall) = calib.time(|| exec_pass(&single, &boss.queries, w.k, 1));
        let batch = batch?;
        let same =
            (batch.outcomes.iter().zip(&boss.exact.hashes)).all(|(o, h)| hash_hits(&o.hits) == *h);
        if !same {
            report.fail(1, "sharded hits differ from the unsharded engine".into());
        }
        report.attempted += boss.queries.len() as u64;
        makespan = batch.makespan_cycles;
        walls.push(wall);
    }
    report.set_value(
        "engine.sharded.fanout_overhead_frac",
        boss.wall() / median(&walls) - 1.0,
    );
    report.set_value(
        "engine.sharded.sim_speedup_4s",
        makespan as f64 / boss.exact.makespan_cycles as f64,
    );

    let mut leaves: Vec<Boss<'_>> = sh.shards().iter().map(|s| Boss::new(s, config())).collect();
    let per_query: Vec<Vec<Vec<boss_index::SearchHit>>> =
        (boss.queries.iter().step_by(w.lucene_stride))
            .map(|q| {
                // A shard that lacks one of the terms contributes no hits here.
                (leaves.iter_mut())
                    .map(|leaf| leaf.search(q, w.k).map(|o| o.hits).unwrap_or_default())
                    .collect()
            })
            .collect();
    let secs = time_reps(calib, PROBE_REPS, || {
        for per_shard in &per_query {
            black_box(sh.merge_topk(per_shard, w.k));
        }
    });
    let us: Vec<f64> = secs
        .iter()
        .map(|s| s * 1e6 / per_query.len() as f64)
        .collect();
    report.set_samples("index.shard.merge_topk_us", &us);
    Ok(())
}

/// {fifo, shed+degrade} x 4 loads x {poisson, bursty} in simulated time.
fn serving_sweep(serving: &Serving, report: &mut Report) {
    report.set_value("engine.serving.measure_s", serving.measure_s);
    let (mut sim_s, mut arrivals) = (0.0, 0usize);
    let mut max_ok = 0.0;
    println!("# serving sweep: arrivals posture load p99_us missed_frac goodput_qps ok");
    for kind in [ArrivalKind::Poisson, ArrivalKind::Bursty] {
        for posture in [Posture::Fifo, Posture::ShedDegrade] {
            for (label, load) in LOADS {
                let s = serving.scenario(kind, posture, load);
                sim_s += s.simulate_s;
                arrivals += s.n;
                let goodput = s.run.goodput_qps(serving.clock_ghz);
                println!(
                    "# serving {kind} {posture:?} {load} {:.3} {:.4} {:.1} {}",
                    s.p99_us,
                    s.missed_frac(),
                    goodput,
                    s.ok()
                );
                if kind == ArrivalKind::Poisson && posture == Posture::ShedDegrade {
                    report.set_value(&format!("engine.serving.sim_p99_us.{label}"), s.p99_us);
                    report.set_value(&format!("engine.serving.goodput_qps.{label}"), goodput);
                    report.set_value(
                        &format!("engine.serving.missed_frac.{label}"),
                        s.missed_frac(),
                    );
                    if s.ok() {
                        max_ok = load;
                    }
                    if label == "l120" {
                        report.set_value(
                            "engine.serving.controller_transitions.l120",
                            s.run.controller_transitions as f64,
                        );
                    }
                }
            }
        }
    }
    report.set_value("engine.serving.max_load_ok", max_ok);
    report.set_value(
        "engine.serving.simulate_ns_per_arrival",
        sim_s * 1e9 / arrivals.max(1) as f64,
    );
}

/// Ingest only: the two halves of `open_segments`, timed apart.
fn segment_open(
    env: &Env,
    calib: &mut Calib,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let Some((stats, dir)) = &env.ingest else {
        return Ok(());
    };
    let root = rec.begin(0, "index.segment.open", "", -1);
    let span = rec.begin(root, "index.segment.open_dir", "", -1);
    let (set, _, open_dir_s) = calib.time(|| SegmentSet::open_dir(dir));
    let set = set.map_err(|e| format!("open_dir failed: {e}"))?;
    report.set_value("index.segment.open_dir_s", open_dir_s);
    rec.end(span, Counts::default());
    let span = rec.begin(root, "index.segment.merge", "", -1);
    let (merged, _, merge_s) = calib.time(|| set.merge());
    let merged = merged.map_err(|e| format!("segment merge failed: {e}"))?;
    let counts = Counts {
        postings: stats.postings,
        ..Counts::default()
    };
    rec.end(span, counts);
    rec.end(root, counts);
    report.set_value(
        "index.segment.merge_mpostings_per_s",
        stats.postings as f64 / 1e6 / merge_s,
    );
    if merged != env.index {
        report.fail(1, "re-merged segments differ from the opened index".into());
    }
    Ok(())
}

/// Records the set-up that already ran as spans, laid end to end.
fn setup_spans(env: &Env, rec: &mut Recorder) {
    let t = &env.times;
    let root = rec.push(
        0,
        "setup",
        "",
        -1,
        0,
        (t.total_s * 1e9) as u64,
        Counts::default(),
    );
    let postings = Counts {
        postings: env.postings,
        ..Counts::default()
    };
    // (parent, name, seconds, counts); a child follows its parent and
    // starts where the parent does, siblings run end to end.
    let mut stages = vec![(root, "workload.corpus_gen", t.gen_s, postings)];
    if env.ingest.is_some() {
        // Ingest interleaves generation with `add_document`; the spans
        // carry the summed times.
        stages.push((root, "index.build", t.build_s, postings));
        stages.push((0, "index.spimi.add", t.add_s, postings));
        stages.push((0, "index.spimi.finish", t.finish_s, Counts::default()));
        stages.push((0, "index.segment.open", t.open_s, postings));
    } else {
        stages.push((root, "index.build", t.build_s, postings));
    }
    if env.sharded.is_some() {
        stages.push((root, "index.shard.split", t.split_s, postings));
    }
    stages.push((root, "workload.query_sample", t.sample_s, Counts::default()));
    let (mut at, mut child_at, mut build) = (0u64, 0u64, root);
    for (parent, name, secs, counts) in stages {
        let ns = (secs * 1e9) as u64;
        if parent == root {
            let id = rec.push(root, name, "", -1, at, at + ns, counts);
            if name == "index.build" {
                (build, child_at) = (id, at);
            }
            at += ns;
        } else {
            rec.push(build, name, "", -1, child_at, child_at + ns, counts);
            child_at += ns;
        }
    }
}

/// Replayed kernel costs of one suite query.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayCost {
    plan_ns: f64,
    decode_ns_per_block: f64,
    score_ns_per_doc: f64,
    topk_ns: f64,
    topk_inserts: u64,
    docs: u64,
}

fn replay(env: &Env, k: usize) -> Result<Vec<ReplayCost>, String> {
    let config = BossConfig::default();
    let (bm25, norms) = (env.index.bm25(), env.index.doc_norms());
    let mut scratch = DecodeScratch::new();
    let mut scores = ScoreScratch::new();
    let mut topk = TopK::new(k);
    let mut out = Vec::with_capacity(env.suite.len());
    for q in &env.suite {
        let t = Instant::now();
        let plan = QueryPlan::from_expr(&env.index, &q.expr, &config);
        let plan_ns = t.elapsed().as_nanos() as f64;
        plan.map_err(|e| format!("plan failed: {e}"))?;
        let (mut decode_ns, mut score_ns, mut topk_ns) = (0.0, 0.0, 0.0);
        let (mut blocks, mut docs) = (0u64, 0u64);
        topk.reset(k);
        for term in q.expr.terms() {
            let list = env
                .index
                .list(env.index.term_id(term).map_err(|e| e.to_string())?);
            let t = Instant::now();
            list.decode_all_into(&mut scratch)
                .map_err(|e| format!("decode failed: {e}"))?;
            decode_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            bm25.score_block(list.idf(), &scratch.docs, &scratch.tfs, norms, &mut scores);
            score_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            for (d, s) in scratch.docs.chunks(128).zip(scores.scores().chunks(128)) {
                topk.sift_block(d, s);
            }
            topk_ns += t.elapsed().as_nanos() as f64;
            blocks += list.n_blocks() as u64;
            docs += scratch.len() as u64;
        }
        out.push(ReplayCost {
            plan_ns,
            decode_ns_per_block: decode_ns / blocks.max(1) as f64,
            score_ns_per_doc: score_ns / docs.max(1) as f64,
            topk_ns,
            topk_inserts: topk.inserts(),
            docs,
        });
    }
    Ok(out)
}

/// The traced pass: `rep` -> `engine.batch` -> `engine.search` per query,
/// then the replayed children, then the shares.
fn traced_pass(
    m: &Measured,
    w: &Workload,
    window_s: f64,
    calib: &mut Calib,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let env = &m.env;
    // (span, suite index, engine, counts, raw-to-reference-speed factor)
    let mut searches: Vec<(u32, usize, Engine, boss_engine::EvalCounts, f64)> = Vec::new();
    let mut boss_batch_s = Vec::new();
    let t0 = Instant::now();
    let mut r = 0;
    while r < 2 || (t0.elapsed().as_secs_f64() < window_s && r < 4 * MIN_REPS) {
        let rep_span = rec.begin(0, "rep", "", -1);
        for i in 0..3 {
            let s = &m.engines[(i + r) % 3];
            let stride = s.kind.stride(w);
            let batch = rec.begin(rep_span, "engine.batch", s.kind.label(), -1);
            let first = searches.len();
            let mut hits = Vec::with_capacity(s.queries.len());
            let (done, raw, cal) = calib.time(|| -> Result<(), String> {
                with_engine!(env, w, s.kind, |e| {
                    let mut fork = e.fork();
                    for (j, q) in s.queries.iter().enumerate() {
                        let qi = j * stride;
                        let span = rec.begin(batch, "engine.search", s.kind.label(), qi as i64);
                        let out = fork
                            .search(q, w.k)
                            .map_err(|e| format!("traced {} search failed: {e}", s.kind.label()))?;
                        rec.end(
                            span,
                            Counts {
                                postings: env.suite[qi].postings,
                                blocks: out.eval.blocks_fetched,
                                docs_scored: out.eval.docs_scored,
                                sim_cycles: out.cycles,
                            },
                        );
                        searches.push((span, qi, s.kind, out.eval, 1.0));
                        hits.push(out.hits);
                    }
                });
                Ok(())
            });
            done?;
            rec.end(batch, Counts::default());
            for search in &mut searches[first..] {
                search.4 = cal / raw;
            }
            let bad = (hits.iter().zip(&s.exact.hashes))
                .filter(|(h, want)| hash_hits(h) != **want)
                .count() as u64;
            if bad > 0 {
                report.fail(
                    bad,
                    format!("traced {}: {bad} queries' hits changed", s.kind.label()),
                );
            }
            report.attempted += s.queries.len() as u64;
            if s.kind == Engine::Boss {
                boss_batch_s.push(cal);
            }
        }
        rec.end(rep_span, Counts::default());
        r += 1;
    }
    // Against the untraced executor batches over the same suite.
    report.set_value(
        "trace.overhead_frac",
        median(&boss_batch_s) / m.engines[0].wall() - 1.0,
    );

    let costs = replay(env, w.k)?;
    // Per engine: [plan, decode, score, topk] replayed ns, and total search ns.
    let mut parts = [[0.0f64; 4]; 3];
    let mut totals = [0.0f64; 3];
    let mut by_type = [(0.0f64, 0u64, 0u64); 6];
    for (span, qi, kind, eval, to_ref) in searches {
        let c = &costs[qi];
        let topk_ns = if eval.topk_inserts > 0 && c.topk_inserts > 0 {
            c.topk_ns * eval.topk_inserts as f64 / c.topk_inserts as f64
        } else {
            c.topk_ns * eval.docs_scored as f64 / c.docs.max(1) as f64
        };
        let est = [
            c.plan_ns,
            c.decode_ns_per_block * eval.blocks_fetched as f64,
            c.score_ns_per_doc * eval.docs_scored as f64,
            topk_ns,
        ];
        let parent = rec.get(span).clone();
        let mut at = parent.start_ns;
        for (name, ns) in ["core.plan", "index.decode", "index.score", "core.topk"]
            .into_iter()
            .zip(est)
        {
            let end = at + ns as u64;
            rec.push(
                span,
                name,
                parent.engine,
                qi as i64,
                at,
                end,
                Counts::default(),
            );
            at = end;
        }
        let e = Engine::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        for (slot, ns) in parts[e].iter_mut().zip(est) {
            *slot += ns;
        }
        totals[e] += parent.duration_ns() as f64;
        if kind == Engine::Boss {
            let t = &mut by_type[env.suite[qi].qtype as usize];
            t.0 += parent.duration_ns() as f64 * to_ref;
            t.1 += parent.counts.sim_cycles;
            t.2 += 1;
        }
    }
    // `other` is the searches' self time: what the replayed children do
    // not cover. Children are clipped to their parent there, so replay
    // that overshoots a search shows as shares summing past 1.
    let self_ns = self_times(rec.spans());
    let mut own = [0.0f64; 3];
    for s in rec.spans().iter().filter(|s| s.name == "engine.search") {
        let e = crate::report::ENGINES
            .iter()
            .position(|l| *l == s.engine)
            .unwrap_or(0);
        own[e] += self_ns[s.id as usize - 1] as f64;
    }
    for (e, label) in crate::report::ENGINES.into_iter().enumerate() {
        let total = totals[e].max(1.0);
        for (part, ns) in ["plan", "decode", "score", "topk"]
            .into_iter()
            .zip(parts[e])
        {
            report.set_value(&format!("trace.share.{part}.{label}"), ns / total);
        }
        report.set_value(&format!("trace.share.other.{label}"), own[e] / total);
        if parts[e].iter().sum::<f64>() > total {
            println!(
                "# note: replayed kernels of {label} exceed its search time; shares sum past 1"
            );
        }
    }
    for (label, (ns, cycles, n)) in crate::report::QTYPES.into_iter().zip(by_type) {
        if n > 0 {
            report.set_value(
                &format!("core.host_us_per_query.{label}"),
                ns / 1e3 / n as f64,
            );
            report.set_value(
                &format!("core.sim_cycles_per_query.{label}"),
                cycles as f64 / n as f64,
            );
        }
    }
    Ok(())
}

/// Everything `--trace 1` adds on top of the untraced phases.
#[allow(clippy::too_many_arguments)]
pub fn run(
    m: &Measured,
    w: &Workload,
    serving: &Serving,
    oracle_us: f64,
    window_s: f64,
    calib: &mut Calib,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    setup_spans(&m.env, rec);
    derived(m, w, oracle_us, report);
    roofline(report);
    let terms = suite_terms(&m.env);
    let encoded = compress(&m.env, &terms, calib, report)?;
    decomp(&encoded, calib, report)?;
    drop(encoded);
    index_kernels(&m.env, &terms, w.k, calib, report)?;
    scm(&m.engines[0], calib, report);
    plan_probe(&m.env, calib, report);
    executor(m, w, calib, report)?;
    sharded(m, w, calib, report)?;
    serving_sweep(serving, report);
    segment_open(&m.env, calib, rec, report)?;
    traced_pass(m, w, window_s, calib, rec, report)?;
    report.set_value("calib.slowdown", calib.slowdown());
    Ok(())
}
