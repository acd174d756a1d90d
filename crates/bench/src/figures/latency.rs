//! Beyond the paper's throughput figures: per-query tail latency, the
//! open-loop latency-vs-load hockey stick, and scatter-gather shard
//! scaling.

use super::{CorpusKind, FigureCtx};
use crate::{
    boss_engine, f, header, iiu_engine, lucene_engine, row, run_serving, run_system, BenchArgs,
    BenchTarget, ServingSpec,
};
use boss_core::{BossConfig, EtMode, QueryAlgorithm};
use boss_engine::{
    simulate, Boss, EvalCounts, SearchEngine, ServePolicy, ServiceTable, ShardReplicaStats,
    ShardTiming, Sharded,
};
use boss_index::shard::ShardedIndex;
use boss_index::QueryExpr;
use boss_scm::MemoryConfig;
use boss_workload::arrivals::ArrivalKind;
use std::io::{self, Write};

fn pct(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// One engine's `latency_profile` row data plus its out-of-band
/// diagnostics.
struct EngineRow {
    name: &'static str,
    /// Per-query latencies in microseconds, sorted (cycles at the
    /// engine's own clock — host cycles for Lucene, 1 GHz device cycles
    /// otherwise).
    us: Vec<f64>,
    /// Fault-skipped blocks after the run.
    skipped: u64,
    /// Pruning-skipped (blocks, docs) after the run.
    pruned: (u64, u64),
    shard_health: Vec<ShardReplicaStats>,
}

fn engine_row<E: SearchEngine>(
    name: &'static str,
    mut engine: Sharded<'_, E>,
    queries: &[QueryExpr],
    k: usize,
) -> EngineRow {
    let clk = engine.clock_ghz();
    let mut eval = EvalCounts::default();
    let mut us: Vec<f64> = queries
        .iter()
        .map(|q| {
            let out = engine.search(q, k).expect("runs");
            eval.merge(&out.eval);
            out.cycles as f64 / (clk * 1e3)
        })
        .collect();
    us.sort_by(f64::total_cmp);
    EngineRow {
        name,
        us,
        skipped: eval.blocks_skipped_fault,
        pruned: (eval.blocks_skipped_prune, eval.docs_skipped_prune),
        shard_health: engine.shard_stats(),
    }
}

/// Writes one engine family's `# serving` diagnostic line: the open-loop
/// scenario of `--serve-*` replayed over this engine's measured service
/// table. Comment-only by the same rule as the shard-health counters —
/// serving outcomes depend on the scenario knobs, never on `--threads`,
/// but they are diagnostics, not figure data.
fn serving_comment<E: SearchEngine + Send>(
    out: &mut dyn Write,
    name: &str,
    engine: &E,
    pruned: Option<&E>,
    queries: &[QueryExpr],
    spec: &ServingSpec,
    args: &BenchArgs,
) -> io::Result<()> {
    match run_serving(
        engine,
        pruned,
        queries,
        args.k,
        spec,
        args.seed,
        args.threads,
    ) {
        Ok((run, _mean)) => {
            let clk = engine.clock_ghz();
            let us = |c: u64| c as f64 / (clk * 1e3);
            writeln!(
                out,
                "# serving {name} {} load {} policy {} degrade {}: served {}/{} \
                 (normal {} pruned {} brownout {}) rejected {} expired {} shed {} late {} \
                 p50 {}us p99 {}us goodput {} qps",
                spec.arrivals,
                f(spec.load),
                spec.policy,
                if spec.degrade { "on" } else { "off" },
                run.served(),
                queries.len(),
                run.served_by_level[0],
                run.served_by_level[1],
                run.served_by_level[2],
                run.rejected,
                run.expired,
                run.shed,
                run.served_late,
                f(us(run.sojourn_percentile(0.50))),
                f(us(run.sojourn_percentile(0.99))),
                f(run.goodput_qps(clk)),
            )
        }
        Err(e) => writeln!(out, "# serving {name}: measurement failed: {e}"),
    }
}

/// Latency percentiles (p50/p95/p99) per engine and query type — serving
/// systems live and die on tail latency, which throughput figures hide.
///
/// Diagnostics stay out of the data rows the invariance tests compare:
/// the shard layer's (`--shards`/`--replicas`) per-(shard, replica) fault
/// counters and routing tallies are labeled `# shard-health` comments,
/// and the serving harness (`--serve`/`--serve-*`) writes each engine's
/// open-loop rejected/expired/shed breakdown and served-tail percentiles
/// as a `# serving` block after the data rows.
pub(super) fn latency_profile(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let split = ctx.split(&corpus)?;
    let target = BenchTarget::new(&corpus.index, split.as_deref());
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type.max(20));
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let k = args.k;
    let lucene = |tuning| lucene_engine(&target, 1, MemoryConfig::host_scm_6ch(), tuning);
    let iiu = |tuning| iiu_engine(&target, 1, MemoryConfig::optane_dcpmm(), tuning);
    let boss = |tuning| {
        boss_engine(
            &target,
            1,
            EtMode::Full,
            MemoryConfig::optane_dcpmm(),
            k,
            tuning,
        )
    };
    writeln!(
        out,
        "# Per-query latency percentiles (single engine instance, us)"
    )?;
    header(out, &["qtype", "system", "p50_us", "p95_us", "p99_us"])?;
    for (qt, queries) in &suite.per_type {
        let mut rows: Vec<EngineRow> = Vec::new();
        if args.engines.lucene {
            rows.push(engine_row("Lucene", lucene(&args.tuning), queries, k));
        }
        if args.engines.iiu {
            rows.push(engine_row("IIU", iiu(&args.tuning), queries, k));
        }
        if args.engines.boss {
            rows.push(engine_row("BOSS", boss(&args.tuning), queries, k));
        }
        for r in &rows {
            row(
                out,
                &[
                    qt.label().into(),
                    r.name.into(),
                    f(pct(&r.us, 0.50)),
                    f(pct(&r.us, 0.95)),
                    f(pct(&r.us, 0.99)),
                ],
            )?;
        }
        // Fault and shard-health counters ride in comments: degradation
        // diagnostics only, stripped by the invariance tests.
        for r in &rows {
            if r.skipped > 0 {
                writeln!(
                    out,
                    "# fault-skipped-blocks {} {}: {}",
                    qt.label(),
                    r.name,
                    r.skipped
                )?;
            }
            // Dynamic-pruning savings (non-zero only under --algorithm
            // maxscore/wand/bmw/bmm): work avoided, never hits changed,
            // so these too stay out of the compared data rows.
            if r.pruned.0 > 0 || r.pruned.1 > 0 {
                writeln!(
                    out,
                    "# prune {} {}: blocks_skipped {} docs_skipped {}",
                    qt.label(),
                    r.name,
                    r.pruned.0,
                    r.pruned.1,
                )?;
            }
            // Labeled per-shard breakdown: which device is sick, with
            // which symptom, and where the router sent the traffic.
            for s in &r.shard_health {
                if s.faults.total() > 0 || s.blocks_skipped_fault > 0 {
                    writeln!(
                        out,
                        "# shard-health {} {} shard {} replica {}: {} skipped_blocks {} attempts {} selected {}",
                        qt.label(),
                        r.name,
                        s.shard,
                        s.replica,
                        s.faults,
                        s.blocks_skipped_fault,
                        s.attempts,
                        s.selected,
                    )?;
                }
            }
        }
    }

    // Open-loop serving diagnostics over the whole suite, one line per
    // engine family. Degradation needs a pruned companion engine (the
    // overload controller's cheaper service level), built only when the
    // scenario can actually use it.
    if let Some(spec) = &args.tuning.serving {
        let queries = suite.all();
        let tuning = &args.tuning;
        let pruned_tuning = tuning
            .clone()
            .with_algorithm(QueryAlgorithm::BlockMaxMaxScore);
        if args.engines.lucene {
            let p = spec.degrade.then(|| lucene(&pruned_tuning));
            serving_comment(
                out,
                "Lucene",
                &lucene(tuning),
                p.as_ref(),
                &queries,
                spec,
                args,
            )?;
        }
        if args.engines.iiu {
            let p = spec.degrade.then(|| iiu(&pruned_tuning));
            serving_comment(out, "IIU", &iiu(tuning), p.as_ref(), &queries, spec, args)?;
        }
        if args.engines.boss {
            let p = spec.degrade.then(|| boss(&pruned_tuning));
            serving_comment(out, "BOSS", &boss(tuning), p.as_ref(), &queries, spec, args)?;
        }
    }
    Ok(())
}

/// Latency vs offered load — the M/M/k-style sanity view of the serving
/// harness: mean and p99 sojourn time as Poisson load approaches the
/// device's capacity, plus admission drops beyond it.
///
/// This is the simplest serving scenario the harness supports (FIFO, no
/// deadlines, no degradation, queue bound 64) swept across load, so the
/// hockey stick is pure queueing theory: waits explode past load 1.0 and
/// the bounded queue starts rejecting. The full scheduler × degradation
/// × load matrix lives in the `serving_latency` binary; at the same seed
/// and query set both replay the same measured service table, so this is
/// the quick cross-check, not a second model.
pub(super) fn latency_vs_load(ctx: &mut FigureCtx) -> io::Result<()> {
    /// Admission bound of the sanity view (the command-queue depth of
    /// the seed's Figure 4(a) model).
    const QUEUE_BOUND: usize = 64;

    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let split = ctx.split(&corpus)?;
    let target = BenchTarget::new(&corpus.index, split.as_deref());
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let queries = corpus.trec_mix((args.queries_per_type * 6).max(60), args.seed)?;

    let engine = boss_engine(
        &target,
        8,
        EtMode::Full,
        MemoryConfig::optane_dcpmm(),
        args.k,
        &args.tuning,
    );
    // One deterministic measurement pass; the load sweep replays it.
    let table = ServiceTable::measure(&engine, None, &queries, args.k, args.k, args.threads)
        .map_err(|e| {
            io::Error::other(format!(
                "service measurement failed: {e} (use --degrade skip on a faulty device)"
            ))
        })?;
    let mean_service = table.mean_normal_cycles();
    let servers = engine.lanes();

    writeln!(
        out,
        "# Latency vs offered load ({servers} cores, queue depth {QUEUE_BOUND}, k={})",
        args.k
    )?;
    writeln!(
        out,
        "# mean service {:.1} us; capacity ~{:.0} qps",
        mean_service / 1e3,
        servers as f64 * 1e9 / mean_service.max(1.0)
    )?;
    writeln!(
        out,
        "# full scheduler x degrade x load matrix: serving_latency (same table at the same seed)"
    )?;
    args.write_threads_comment(out)?;
    header(
        out,
        &[
            "load_frac",
            "mean_latency_us",
            "p99_latency_us",
            "queue_wait_us",
            "dropped",
        ],
    )?;
    for load in [0.2, 0.5, 0.7, 0.9, 1.1, 1.5] {
        let spec = ServingSpec {
            arrivals: ArrivalKind::Poisson,
            load,
            queue: QUEUE_BOUND,
            deadline_x: 0.0,
            policy: ServePolicy::Fifo,
            degrade: false,
        };
        let arrivals = spec.arrival_trace(queries.len(), mean_service, servers, args.seed);
        let run = simulate(&spec.config(servers, mean_service), &arrivals, &table);
        let mean_sojourn = run.mean_sojourn_cycles();
        row(
            out,
            &[
                f(load),
                f(mean_sojourn / 1e3),
                f(run.sojourn_percentile(0.99) as f64 / 1e3),
                f((mean_sojourn - mean_service).max(0.0) / 1e3),
                run.rejected.to_string(),
            ],
        )?;
    }
    writeln!(
        out,
        "# the hockey stick: waits explode past load 1.0 and the queue starts dropping"
    )
}

/// Scatter-gather throughput scaling across shard counts — the
/// multi-device payoff the pool argument of Section II-C predicts.
///
/// Splits the ccnews-like corpus into 1/2/4/8 shards, builds one BOSS
/// device per shard (`--replicas` of each) behind the engine-layer
/// scatter-gather coordinator in its honest `ScatterGather` timing mode
/// (slowest leaf + shared-link transfer + root merge, per-shard traffic
/// summed, bandwidth roofline divided by the shard count), and reports
/// batch throughput per shard count.
///
/// Unlike every other figure (whose `--shards` flag keeps the
/// figure-preserving `Logical` timing and is ignored here), these
/// numbers are *supposed* to move with the shard count — that is the
/// experiment.
pub(super) fn shard_scaling(ctx: &mut FigureCtx) -> io::Result<()> {
    /// Shard counts swept.
    const SHARD_SWEEP: [u32; 4] = [1, 2, 4, 8];
    /// BOSS cores per shard device.
    const CORES: u32 = 4;

    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let index = &corpus.index;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type);
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let queries = suite.all();
    let replicas = args.tuning.replicas;

    writeln!(
        out,
        "# Scatter-gather shard scaling (ccnews-like, {} queries, k={}, {CORES} cores/shard, {replicas} replica(s))",
        queries.len(),
        args.k,
    )?;
    writeln!(
        out,
        "# honest multi-device timing: slowest leaf + link transfer + root merge"
    )?;
    writeln!(out, "# threads {}", args.threads)?;
    header(
        out,
        &[
            "shards",
            "qps",
            "seconds",
            "speedup_vs_one_shard",
            "mem_total_mb",
        ],
    )?;

    let config = || BossConfig::with_cores(CORES).with_k(args.k);
    let mut base_qps = 0.0;
    let mut speedup = 0.0;
    for n in SHARD_SWEEP {
        let sharded = ShardedIndex::split(index, n)
            .map_err(|e| io::Error::other(format!("cannot split into {n} shards: {e}")))?;
        let leaves: Vec<Vec<Boss>> = sharded
            .shards()
            .iter()
            .map(|shard| (0..replicas).map(|_| Boss::new(shard, config())).collect())
            .collect();
        let engine = Sharded::new(
            Boss::new(index, config()),
            &sharded,
            leaves,
            ShardTiming::ScatterGather,
        );
        let run = run_system(&engine, &queries, args.k, args.threads);
        if n == 1 {
            base_qps = run.qps;
        }
        speedup = run.qps / base_qps.max(1e-12);
        row(
            out,
            &[
                n.to_string(),
                f(run.qps),
                f(run.seconds),
                f(speedup),
                f(run.mem.total_bytes() as f64 / 1e6),
            ],
        )?;
    }
    writeln!(
        out,
        "# {}-shard speedup over 1 shard: {}x",
        SHARD_SWEEP[SHARD_SWEEP.len() - 1],
        f(speedup)
    )
}
