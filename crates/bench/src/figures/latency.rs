//! Beyond the paper's throughput figures: per-query tail latency, the
//! open-loop latency-vs-load hockey stick, the open-loop serving sweep
//! under overload, and scatter-gather shard scaling.

use super::{CorpusKind, FigureCtx};
use crate::{boss_engine, f, header, iiu_engine, lucene_engine, row, run_system};
use boss_core::{BossConfig, EtMode, QueryAlgorithm};
use boss_engine::{
    simulate, Boss, EvalCounts, OverloadConfig, SearchEngine, ServePolicy, ServiceTable,
    ServingConfig, ServingRun, ShardTiming, Sharded, ALL_SERVE_POLICIES,
};
use boss_index::shard::ShardedIndex;
use boss_index::QueryExpr;
use boss_scm::MemoryConfig;
use boss_workload::arrivals::{self, ArrivalKind};
use std::io;

fn pct(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// One engine's `latency_profile` row data plus its pruning counters.
struct EngineRow {
    name: &'static str,
    /// Per-query latencies in microseconds, sorted (cycles at the
    /// engine's own clock — host cycles for Lucene, 1 GHz device cycles
    /// otherwise).
    us: Vec<f64>,
    /// Pruning-skipped (blocks, docs) after the run.
    pruned: (u64, u64),
}

fn engine_row<E: SearchEngine>(
    name: &'static str,
    mut engine: E,
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
        pruned: (eval.blocks_skipped_prune, eval.docs_skipped_prune),
    }
}

/// Latency percentiles (p50/p95/p99) per engine and query type — serving
/// systems live and die on tail latency, which throughput figures hide.
///
/// Pruning savings under `--algorithm` are labeled `# prune` comments,
/// outside the data rows the invariance tests compare.
pub(super) fn latency_profile(ctx: &mut FigureCtx) -> io::Result<()> {
    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let index = &corpus.index;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type.max(20));
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let k = args.k;
    let algorithm = args.algorithm;
    writeln!(
        out,
        "# Per-query latency percentiles (single engine instance, us)"
    )?;
    header(out, &["qtype", "system", "p50_us", "p95_us", "p99_us"])?;
    for (qt, queries) in &suite.per_type {
        let mut rows: Vec<EngineRow> = Vec::new();
        if args.engines.lucene {
            let engine = lucene_engine(index, 1, MemoryConfig::host_scm_6ch(), algorithm);
            rows.push(engine_row("Lucene", engine, queries, k));
        }
        if args.engines.iiu {
            let engine = iiu_engine(index, 1, MemoryConfig::optane_dcpmm(), algorithm);
            rows.push(engine_row("IIU", engine, queries, k));
        }
        if args.engines.boss {
            let scm = MemoryConfig::optane_dcpmm();
            let engine = boss_engine(index, 1, EtMode::Full, scm, k, algorithm);
            rows.push(engine_row("BOSS", engine, queries, k));
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
        // Dynamic-pruning savings (non-zero only under --algorithm
        // maxscore/wand/bmw/bmm): work avoided, never hits changed, so
        // they stay out of the compared data rows.
        for r in &rows {
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
        }
    }
    Ok(())
}

/// The arrival process of every open-loop scenario here.
const ARRIVALS: ArrivalKind = ArrivalKind::Poisson;

/// One open-loop scenario: how hard [`ARRIVALS`] offer load, and the
/// admission / deadline / degradation posture. Load and deadline are
/// relative to the measured mean normal service time and the lane
/// count, so one scenario offers the same *relative* load to any engine.
struct ServingSpec {
    /// Offered load as a fraction of pool capacity (arrival rate × mean
    /// normal service time ÷ servers); 1.0 is saturation.
    load: f64,
    /// Admission queue bound.
    queue: usize,
    /// Per-query deadline in mean normal service times; 0 disables
    /// deadlines.
    deadline_x: f64,
    policy: ServePolicy,
    /// Overload controller (degrade under pressure) on.
    degrade: bool,
}

impl ServingSpec {
    /// Replays the scenario over `table` on `servers` lanes: one arrival
    /// per measured query, drawn deterministically from `seed`.
    fn replay(&self, table: &ServiceTable, servers: usize, seed: u64) -> ServingRun {
        let mean_svc = table.mean_normal_cycles().max(1.0);
        let interarrival = mean_svc / (servers as f64 * self.load);
        let arrivals = arrivals::generate(ARRIVALS, table.len(), interarrival, seed);
        let config = ServingConfig {
            servers,
            queue_bound: self.queue,
            deadline_cycles: (self.deadline_x > 0.0)
                .then(|| (self.deadline_x * mean_svc).round() as u64),
            policy: self.policy,
            overload: self.degrade.then(OverloadConfig::default),
        };
        simulate(&config, &arrivals, table)
    }
}

/// Latency vs offered load — the M/M/k-style sanity view of the serving
/// harness: mean and p99 sojourn time as Poisson load approaches the
/// device's capacity, plus admission drops beyond it.
///
/// This is the simplest serving scenario the harness supports (FIFO, no
/// deadlines, no degradation, queue bound 64) swept across load, so the
/// hockey stick is pure queueing theory: waits explode past load 1.0 and
/// the bounded queue starts rejecting. The full scheduler × degradation
/// × load matrix is the [`serving_latency`] entry; at the same seed
/// and query set both replay the same measured service table, so this is
/// the quick cross-check, not a second model.
pub(super) fn latency_vs_load(ctx: &mut FigureCtx) -> io::Result<()> {
    /// Admission bound of the sanity view (the command-queue depth of
    /// the seed's Figure 4(a) model).
    const QUEUE_BOUND: usize = 64;

    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let queries = corpus.trec_mix((args.queries_per_type * 6).max(60), args.seed)?;

    let engine = boss_engine(
        &corpus.index,
        8,
        EtMode::Full,
        MemoryConfig::optane_dcpmm(),
        args.k,
        args.algorithm,
    );
    // One deterministic measurement pass; the load sweep replays it.
    let table = ServiceTable::measure(&engine, None, &queries, args.k, args.k, args.threads)
        .map_err(|e| io::Error::other(format!("service measurement failed: {e}")))?;
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
            load,
            queue: QUEUE_BOUND,
            deadline_x: 0.0,
            policy: ServePolicy::Fifo,
            degrade: false,
        };
        let run = spec.replay(&table, servers, args.seed);
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

/// Open-loop serving under overload: the goodput knee and what admission
/// control, deadlines and graceful degradation buy back.
///
/// Sweeps offered load × scheduling posture over a BOSS device serving a
/// deterministic Poisson arrival trace, and reports per-scenario sojourn
/// percentiles, goodput and the shed/expired/rejected breakdown. The
/// per-query service table is measured **once** through the
/// deterministic batch executor and every scenario replays it, so each
/// admission, drop and served-result decision is bit-identical at any
/// `--threads` value (`boss-engine`'s
/// `end_to_end_run_is_bit_identical_across_worker_counts` replays these
/// four postures at 1/2/4 workers to enforce exactly that).
///
/// One posture per [`ServePolicy`], in [`ALL_SERVE_POLICIES`] order:
///
/// * `fifo` — deadline-free FIFO: the naive queue whose p99 marches to
///   the queue-bound horizon as load crosses 1.0;
/// * `sjf` — deadline-free oracle SJF: better mean, same unbounded tail;
/// * `edf` — deadlines with on-dequeue expiry, no degradation;
/// * `shed` — EDF + predictive shed + the overload controller flipping
///   the pruned/brownout levers: the "graceful" posture whose served-p99
///   stays bounded past saturation.
///
/// The sweep serves ten times `--queries-per-type` per type at a tenth
/// of `--k` (600 queries at k = 100 under the default flags). It always
/// simulates BOSS, exhaustive at the normal level and Block-Max MaxScore
/// at the pruned one, so `--engines` and `--algorithm` do not apply.
pub(super) fn serving_latency(ctx: &mut FigureCtx) -> io::Result<()> {
    /// BOSS cores serving the sweep.
    const CORES: u32 = 4;
    /// Admission queue bound.
    const QUEUE: usize = 256;
    /// Deadline of the `edf` and `shed` postures, in mean normal service
    /// times.
    const DEADLINE_X: f64 = 20.0;
    /// Offered loads, as fractions of pool capacity; the knee is read at
    /// the last.
    const LOADS: [f64; 4] = [0.5, 0.8, 1.2, 2.0];
    /// Queries per type are this many times `--queries-per-type`, and k
    /// is `--k` divided by it.
    const FACTOR: usize = 10;

    let corpus = ctx.corpus(CorpusKind::Ccnews)?;
    let suite = ctx.suite(&corpus, ctx.args.queries_per_type * FACTOR);
    let args = &ctx.args;
    let out = &mut *ctx.out;
    let queries = suite.all();
    let k = (args.k / FACTOR).max(1);

    let engine = |algorithm| {
        let scm = MemoryConfig::optane_dcpmm();
        boss_engine(&corpus.index, CORES, EtMode::Full, scm, k, algorithm)
    };
    let normal = engine(QueryAlgorithm::Exhaustive);
    let pruned = engine(QueryAlgorithm::BlockMaxMaxScore);
    // One measurement pass feeds the entire sweep: the table carries all
    // three degrade levels, and postures that never degrade simply index
    // the normal level.
    let brownout_k = (k / 4).max(1);
    let table = ServiceTable::measure(
        &normal,
        Some(&pruned),
        &queries,
        k,
        brownout_k,
        args.threads,
    )
    .map_err(|e| io::Error::other(format!("service measurement failed: {e}")))?;
    let servers = normal.lanes();
    let clock = normal.clock_ghz();

    writeln!(
        out,
        "# Open-loop serving sweep (ccnews-like, {} queries, k={k}, {CORES} cores, queue {QUEUE}, deadline {}x mean service)",
        queries.len(),
        f(DEADLINE_X)
    )?;
    writeln!(
        out,
        "# arrivals {ARRIVALS} | mean service {} cycles | {servers} simulated servers",
        f(table.mean_normal_cycles()),
    )?;
    writeln!(out, "# threads {}", args.threads)?;
    header(
        out,
        &[
            "load",
            "policy",
            "degrade",
            "served",
            "rejected",
            "expired",
            "shed",
            "late",
            "p50_us",
            "p99_us",
            "p999_us",
            "goodput_qps",
        ],
    )?;

    let us = |cycles: u64| cycles as f64 / (clock * 1e3);
    let top = LOADS[LOADS.len() - 1];
    // Served-p99 cycles of fifo and shed at the top load, for the knee.
    let (mut fifo, mut shed) = (0, 0);
    for load in LOADS {
        for policy in ALL_SERVE_POLICIES {
            let deadlines = matches!(policy, ServePolicy::Edf | ServePolicy::EdfShed);
            let degrade = policy == ServePolicy::EdfShed;
            let spec = ServingSpec {
                load,
                queue: QUEUE,
                deadline_x: if deadlines { DEADLINE_X } else { 0.0 },
                policy,
                degrade,
            };
            let run = spec.replay(&table, servers, args.seed);
            let p99 = run.sojourn_percentile(0.99);
            row(
                out,
                &[
                    f(load),
                    policy.label().into(),
                    if degrade { "on" } else { "off" }.into(),
                    run.served().to_string(),
                    run.rejected.to_string(),
                    run.expired.to_string(),
                    run.shed.to_string(),
                    run.served_late.to_string(),
                    f(us(run.sojourn_percentile(0.50))),
                    f(us(p99)),
                    f(us(run.sojourn_percentile(0.999))),
                    f(run.goodput_qps(clock)),
                ],
            )?;
            match policy {
                ServePolicy::Fifo if load == top => fifo = p99,
                ServePolicy::EdfShed if load == top => shed = p99,
                _ => {}
            }
        }
    }

    // The knee: at the heaviest load the graceful posture's served-p99
    // must stay bounded while deadline-free FIFO's marches toward the
    // queue-bound horizon.
    writeln!(
        out,
        "# knee @ load {}: fifo p99 {} us vs shed+degrade p99 {} us ({})",
        f(top),
        f(us(fifo)),
        f(us(shed)),
        if shed < fifo {
            "graceful posture bounded"
        } else {
            "NO knee - inspect configuration"
        }
    )
}

/// Scatter-gather throughput scaling across shard counts — the
/// multi-device payoff the pool argument of Section II-C predicts.
///
/// Splits the ccnews-like corpus into 1/2/4/8 shards, builds one BOSS
/// device per shard behind the engine-layer scatter-gather coordinator
/// (slowest leaf + shared-link transfer + root merge, per-shard traffic
/// summed, bandwidth roofline divided by the shard count), and reports
/// batch throughput per shard count. These numbers are *supposed* to
/// move with the shard count — that is the experiment.
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

    writeln!(
        out,
        "# Scatter-gather shard scaling (ccnews-like, {} queries, k={}, {CORES} cores/shard, 1 replica(s))",
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
            .map(|shard| vec![Boss::new(shard, config())])
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
