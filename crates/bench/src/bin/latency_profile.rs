//! Latency percentiles (p50/p95/p99) per engine and query type — serving
//! systems live and die on tail latency, which throughput figures hide.
//!
//! Diagnostics stay out of the data rows the invariance diffs compare:
//! the shard layer's (`--shards`/`--replicas`) per-(shard, replica) fault
//! counters and routing tallies print as labeled `# shard-health`
//! comments, and the serving harness (`--serve`/`--serve-*`) prints each
//! engine's open-loop rejected/expired/shed breakdown and served-tail
//! percentiles as a `# serving` block after the data rows.

use boss_bench::{
    boss_engine, f, header, iiu_engine, lucene_engine, row, run_serving, BenchArgs, BenchTarget,
    ServingSpec, TypedSuite,
};
use boss_core::{EtMode, QueryAlgorithm};
use boss_engine::{SearchEngine, ShardReplicaStats};
use boss_scm::MemoryConfig;
use boss_workload::corpus::CorpusSpec;

fn pct(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Per-query latencies in microseconds, sorted (cycles at the engine's
/// own clock — host cycles for Lucene, 1 GHz device cycles otherwise),
/// plus the engine's skip tallies (fault-skipped blocks,
/// pruning-skipped blocks/docs) after the run.
fn latencies_us<E: SearchEngine>(
    engine: &mut E,
    queries: &[boss_index::QueryExpr],
    k: usize,
) -> (Vec<f64>, u64, (u64, u64)) {
    let clk = engine.clock_ghz();
    let mut us: Vec<f64> = queries
        .iter()
        .map(|q| engine.search(q, k).expect("runs").cycles as f64 / (clk * 1e3))
        .collect();
    us.sort_by(f64::total_cmp);
    let eval = engine.eval_counts();
    let skipped = eval.blocks_skipped_fault;
    let pruned = (eval.blocks_skipped_prune, eval.docs_skipped_prune);
    (us, skipped, pruned)
}

/// Prints one engine family's `# serving` diagnostic line: the open-loop
/// scenario of `--serve-*` replayed over this engine's measured service
/// table. Comment-only by the same rule as the shard-health
/// counters — serving outcomes depend on the scenario knobs, never on
/// `--threads`, but they are diagnostics, not figure data.
fn serving_comment<E: SearchEngine + Send>(
    name: &str,
    engine: &E,
    pruned: Option<&E>,
    queries: &[boss_index::QueryExpr],
    spec: &ServingSpec,
    args: &BenchArgs,
) {
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
            println!(
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
            );
        }
        Err(e) => println!("# serving {name}: measurement failed: {e}"),
    }
}

/// One engine's row data plus its out-of-band diagnostics.
struct EngineRow {
    name: &'static str,
    us: Vec<f64>,
    skipped: u64,
    pruned: (u64, u64),
    shard_health: Vec<ShardReplicaStats>,
}

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("ccnews-like", &CorpusSpec::ccnews_like(args.scale));
    let sharded = args.shard_split(&index);
    let target = BenchTarget::new(&index, sharded.as_ref());
    let suite = TypedSuite::sample(&index, args.queries_per_type.max(20), args.seed);
    println!("# Per-query latency percentiles (single engine instance, us)");
    header(&["qtype", "system", "p50_us", "p95_us", "p99_us"]);
    for (qt, queries) in &suite.per_type {
        let mut rows: Vec<EngineRow> = Vec::new();
        if args.engines.lucene {
            let mut luc = lucene_engine(&target, 1, MemoryConfig::host_scm_6ch(), &args.tuning);
            let (us, skipped, pruned) = latencies_us(&mut luc, queries, args.k);
            rows.push(EngineRow {
                name: "Lucene",
                us,
                skipped,
                pruned,
                shard_health: luc.shard_stats(),
            });
        }
        if args.engines.iiu {
            let mut iiu = iiu_engine(&target, 1, MemoryConfig::optane_dcpmm(), &args.tuning);
            let (us, skipped, pruned) = latencies_us(&mut iiu, queries, args.k);
            rows.push(EngineRow {
                name: "IIU",
                us,
                skipped,
                pruned,
                shard_health: iiu.shard_stats(),
            });
        }
        if args.engines.boss {
            let mut boss = boss_engine(
                &target,
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                &args.tuning,
            );
            let (us, skipped, pruned) = latencies_us(&mut boss, queries, args.k);
            rows.push(EngineRow {
                name: "BOSS",
                us,
                skipped,
                pruned,
                shard_health: boss.shard_stats(),
            });
        }
        for r in &rows {
            row(&[
                qt.label().into(),
                r.name.into(),
                f(pct(&r.us, 0.50)),
                f(pct(&r.us, 0.95)),
                f(pct(&r.us, 0.99)),
            ]);
        }
        // Fault and shard-health counters ride in comments: degradation
        // diagnostics only, stripped by the invariance diffs.
        for r in &rows {
            if r.skipped > 0 {
                println!(
                    "# fault-skipped-blocks {} {}: {}",
                    qt.label(),
                    r.name,
                    r.skipped
                );
            }
            // Dynamic-pruning savings (non-zero only under --algorithm
            // maxscore/wand/bmw/bmm): work avoided, never hits changed,
            // so these too stay out of the diffed data rows.
            if r.pruned.0 > 0 || r.pruned.1 > 0 {
                println!(
                    "# prune {} {}: blocks_skipped {} docs_skipped {}",
                    qt.label(),
                    r.name,
                    r.pruned.0,
                    r.pruned.1,
                );
            }
            // Labeled per-shard breakdown: which device is sick, with
            // which symptom, and where the router sent the traffic.
            for s in &r.shard_health {
                if s.faults.total() > 0 || s.blocks_skipped_fault > 0 {
                    println!(
                        "# shard-health {} {} shard {} replica {}: {} skipped_blocks {} attempts {} selected {}",
                        qt.label(),
                        r.name,
                        s.shard,
                        s.replica,
                        s.faults,
                        s.blocks_skipped_fault,
                        s.attempts,
                        s.selected,
                    );
                }
            }
        }
    }

    // Open-loop serving diagnostics over the whole suite, one line per
    // engine family. Degradation needs a pruned companion engine (the
    // overload controller's cheaper service level), built only when the
    // scenario can actually use it.
    if let Some(spec) = &args.tuning.serving {
        let queries: Vec<_> = suite
            .per_type
            .iter()
            .flat_map(|(_, qs)| qs.iter().cloned())
            .collect();
        let tuning = &args.tuning;
        let pruned_tuning = tuning
            .clone()
            .with_algorithm(QueryAlgorithm::BlockMaxMaxScore);
        if args.engines.lucene {
            let e = lucene_engine(&target, 1, MemoryConfig::host_scm_6ch(), tuning);
            let p = spec
                .degrade
                .then(|| lucene_engine(&target, 1, MemoryConfig::host_scm_6ch(), &pruned_tuning));
            serving_comment("Lucene", &e, p.as_ref(), &queries, spec, &args);
        }
        if args.engines.iiu {
            let e = iiu_engine(&target, 1, MemoryConfig::optane_dcpmm(), tuning);
            let p = spec
                .degrade
                .then(|| iiu_engine(&target, 1, MemoryConfig::optane_dcpmm(), &pruned_tuning));
            serving_comment("IIU", &e, p.as_ref(), &queries, spec, &args);
        }
        if args.engines.boss {
            let e = boss_engine(
                &target,
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                tuning,
            );
            let p = spec.degrade.then(|| {
                boss_engine(
                    &target,
                    1,
                    EtMode::Full,
                    MemoryConfig::optane_dcpmm(),
                    args.k,
                    &pruned_tuning,
                )
            });
            serving_comment("BOSS", &e, p.as_ref(), &queries, spec, &args);
        }
    }
}
