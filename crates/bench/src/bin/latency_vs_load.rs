//! Latency vs offered load — the M/M/k-style sanity view of the serving
//! harness: mean and p99 sojourn time as Poisson load approaches the
//! device's capacity, plus admission drops beyond it.
//!
//! This is the simplest serving scenario the harness supports (FIFO, no
//! deadlines, no degradation, queue bound 64) swept across load, so the
//! hockey stick is pure queueing theory: waits explode past load 1.0 and
//! the bounded queue starts rejecting. The full scheduler × degradation
//! × load matrix — and the machine-readable report — lives in
//! `serving_latency`; at the same seed and query set both replay the
//! same measured service table, so this binary is the quick cross-check,
//! not a second model.

use boss_bench::{boss_engine, f, header, row, BenchArgs, BenchTarget, ServingSpec};
use boss_core::EtMode;
use boss_engine::{simulate, SearchEngine, ServePolicy, ServiceTable};
use boss_scm::MemoryConfig;
use boss_workload::arrivals::ArrivalKind;
use boss_workload::corpus::CorpusSpec;
use boss_workload::queries::QuerySampler;

/// Admission bound of the sanity view (the command-queue depth of the
/// seed's Figure 4(a) model).
const QUEUE_BOUND: usize = 64;

fn bail(msg: impl std::fmt::Display) -> ! {
    eprintln!("latency_vs_load: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = BenchArgs::parse();
    let index = match args.try_build_corpus("ccnews-like", &CorpusSpec::ccnews_like(args.scale)) {
        Ok(i) => i,
        Err(e) => bail(format!("corpus build failed: {e}")),
    };
    let shard_split = args.shard_split(&index);
    let target = BenchTarget::new(&index, shard_split.as_ref());
    let mut sampler = match QuerySampler::new(&index, args.seed) {
        Ok(s) => s,
        Err(e) => bail(format!("corpus has no usable vocabulary: {e}")),
    };
    let queries: Vec<_> = match sampler.trec_like_mix((args.queries_per_type * 6).max(60)) {
        Ok(qs) => qs.into_iter().map(|t| t.expr).collect(),
        Err(e) => bail(format!("query sampling failed: {e}")),
    };

    let engine = boss_engine(
        &target,
        8,
        EtMode::Full,
        MemoryConfig::optane_dcpmm(),
        args.k,
        &args.tuning,
    );
    // One deterministic measurement pass; the load sweep replays it.
    let table = match ServiceTable::measure(&engine, None, &queries, args.k, args.k, args.threads) {
        Ok(t) => t,
        Err(e) => bail(format!(
            "service measurement failed: {e} (use --degrade skip on a faulty device)"
        )),
    };
    let mean_service = table.mean_normal_cycles();
    let servers = engine.lanes();

    println!(
        "# Latency vs offered load ({servers} cores, queue depth {QUEUE_BOUND}, k={})",
        args.k
    );
    println!(
        "# mean service {:.1} us; capacity ~{:.0} qps",
        mean_service / 1e3,
        servers as f64 * 1e9 / mean_service.max(1.0)
    );
    println!(
        "# full scheduler x degrade x load matrix: serving_latency (same table at the same seed)"
    );
    args.print_threads_comment();
    header(&[
        "load_frac",
        "mean_latency_us",
        "p99_latency_us",
        "queue_wait_us",
        "dropped",
    ]);
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
        row(&[
            f(load),
            f(mean_sojourn / 1e3),
            f(run.sojourn_percentile(0.99) as f64 / 1e3),
            f((mean_sojourn - mean_service).max(0.0) / 1e3),
            run.rejected.to_string(),
        ]);
    }
    println!("# the hockey stick: waits explode past load 1.0 and the queue starts dropping");
}
