//! Open-loop serving under overload: the goodput knee and what
//! admission control, deadlines, and graceful degradation buy back.
//!
//! Sweeps offered load × scheduling policy × degradation posture over a
//! BOSS device (optionally sharded) serving a deterministic arrival
//! trace, and reports per-scenario sojourn percentiles, goodput, and the
//! shed/expired/rejected breakdown as TSV.
//!
//! The per-query service table is measured **once** through the
//! deterministic batch executor and reused across the whole sweep, so
//! the sweep itself is a pure replay: every admission, drop, and
//! served-result decision is bit-identical at any `--threads` and
//! `--shards` value (CI diffs the `--decisions` log across 1/2/4
//! workers × 1/4 shards to enforce exactly that).
//!
//! Four postures per load point:
//!
//! * `fifo` — deadline-free FIFO: the naive queue whose p99 marches to
//!   the queue-bound horizon as load crosses 1.0;
//! * `sjf` — deadline-free oracle SJF: better mean, same unbounded tail;
//! * `edf` — deadlines with on-dequeue expiry, no degradation;
//! * `shed` — EDF + predictive shed + the overload controller flipping
//!   the pruned/brownout levers: the "graceful" column whose served-p99
//!   stays bounded past saturation.

use boss_bench::{boss_engine, f, header, row, BenchTarget, EngineTuning, ServingSpec, TypedSuite};
use boss_core::{EtMode, QueryAlgorithm};
use boss_engine::{simulate, Disposition, SearchEngine, ServePolicy, ServiceTable, ServingRun};
use boss_index::shard::ShardedIndex;
use boss_scm::MemoryConfig;
use boss_workload::arrivals::ArrivalKind;
use boss_workload::corpus::{CorpusSpec, Scale};
use std::io::Write;

/// One (policy, degradation) posture of the sweep.
#[derive(Debug, Clone, Copy)]
struct Posture {
    policy: ServePolicy,
    /// Deadlines on (off for the divergent baselines).
    deadlines: bool,
    /// Overload controller on.
    degrade: bool,
}

const POSTURES: [Posture; 4] = [
    Posture {
        policy: ServePolicy::Fifo,
        deadlines: false,
        degrade: false,
    },
    Posture {
        policy: ServePolicy::Sjf,
        deadlines: false,
        degrade: false,
    },
    Posture {
        policy: ServePolicy::Edf,
        deadlines: true,
        degrade: false,
    },
    Posture {
        policy: ServePolicy::EdfShed,
        deadlines: true,
        degrade: true,
    },
];

struct Args {
    scale: Scale,
    seed: u64,
    queries_per_type: usize,
    k: usize,
    threads: usize,
    cores: u32,
    shards: u32,
    replicas: u32,
    queue: usize,
    deadline_x: f64,
    arrivals: ArrivalKind,
    loads: Vec<f64>,
    decisions: bool,
}

fn bail(msg: impl std::fmt::Display) -> ! {
    eprintln!("serving_latency: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Small,
        seed: 42,
        queries_per_type: 100,
        k: 100,
        threads: boss_bench::default_threads(),
        cores: 4,
        shards: 1,
        replicas: 1,
        queue: 256,
        deadline_x: 20.0,
        arrivals: ArrivalKind::Poisson,
        loads: vec![0.5, 0.8, 1.2, 2.0],
        decisions: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| bail(format!("missing value for {name}")))
        };
        fn val<T: std::str::FromStr>(raw: &str, flag: &str) -> T
        where
            T::Err: std::fmt::Display,
        {
            raw.parse()
                .unwrap_or_else(|e| bail(format!("invalid value {raw:?} for {flag}: {e}")))
        }
        match flag.as_str() {
            "--scale" => args.scale = val(&take("--scale"), "--scale"),
            "--seed" => args.seed = val(&take("--seed"), "--seed"),
            "--queries-per-type" => {
                args.queries_per_type = val(&take("--queries-per-type"), "--queries-per-type");
            }
            "--k" => args.k = val::<usize>(&take("--k"), "--k").max(1),
            "--threads" => args.threads = val::<usize>(&take("--threads"), "--threads").max(1),
            "--cores" => args.cores = val::<u32>(&take("--cores"), "--cores").max(1),
            "--shards" => args.shards = val::<u32>(&take("--shards"), "--shards").max(1),
            "--replicas" => args.replicas = val::<u32>(&take("--replicas"), "--replicas").max(1),
            "--queue" => args.queue = val::<usize>(&take("--queue"), "--queue").max(1),
            "--deadline-x" => args.deadline_x = val(&take("--deadline-x"), "--deadline-x"),
            "--arrivals" => args.arrivals = val(&take("--arrivals"), "--arrivals"),
            "--loads" => {
                let raw = take("--loads");
                args.loads = raw
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| val::<f64>(s, "--loads"))
                    .collect();
                if args.loads.is_empty() {
                    bail("--loads selects no load points");
                }
            }
            "--decisions" => args.decisions = true,
            "--help" | "-h" => {
                println!(
                    "usage: [--scale smoke|small|full] [--seed N] [--queries-per-type N] [--k N] \
                     [--threads N] [--cores N] [--shards N] [--replicas N] [--queue N] \
                     [--deadline-x F] [--arrivals poisson|bursty] [--loads F,F,...] \
                     [--decisions]"
                );
                std::process::exit(0);
            }
            other => bail(format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args, &mut std::io::stdout().lock()) {
        bail(format!("cannot write the report: {e}"));
    }
}

fn run(args: &Args, out: &mut dyn Write) -> std::io::Result<()> {
    let index = match CorpusSpec::ccnews_like(args.scale).build() {
        Ok(i) => i,
        Err(e) => bail(format!("corpus build failed: {e}")),
    };
    let shard_split = if args.shards > 1 {
        match ShardedIndex::split(&index, args.shards) {
            Ok(sh) => Some(sh),
            Err(e) => bail(format!("invalid --shards {}: {e}", args.shards)),
        }
    } else {
        None
    };
    let target = BenchTarget::new(&index, shard_split.as_ref());
    let suite = TypedSuite::sample(&index, args.queries_per_type, args.seed);
    let queries = suite.all();

    let tuning = EngineTuning {
        replicas: args.replicas.max(1) as usize,
        ..EngineTuning::default()
    };
    let memory = MemoryConfig::optane_dcpmm();
    let normal = boss_engine(
        &target,
        args.cores,
        EtMode::Full,
        memory.clone(),
        args.k,
        &tuning,
    );
    let pruned_tuning = tuning
        .clone()
        .with_algorithm(QueryAlgorithm::BlockMaxMaxScore);
    let pruned = boss_engine(
        &target,
        args.cores,
        EtMode::Full,
        memory,
        args.k,
        &pruned_tuning,
    );

    // One measurement pass feeds the entire sweep: the table carries all
    // three degrade levels, and postures that never degrade simply index
    // the normal level.
    let brownout_k = (args.k / 4).max(1);
    let table = match ServiceTable::measure(
        &normal,
        Some(&pruned),
        &queries,
        args.k,
        brownout_k,
        args.threads,
    ) {
        Ok(t) => t,
        Err(e) => bail(format!("service measurement failed: {e}")),
    };
    let mean_svc = table.mean_normal_cycles();
    let servers = normal.lanes();
    let clock = normal.clock_ghz();

    writeln!(
        out,
        "# Open-loop serving sweep (ccnews-like, {} queries, k={}, {} cores, queue {}, deadline {}x mean service)",
        queries.len(),
        args.k,
        args.cores,
        args.queue,
        f(args.deadline_x)
    )?;
    writeln!(
        out,
        "# arrivals {} | mean service {} cycles | {} simulated servers",
        args.arrivals,
        f(mean_svc),
        servers
    )?;
    writeln!(out, "# threads {}", args.threads)?;
    if args.shards > 1 {
        writeln!(
            out,
            "# shards {} replicas {}",
            args.shards,
            args.replicas.max(1)
        )?;
    }
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
    // Served-p99 cycles per (load, policy), for the knee line.
    let mut p99s: Vec<(f64, ServePolicy, u64)> = Vec::new();
    let mut decisions: Vec<(f64, Posture, ServingRun)> = Vec::new();
    for &load in &args.loads {
        let spec_for = |p: Posture| ServingSpec {
            arrivals: args.arrivals,
            load,
            queue: args.queue,
            deadline_x: if p.deadlines { args.deadline_x } else { 0.0 },
            policy: p.policy,
            degrade: p.degrade,
        };
        for p in POSTURES {
            let spec = spec_for(p);
            let arrivals = spec.arrival_trace(queries.len(), mean_svc, servers, args.seed);
            let config = spec.config(servers, mean_svc);
            let run = simulate(&config, &arrivals, &table);
            row(
                out,
                &[
                    f(load),
                    p.policy.label().into(),
                    if p.degrade { "on" } else { "off" }.into(),
                    run.served().to_string(),
                    run.rejected.to_string(),
                    run.expired.to_string(),
                    run.shed.to_string(),
                    run.served_late.to_string(),
                    f(us(run.sojourn_percentile(0.50))),
                    f(us(run.sojourn_percentile(0.99))),
                    f(us(run.sojourn_percentile(0.999))),
                    f(run.goodput_qps(clock)),
                ],
            )?;
            p99s.push((load, p.policy, run.sojourn_percentile(0.99)));
            if args.decisions {
                decisions.push((load, p, run));
            }
        }
    }

    // The knee: at the heaviest load the graceful posture's served-p99
    // must stay bounded while deadline-free FIFO's marches toward the
    // queue-bound horizon.
    let top = args.loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let at_top = |policy: ServePolicy| {
        p99s.iter()
            .rfind(|(load, p, _)| *load == top && *p == policy)
            .map(|&(_, _, p99)| p99)
    };
    let (fifo, shed) = match (at_top(ServePolicy::Fifo), at_top(ServePolicy::EdfShed)) {
        (Some(a), Some(b)) => (a, b),
        _ => bail("sweep produced no fifo/shed scenario at the top load"),
    };
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
    )?;

    if args.decisions {
        // The drop log CI diffs across worker/shard counts: one row per
        // query per scenario, covering every disposition field.
        header(
            out,
            &[
                "load",
                "policy",
                "seq",
                "arrival",
                "outcome",
                "level",
                "start",
                "finish",
                "hits_hash",
            ],
        )?;
        for (load, p, run) in &decisions {
            for (seq, r) in run.records.iter().enumerate() {
                let (level, start, finish, hash) = match r.disposition {
                    Disposition::Served {
                        level,
                        start,
                        finish,
                        hits_hash,
                    } => (
                        level.label().to_string(),
                        start.to_string(),
                        finish.to_string(),
                        format!("{hits_hash:016x}"),
                    ),
                    Disposition::Rejected => ("-".into(), "-".into(), "-".into(), "-".into()),
                    Disposition::Expired { at } | Disposition::Shed { at } => {
                        ("-".into(), at.to_string(), "-".into(), "-".into())
                    }
                };
                row(
                    out,
                    &[
                        f(*load),
                        p.policy.label().into(),
                        seq.to_string(),
                        r.arrival.to_string(),
                        r.disposition.label().into(),
                        level,
                        start,
                        finish,
                        hash,
                    ],
                )?;
            }
        }
    }
    Ok(())
}
