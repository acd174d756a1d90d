//! One workload run: repeated set-up, the correctness gate, the timed
//! closed-loop reps (one client, one OS thread) and the open-loop serving
//! simulation. End-to-end metrics always come from this untraced path;
//! `--trace 1` adds the layer probes and the traced pass of `layers.rs`.

use crate::calib::Calib;
use crate::report::Report;
use crate::setup::{setup, Env, Workload};
use crate::stats::{
    median, mix_seed, quantile_sorted, summarize, tail_percentile, SplitMix, Summary,
};
use boss_core::{BossConfig, QueryAlgorithm};
use boss_engine::{
    simulate, BatchExecutor, Boss, EngineBatch, Iiu, Lucene, OverloadConfig, SearchEngine,
    ServePolicy, ServiceTable, ServingConfig, ServingRun, ShardTiming, Sharded,
};
use boss_iiu::IiuConfig;
use boss_index::{InvertedIndex, QueryExpr, SearchHit};
use boss_luceneish::LuceneConfig;
use boss_workload::arrivals::{self, ArrivalKind};
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed executor batches per engine per rep.
const CHUNKS: usize = 16;
/// Timed reps never stop before this many, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;
/// Every `ORACLE_STRIDE`-th query of the suite is checked against
/// `boss_index::reference::evaluate` (10-20 ms a query).
const ORACLE_STRIDE: usize = 20;

pub const QUEUE_BOUND: usize = 256;
/// Arrivals per serving scenario, at least.
const SERVE_ARRIVALS: usize = 4096;
/// Latency limit of the serving simulation: p99 sojourn within
/// `DEADLINE_X` x mean normal service (the `deadline_x` of
/// `BENCH_serving.json`).
pub const DEADLINE_X: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Boss,
    Iiu,
    Lucene,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Boss, Engine::Iiu, Engine::Lucene];

    pub fn label(self) -> &'static str {
        match self {
            Engine::Boss => "boss",
            Engine::Iiu => "iiu",
            Engine::Lucene => "lucene",
        }
    }

    /// The engine's share of the BOSS suite.
    pub fn stride(self, w: &Workload) -> usize {
        match self {
            Engine::Boss => 1,
            Engine::Iiu => w.iiu_stride,
            Engine::Lucene => w.lucene_stride,
        }
    }
}

fn wrap<'a, E: SearchEngine>(
    env: &'a Env,
    make: impl Fn(&'a InvertedIndex) -> E,
) -> Sharded<'a, E> {
    match &env.sharded {
        None => Sharded::single(make(&env.index)),
        Some(sh) => Sharded::new(
            make(&env.index),
            sh,
            sh.shards().iter().map(|s| vec![make(s)]).collect(),
            ShardTiming::ScatterGather,
        ),
    }
}

/// Default configurations; only `k` and the algorithm are ever set.
impl Env {
    pub fn boss(&self, algorithm: QueryAlgorithm, k: usize) -> Sharded<'_, Boss<'_>> {
        wrap(self, |i| {
            Boss::new(i, BossConfig::default().with_k(k).with_algorithm(algorithm))
        })
    }

    pub fn iiu(&self, algorithm: QueryAlgorithm) -> Sharded<'_, Iiu<'_>> {
        wrap(self, |i| {
            Iiu::new(i, IiuConfig::default().with_algorithm(algorithm))
        })
    }

    pub fn lucene(&self, algorithm: QueryAlgorithm) -> Sharded<'_, Lucene<'_>> {
        wrap(self, |i| {
            Lucene::new(i, LuceneConfig::default().with_algorithm(algorithm))
        })
    }
}

/// Runs `$body` with `$e` bound to the workload's engine of kind `$kind`.
#[macro_export]
macro_rules! with_engine {
    ($env:expr, $w:expr, $kind:expr, |$e:ident| $body:expr) => {
        match $kind {
            $crate::run::Engine::Boss => {
                let $e = $env.boss($w.algorithm, $w.k);
                $body
            }
            $crate::run::Engine::Iiu => {
                let $e = $env.iiu($w.algorithm);
                $body
            }
            $crate::run::Engine::Lucene => {
                let $e = $env.lucene($w.algorithm);
                $body
            }
        }
    };
}

/// FNV-1a over doc ids and score bits, in rank order.
pub fn hash_hits(hits: &[SearchHit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hit in hits {
        for word in [u64::from(hit.doc), u64::from(hit.score.to_bits())] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// What must repeat bit for bit whenever a batch is re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub hashes: Vec<u64>,
    pub cycles: Vec<u64>,
    /// Hits returned over the whole batch.
    pub n_hits: u64,
    pub makespan_cycles: u64,
    pub eval: boss_engine::EvalCounts,
    pub mem: boss_engine::MemStats,
}

impl Exact {
    pub fn of(batch: &EngineBatch) -> Self {
        Exact {
            makespan_cycles: batch.makespan_cycles,
            ..Self::of_every(batch, 1)
        }
    }

    /// The baseline of every `stride`-th query of `batch` run as a batch
    /// of its own (per-query results and merged counters; the makespan of
    /// such a batch is not known and left 0).
    fn of_every(batch: &EngineBatch, stride: usize) -> Self {
        let picked = || batch.outcomes.iter().step_by(stride);
        let mut eval = boss_engine::EvalCounts::default();
        let mut mem = boss_engine::MemStats::new();
        for o in picked() {
            eval.merge(&o.eval);
            mem.merge(&o.mem);
        }
        Exact {
            hashes: picked().map(|o| hash_hits(&o.hits)).collect(),
            cycles: picked().map(|o| o.cycles).collect(),
            n_hits: picked().map(|o| o.hits.len() as u64).sum(),
            makespan_cycles: 0,
            eval,
            mem,
        }
    }
}

/// One closed-loop batch through `BatchExecutor::with_threads(threads)`.
pub fn exec_pass<E: SearchEngine + Send>(
    engine: &E,
    queries: &[QueryExpr],
    k: usize,
    threads: usize,
) -> Result<EngineBatch, String> {
    BatchExecutor::with_threads(threads)
        .run(engine, queries, k)
        .map_err(|e| format!("{} batch failed: {e}", engine.label()))
}

/// A bare `fork().search` loop timing every query, calibrated chunk by
/// chunk; returns per-query microseconds and their sum in seconds, both
/// at reference speed. Hits are checked outside the timed region.
pub fn latency_pass<E: SearchEngine>(
    engine: &E,
    queries: &[QueryExpr],
    k: usize,
    expect: &Exact,
    chunk_len: usize,
    calib: &mut Calib,
) -> Result<(Vec<f64>, f64), String> {
    let mut fork = engine.fork();
    let mut lat_us = Vec::with_capacity(queries.len());
    let mut wall = 0.0;
    let mut hits = Vec::with_capacity(chunk_len);
    for (qs, wants) in queries
        .chunks(chunk_len)
        .zip(expect.hashes.chunks(chunk_len))
    {
        let at = lat_us.len();
        hits.clear();
        let (done, raw, cal) = calib.time(|| -> Result<(), String> {
            for q in qs {
                let t = Instant::now();
                let out = fork
                    .search(q, k)
                    .map_err(|e| format!("{} search failed: {e}", engine.label()))?;
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                hits.push(out.hits);
            }
            Ok(())
        });
        done?;
        if hits
            .iter()
            .zip(wants)
            .any(|(h, want)| hash_hits(h) != *want)
        {
            return Err(format!("{} hits changed between passes", engine.label()));
        }
        for us in &mut lat_us[at..] {
            *us *= cal / raw;
            wall += *us / 1e6;
        }
    }
    Ok((lat_us, wall))
}

/// The per-engine state a run carries between phases.
#[derive(Debug)]
pub struct EngineState {
    pub kind: Engine,
    pub queries: Vec<QueryExpr>,
    pub exact: Exact,
    pub clock_ghz: f64,
    pub lanes: usize,
    /// Simulated queries per second over the whole suite (every engine
    /// runs it once, untimed, in the correctness gate).
    pub sim_qps: f64,
    /// Seconds at reference speed of each timed executor batch,
    /// `[chunk][rep]`.
    pub chunk_walls: Vec<Vec<f64>>,
    /// Raw whole-suite wall seconds of each rep.
    pub raw_walls: Vec<f64>,
}

impl EngineState {
    /// Queries per timed executor batch: the suite runs as about
    /// `CHUNKS` consecutive batches.
    fn chunk_len(&self) -> usize {
        self.queries.len().div_ceil(CHUNKS).max(1)
    }

    /// Whole-suite wall seconds of each rep.
    pub fn rep_walls(&self) -> Vec<f64> {
        let reps = self.chunk_walls.first().map_or(0, Vec::len);
        (0..reps)
            .map(|r| self.chunk_walls.iter().map(|c| c[r]).sum())
            .collect()
    }

    /// Whole-suite wall seconds with each chunk at its median over reps.
    /// A neighbour's burst on this shared box slows a few chunks of a
    /// few reps; taking the median chunk by chunk drops those, where the
    /// median of whole-suite walls would keep whatever hit each rep.
    pub fn wall(&self) -> f64 {
        self.chunk_walls.iter().map(|c| median(c)).sum()
    }

    /// Host queries per second: value from [`EngineState::wall`],
    /// quartiles and count from the per-rep walls.
    pub fn host_qps(&self) -> Summary {
        let n = self.queries.len() as f64;
        let per_rep: Vec<f64> = self.rep_walls().iter().map(|w| n / w).collect();
        Summary {
            median: n / self.wall(),
            ..summarize(&per_rep)
        }
    }
}

/// Everything the untraced phases produced, for the traced phase to reuse.
#[derive(Debug)]
pub struct Measured {
    pub env: Env,
    pub engines: Vec<EngineState>,
    /// BOSS's baseline on the latency probe suite.
    pub probe: Exact,
    /// BOSS per-query latencies of each rep, microseconds.
    boss_lat_us: Vec<Vec<f64>>,
    /// Seconds of each bare BOSS `fork().search` loop.
    pub boss_bare_walls: Vec<f64>,
    /// Raw wall seconds of each rep, all engines.
    pub rep_walls: Vec<f64>,
}

/// Warm-up + correctness gate: every engine runs the whole suite once,
/// untimed. Every engine x query returns `Ok`; BOSS, IIU and Lucene hits
/// (doc id + score bits) agree per query; a fixed subsample matches the
/// reference evaluator. Also yields the exact baseline later reps must
/// reproduce and the simulated throughputs. Returns the engines and the
/// oracle's us/query.
fn gate(
    env: &Env,
    w: &Workload,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(Vec<EngineState>, Exact, f64), String> {
    let suite = env.exprs(1);
    let mut engines = Vec::new();
    let mut boss_hits: Vec<Vec<SearchHit>> = Vec::new();
    let mut boss_hashes = Vec::new();
    for kind in Engine::ALL {
        let (batch, clock_ghz, lanes) = with_engine!(env, w, kind, |e| {
            (exec_pass(&e, &suite, w.k, 1)?, e.clock_ghz(), e.lanes())
        });
        report.attempted += suite.len() as u64;
        let full = Exact::of(&batch);
        if kind == Engine::Boss {
            boss_hashes.clone_from(&full.hashes);
        }
        let bad = full
            .hashes
            .iter()
            .zip(&boss_hashes)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if bad > 0 {
            let which = kind.label();
            report.fail(bad, format!("{bad} queries: {which} hits differ from boss"));
        }
        let stride = kind.stride(w);
        engines.push(EngineState {
            kind,
            queries: env.exprs(stride),
            exact: if stride == 1 {
                full
            } else {
                Exact::of_every(&batch, stride)
            },
            clock_ghz,
            lanes,
            sim_qps: batch.throughput_qps(clock_ghz),
            chunk_walls: Vec::new(),
            raw_walls: Vec::new(),
        });
        if kind == Engine::Boss {
            boss_hits = batch.outcomes.into_iter().map(|o| o.hits).collect();
        }
    }
    report.set_value(
        "sim_speedup_vs_iiu",
        engines[0].sim_qps / engines[1].sim_qps,
    );
    report.set_value(
        "sim_speedup_vs_lucene",
        engines[0].sim_qps / engines[2].sim_qps,
    );

    let mut checked = 0u64;
    let mut oracle_s = 0.0;
    for i in (0..env.suite.len()).step_by(ORACLE_STRIDE) {
        let expr = &env.suite[i].expr;
        let (want, _, cal) = calib.time(|| boss_index::reference::evaluate(&env.index, expr, w.k));
        let want = want.map_err(|e| format!("reference evaluator failed: {e}"))?;
        oracle_s += cal;
        checked += 1;
        if hash_hits(&want) != hash_hits(&boss_hits[i]) {
            report.fail(
                1,
                format!("query {i}: boss hits differ from the reference evaluator"),
            );
        }
    }
    report.attempted += checked;
    let oracle_us = oracle_s * 1e6 / checked.max(1) as f64;

    let probe = Exact::of(&exec_pass(&env.boss(w.algorithm, w.k), &env.probe, w.k, 1)?);
    report.attempted += probe.hashes.len() as u64;
    Ok((engines, probe, oracle_us))
}

/// One rep: each engine's suite as timed executor batches (engine order
/// rotated by `rep`) plus BOSS's per-query latency loop, every outcome
/// checked against the baseline.
fn rep(
    m: &mut Measured,
    w: &Workload,
    rep: usize,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(), String> {
    let env = &m.env;
    for i in 0..3 {
        let s = &mut m.engines[(i + rep) % 3];
        let chunk_len = s.chunk_len();
        if s.chunk_walls.is_empty() {
            s.chunk_walls = vec![Vec::new(); s.queries.len().div_ceil(chunk_len)];
        }
        let mut eval = boss_engine::EvalCounts::default();
        let mut mem = boss_engine::MemStats::new();
        let mut bad = 0u64;
        let mut raw_wall = 0.0;
        with_engine!(env, w, s.kind, |e| {
            for (c, chunk) in s.queries.chunks(chunk_len).enumerate() {
                let (batch, raw, cal) = calib.time(|| exec_pass(&e, chunk, w.k, 1));
                let batch = batch?;
                s.chunk_walls[c].push(cal);
                raw_wall += raw;
                for (j, o) in batch.outcomes.iter().enumerate() {
                    let q = c * chunk_len + j;
                    let same =
                        hash_hits(&o.hits) == s.exact.hashes[q] && o.cycles == s.exact.cycles[q];
                    bad += u64::from(!same);
                }
                eval.merge(&batch.eval);
                mem.merge(&batch.mem);
            }
            if s.kind == Engine::Boss {
                let (lat_us, bare) = latency_pass(&e, &env.probe, w.k, &m.probe, chunk_len, calib)?;
                m.boss_lat_us.push(lat_us);
                m.boss_bare_walls.push(bare);
                report.attempted += env.probe.len() as u64;
            }
        });
        s.raw_walls.push(raw_wall);
        report.attempted += s.queries.len() as u64;
        if bad > 0 || eval != s.exact.eval || mem != s.exact.mem {
            let which = s.kind.label();
            report.fail(
                bad.max(1),
                format!("rep {rep}: {which} hits or exact counters changed"),
            );
        }
    }
    Ok(())
}

/// One serving posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Posture {
    Fifo,
    ShedDegrade,
}

/// The measured service table plus what the serving sweeps scale by.
#[derive(Debug)]
pub struct Serving {
    pub table: ServiceTable,
    pub servers: usize,
    pub clock_ghz: f64,
    pub measure_s: f64,
    seed: u64,
}

/// One simulated serving scenario's outcome.
#[derive(Debug)]
pub struct Scenario {
    pub run: ServingRun,
    pub n: usize,
    /// Rejected, expired, shed and served-past-the-limit queries.
    pub missed: usize,
    pub p99_us: f64,
    pub simulate_s: f64,
}

impl Scenario {
    pub fn missed_frac(&self) -> f64 {
        self.missed as f64 / self.n.max(1) as f64
    }

    /// Meets the limit (at most 1 % of arrivals miss it) with no growing
    /// backlog (nothing was refused at the queue bound).
    pub fn ok(&self) -> bool {
        self.missed * 100 <= self.n && self.run.rejected == 0
    }
}

impl Serving {
    /// Assembles the service table the simulator replays, from cycles
    /// measured through the executor on the probe suite: BOSS's own
    /// per-query cycles for the normal level, and for the sharded workload two more passes for the
    /// degrade levels (BlockMaxMaxScore at k, and at k/4 for brownout).
    /// The table holds the suite several times over, each copy in its own
    /// seeded shuffle, because an overload that lasts only a few hundred
    /// arrivals never fills the admission queue. (`ServiceTable::measure`
    /// would run the same passes but cannot be replicated afterwards.)
    pub fn measure(
        m: &Measured,
        w: &Workload,
        seed: u64,
        calib: &mut Calib,
    ) -> Result<Self, String> {
        let (env, boss) = (&m.env, &m.engines[0]);
        let n = env.probe.len();
        let mut levels = vec![m.probe.cycles.clone()];
        let mut measure_s = 0.0;
        if env.sharded.is_some() {
            let pruned = env.boss(QueryAlgorithm::BlockMaxMaxScore, w.k);
            for k in [w.k, (w.k / 4).max(1)] {
                let (batch, _, cal) = calib.time(|| exec_pass(&pruned, &env.probe, k, 1));
                levels.push(batch?.outcomes.iter().map(|o| o.cycles).collect());
                measure_s += cal;
            }
        }
        let mut rng = SplitMix(mix_seed(seed, 2));
        let mut order = Vec::with_capacity(SERVE_ARRIVALS + n);
        while order.len() < SERVE_ARRIVALS {
            let mut copy: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut copy);
            order.extend(copy);
        }
        let mut tables = levels
            .iter()
            .map(|cycles| order.iter().map(|&i| cycles[i]).collect());
        let table = ServiceTable::from_cycles(
            tables.next().unwrap_or_default(),
            tables.next(),
            tables.next(),
        );
        Ok(Serving {
            table,
            servers: boss.lanes,
            clock_ghz: boss.clock_ghz,
            measure_s,
            seed: mix_seed(seed, 3),
        })
    }

    /// Replays a seeded arrival trace at `load` x capacity in simulated time.
    pub fn scenario(&self, kind: ArrivalKind, posture: Posture, load: f64) -> Scenario {
        let mean = self.table.mean_normal_cycles().max(1.0);
        let limit = (DEADLINE_X * mean).round() as u64;
        let interarrival = mean / (self.servers.max(1) as f64 * load);
        let trace = arrivals::generate(kind, self.table.len(), interarrival, self.seed);
        let config = match posture {
            Posture::Fifo => ServingConfig::fifo(self.servers, QUEUE_BOUND),
            Posture::ShedDegrade => ServingConfig {
                servers: self.servers,
                queue_bound: QUEUE_BOUND,
                deadline_cycles: Some(limit),
                policy: ServePolicy::EdfShed,
                overload: Some(OverloadConfig::default()),
            },
        };
        let t = Instant::now();
        let run = simulate(&config, &trace, &self.table);
        let simulate_s = t.elapsed().as_secs_f64();
        let mut sojourns: Vec<f64> = (run.records.iter())
            .filter_map(|r| match r.disposition {
                boss_engine::Disposition::Served { finish, .. } => {
                    Some((finish - r.arrival) as f64)
                }
                _ => None,
            })
            .collect();
        sojourns.sort_by(f64::total_cmp);
        let on_time = sojourns.partition_point(|&s| s <= limit as f64);
        Scenario {
            p99_us: smoothed_p99(&sojourns) / (self.clock_ghz * 1e3),
            n: run.records.len(),
            missed: run.records.len() - on_time,
            run,
            simulate_s,
        }
    }
}

/// p99 of an ascending-sorted sample as the mean of its order statistics
/// between p98.5 and p99.5. The replayed table holds each probe query
/// several times, so with little queueing the plain 99th order statistic
/// sits on a plateau of identical service times and reads the same for
/// most seeds; the band average moves with every arrival trace.
fn smoothed_p99(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let (lo, hi) = (
        n * 985 / 1000,
        (n * 995 / 1000).max(n * 985 / 1000 + 1).min(n),
    );
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Runs the untraced phases and fills the end-to-end metrics.
pub fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    calib: &mut Calib,
    report: &mut Report,
) -> Result<(Measured, Serving, f64), String> {
    // Set-up, several times over: the median is `setup_s`. A traced run
    // reports no end-to-end metric, so it sets up once. One index is
    // alive at a time, so `peak_rss_mb` is the workload's, not ours.
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut set_up = |calib: &mut Calib| -> Result<Env, String> {
        let env = setup(w, seed, out_dir, calib)?;
        setups.push(env.times.total_s);
        builds.push(f64::from(env.index.n_docs()) / env.times.build_s);
        Ok(env)
    };
    let mut env = set_up(calib)?;
    for _ in 1..if trace { 1 } else { SETUPS } {
        drop(env);
        env = set_up(calib)?;
    }
    report.set_value(
        "index_bytes_per_posting",
        (env.index.total_data_bytes() + env.index.total_meta_bytes()) as f64 / env.postings as f64,
    );

    let (engines, probe, oracle_us) = gate(&env, w, calib, report)?;
    let mut m = Measured {
        env,
        engines,
        probe,
        boss_lat_us: Vec::new(),
        boss_bare_walls: Vec::new(),
        rep_walls: Vec::new(),
    };

    // Timed closed-loop reps. A traced run spends half its window here
    // (the traced pass gets the rest) but never fewer than MIN_REPS.
    let window = if trace { seconds / 2.0 } else { seconds };
    let t0 = Instant::now();
    let mut r = 0;
    while r < MIN_REPS || t0.elapsed().as_secs_f64() < window {
        if m.env.ingest.is_some() {
            // Ingest is this workload's operation, so every rep ingests
            // and opens afresh before querying the opened index.
            m.env = set_up(calib)?;
        }
        let t = Instant::now();
        rep(&mut m, w, r, calib, report)?;
        m.rep_walls.push(t.elapsed().as_secs_f64());
        r += 1;
    }

    report.set_samples("setup_s", &setups);
    report.set_samples("build_docs_per_s", &builds);
    for s in &m.engines {
        report.set(&format!("{}_host_qps", s.kind.label()), s.host_qps());
        println!(
            "# {} raw host qps per rep: {}",
            s.kind.label(),
            (s.raw_walls.iter())
                .map(|wall| format!("{:.1}", s.queries.len() as f64 / wall))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    report.set_value("boss_sim_qps", m.engines[0].sim_qps);
    // Percentiles per rep, then the median over reps (one disturbed rep
    // cannot move the tail); the sample count is the pooled one.
    let n: usize = m.boss_lat_us.iter().map(Vec::len).sum();
    for lat in &mut m.boss_lat_us {
        lat.sort_by(f64::total_cmp);
    }
    for (name, p) in [("boss_host_p50_us", 0.5), ("boss_host_p99_us", 0.99)] {
        let per_rep: Vec<f64> = m
            .boss_lat_us
            .iter()
            .map(|lat| quantile_sorted(lat, p))
            .collect();
        report.set(
            name,
            Summary {
                n,
                ..summarize(&per_rep)
            },
        );
    }
    let pooled: Vec<f64> = m.boss_lat_us.concat();
    let (tail, _) = tail_percentile(&pooled);
    println!("# boss per-search latency: {n} samples pooled over {r} reps support up to p{tail}");
    if tail < 99.0 {
        report.fail(
            0,
            format!("{n} latency samples leave fewer than ten beyond p99"),
        );
    }

    let serving = Serving::measure(&m, w, seed, calib)?;
    let headline = serving.scenario(ArrivalKind::Poisson, Posture::ShedDegrade, 0.8);
    report.set_value("serve_sim_p99_us", headline.p99_us);

    Ok((m, serving, oracle_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_hash_sees_docs_scores_and_order() {
        let a = SearchHit { doc: 1, score: 2.0 };
        let b = SearchHit { doc: 2, score: 1.0 };
        assert_eq!(hash_hits(&[a, b]), hash_hits(&[a, b]));
        assert_ne!(hash_hits(&[a, b]), hash_hits(&[b, a]));
        assert_ne!(
            hash_hits(&[a]),
            hash_hits(&[SearchHit { doc: 1, score: 2.5 }])
        );
        assert_ne!(hash_hits(&[]), hash_hits(&[a]));
    }

    #[test]
    fn smoothed_p99_averages_the_band_around_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // Ranks 985..995 of 0..1000 average to 989.5.
        assert_eq!(smoothed_p99(&v), 989.5);
        assert_eq!(smoothed_p99(&[4.0]), 4.0);
        assert_eq!(smoothed_p99(&[]), 0.0);
    }

    #[test]
    fn serving_scenarios_count_misses_and_repeat() {
        let serving = Serving {
            table: ServiceTable::from_cycles(vec![1_000; 400], None, None),
            servers: 2,
            clock_ghz: 1.0,
            measure_s: 0.0,
            seed: 11,
        };
        let calm = serving.scenario(ArrivalKind::Poisson, Posture::ShedDegrade, 0.5);
        assert_eq!(calm.n, 400);
        assert!(calm.ok(), "{} missed", calm.missed);
        assert!(calm.p99_us >= 1.0);
        let again = serving.scenario(ArrivalKind::Poisson, Posture::ShedDegrade, 0.5);
        assert_eq!(calm.run.records, again.run.records);
        // Far past capacity FIFO builds a backlog that blows the limit.
        let swamped = serving.scenario(ArrivalKind::Bursty, Posture::Fifo, 4.0);
        assert!(!swamped.ok());
        assert!(swamped.missed_frac() > 0.01);
    }
}
