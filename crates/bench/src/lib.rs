//! Shared harness behind the `figure` binary.
//!
//! [`figures::REGISTRY`] maps a name to the function regenerating one
//! table or figure of the BOSS paper (see `DESIGN.md` for the index);
//! `figure <name>` runs one entry. The entries share:
//!
//! * [`BenchArgs`] — a tiny `--scale smoke|small|full`, `--seed`,
//!   `--queries-per-type`, `--k`, `--threads`, `--engines` argument
//!   parser;
//! * [`figures::FigureCtx`] — the parsed arguments, the output sink, and
//!   the corpora / query suites, each built at most once;
//! * [`run_system`] — the one generic batch driver: any
//!   [`SearchEngine`] through the deterministic [`BatchExecutor`] into a
//!   uniform [`SystemRun`] row (results are bit-identical at every
//!   `--threads` value);
//! * TSV emission helpers (commentary lines start with `#`).

pub mod corruption;
pub mod figures;

use boss_core::{
    BossConfig, DegradePolicy, EngineSetup, EtMode, EvalCounts, QueryAlgorithm, QueryOutcome,
};
use boss_engine::{
    BatchExecutor, Boss, Iiu, Lucene, OverloadConfig, SearchEngine, ServePolicy, ServingConfig,
};
use boss_iiu::IiuConfig;
use boss_index::{InvertedIndex, QueryExpr};
use boss_luceneish::LuceneConfig;
use boss_scm::{MemStats, MemoryConfig};
use boss_workload::arrivals::{self, ArrivalKind};
use boss_workload::corpus::Scale;
use boss_workload::queries::{QuerySampler, QueryType, ALL_QUERY_TYPES};
use std::io::{self, Write};

/// Which of the three systems a figure should simulate (`--engines`).
///
/// Normalization baselines still run when deselected — the paper's
/// figures normalize to Lucene, so its throughput is needed even when
/// its rows are not printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSelection {
    /// Simulate BOSS.
    pub boss: bool,
    /// Simulate the IIU baseline.
    pub iiu: bool,
    /// Simulate the Lucene-like baseline.
    pub lucene: bool,
}

impl Default for EngineSelection {
    fn default() -> Self {
        EngineSelection {
            boss: true,
            iiu: true,
            lucene: true,
        }
    }
}

impl std::str::FromStr for EngineSelection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut sel = EngineSelection {
            boss: false,
            iiu: false,
            lucene: false,
        };
        for name in s.split(',').filter(|n| !n.is_empty()) {
            match name.trim() {
                "boss" => sel.boss = true,
                "iiu" => sel.iiu = true,
                "lucene" => sel.lucene = true,
                other => {
                    return Err(format!(
                        "unknown engine {other:?}: expected a comma-separated subset of boss,iiu,lucene"
                    ))
                }
            }
        }
        if sel
            == (EngineSelection {
                boss: false,
                iiu: false,
                lucene: false,
            })
        {
            return Err("--engines selects no engine".into());
        }
        Ok(sel)
    }
}

/// Common command-line arguments of the `figure` binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Corpus scale.
    pub scale: Scale,
    /// Sampler seed.
    pub seed: u64,
    /// Queries sampled per Table II type.
    pub queries_per_type: usize,
    /// Results per query.
    pub k: usize,
    /// OS threads the batch executor shards queries across.
    pub threads: usize,
    /// Systems to simulate.
    pub engines: EngineSelection,
    /// The engine knobs (`--fault-plan`, `--fault-rate`, `--degrade`,
    /// `--algorithm`, `--serve*`): the flag parser writes straight into
    /// the [`EngineTuning`] the engine helpers take, so each knob is
    /// declared once.
    pub tuning: EngineTuning,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: Scale::Small,
            seed: 42,
            queries_per_type: 10,
            k: 1000,
            threads: default_threads(),
            engines: EngineSelection::default(),
            tuning: EngineTuning::default(),
        }
    }
}

/// Available hardware parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl BenchArgs {
    /// Parses command-line flags (the program name and any positional
    /// argument already consumed); invalid values and unknown flags
    /// print a diagnostic and exit with status 2.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Self {
        let mut args = BenchArgs::default();
        let tuning = &mut args.tuning;
        while let Some(flag) = it.next() {
            let mut take = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => {
                    args.scale = take("--scale").parse().unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                }
                "--seed" => args.seed = parsed_value(&take("--seed"), "--seed"),
                "--queries-per-type" => {
                    args.queries_per_type =
                        parsed_value(&take("--queries-per-type"), "--queries-per-type");
                }
                "--k" => args.k = parsed_value(&take("--k"), "--k"),
                "--threads" => {
                    args.threads = parsed_value::<usize>(&take("--threads"), "--threads").max(1);
                }
                "--engines" => args.engines = parsed_value(&take("--engines"), "--engines"),
                "--fault-plan" => {
                    tuning.fault_seed = Some(parsed_value(&take("--fault-plan"), "--fault-plan"));
                }
                "--fault-rate" => {
                    tuning.fault_rate = parsed_value(&take("--fault-rate"), "--fault-rate");
                }
                "--algorithm" => {
                    tuning.algorithm = parsed_value(&take("--algorithm"), "--algorithm");
                }
                "--serve" => {
                    tuning.serving.get_or_insert_with(ServingSpec::default);
                }
                "--serve-load" => {
                    tuning.serving.get_or_insert_with(ServingSpec::default).load =
                        parsed_value(&take("--serve-load"), "--serve-load");
                }
                "--serve-queue" => {
                    tuning
                        .serving
                        .get_or_insert_with(ServingSpec::default)
                        .queue =
                        parsed_value::<usize>(&take("--serve-queue"), "--serve-queue").max(1);
                }
                "--serve-deadline-x" => {
                    tuning
                        .serving
                        .get_or_insert_with(ServingSpec::default)
                        .deadline_x =
                        parsed_value(&take("--serve-deadline-x"), "--serve-deadline-x");
                }
                "--serve-policy" => {
                    tuning
                        .serving
                        .get_or_insert_with(ServingSpec::default)
                        .policy = parsed_value(&take("--serve-policy"), "--serve-policy");
                }
                "--serve-arrivals" => {
                    tuning
                        .serving
                        .get_or_insert_with(ServingSpec::default)
                        .arrivals = parsed_value(&take("--serve-arrivals"), "--serve-arrivals");
                }
                "--serve-degrade" => {
                    tuning
                        .serving
                        .get_or_insert_with(ServingSpec::default)
                        .degrade = true;
                }
                "--degrade" => match take("--degrade").as_str() {
                    "fail" => tuning.degrade_skip = false,
                    "skip" => tuning.degrade_skip = true,
                    other => {
                        eprintln!("unknown degrade policy {other:?}: expected fail or skip");
                        std::process::exit(2);
                    }
                },
                "--help" | "-h" => {
                    println!(
                        "usage: [--scale smoke|small|full] [--seed N] [--queries-per-type N] \
                         [--k N] [--threads N] [--engines boss,iiu,lucene] \
                         [--fault-plan SEED] [--fault-rate F] [--degrade fail|skip] \
                         [--algorithm exhaustive|maxscore|wand|bmw|bmm] \
                         [--serve] [--serve-load F] [--serve-queue N] [--serve-deadline-x F] \
                         [--serve-policy fifo|sjf|edf|shed] [--serve-arrivals poisson|bursty] \
                         [--serve-degrade]"
                    );
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

    /// Writes the `# threads` line of the TSV preamble. Thread count is
    /// the only run parameter that must NOT change any data row (the
    /// executor is deterministic), so it lives in a comment the diff
    /// tooling can strip.
    ///
    /// # Errors
    ///
    /// The sink's write failure.
    pub(crate) fn write_threads_comment(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "# threads {}", self.threads)?;
        if self.tuning.algorithm != QueryAlgorithm::Exhaustive {
            writeln!(out, "# algorithm {}", self.tuning.algorithm)?;
        }
        Ok(())
    }
}

/// Parses a flag value, exiting with a diagnostic on bad input.
fn parsed_value<T: std::str::FromStr>(raw: &str, flag: &str) -> T
where
    T::Err: std::fmt::Display,
{
    raw.parse().unwrap_or_else(|e| {
        eprintln!("invalid value {raw:?} for {flag}: {e}");
        std::process::exit(2);
    })
}

/// A query suite grouped by Table II type.
#[derive(Debug)]
pub struct TypedSuite {
    /// `(type, queries)` in Table II order.
    pub per_type: Vec<(QueryType, Vec<QueryExpr>)>,
}

impl TypedSuite {
    /// Samples `per_type` queries of each type from `index`.
    ///
    /// # Panics
    ///
    /// Panics if the corpus vocabulary is too small to sample from; the
    /// benchmark corpora are generated large enough by construction.
    pub fn sample(index: &InvertedIndex, per_type: usize, seed: u64) -> Self {
        let mut sampler =
            QuerySampler::new(index, seed).expect("benchmark corpus has a vocabulary");
        let mut out = Vec::new();
        for qt in ALL_QUERY_TYPES {
            let qs = (0..per_type)
                .map(|_| sampler.sample(qt).expect("benchmark corpus samples").expr)
                .collect();
            out.push((qt, qs));
        }
        TypedSuite { per_type: out }
    }

    /// Every query of the suite, in Table II type order.
    pub fn all(&self) -> Vec<QueryExpr> {
        self.per_type
            .iter()
            .flat_map(|(_, qs)| qs.iter().cloned())
            .collect()
    }
}

/// Uniform result of one engine over one query set.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Engine label.
    pub system: String,
    /// Wall-clock seconds of the batch (makespan).
    pub seconds: f64,
    /// Queries per second.
    pub qps: f64,
    /// Achieved memory bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Merged traffic.
    pub mem: MemStats,
    /// Merged evaluation counters.
    pub eval: EvalCounts,
    /// Per-query outcomes.
    pub outcomes: Vec<QueryOutcome>,
}

/// Runs any [`SearchEngine`] over a query set through the deterministic
/// [`BatchExecutor`] — the one batch driver every figure shares. The
/// `threads` value changes wall-clock time only; every [`SystemRun`]
/// field is bit-identical across thread counts.
///
/// # Panics
///
/// Panics if a query fails to plan (the samplers only produce plannable
/// shapes) or if an installed fault plan fails a query under the
/// `FailQuery` degradation policy — pass `--degrade skip` when running
/// figures against a faulty device.
pub fn run_system<E: SearchEngine + Send>(
    engine: &E,
    queries: &[QueryExpr],
    k: usize,
    threads: usize,
) -> SystemRun {
    let batch = BatchExecutor::with_threads(threads)
        .run(engine, queries, k)
        .expect("sampled queries plan and decode (use --degrade skip on a faulty device)");
    let clock = engine.clock_ghz();
    SystemRun {
        system: engine.label(),
        seconds: batch.seconds(clock),
        qps: batch.throughput_qps(clock),
        bandwidth_gbps: engine.bandwidth_gbps(&batch.mem, batch.makespan_cycles),
        mem: batch.mem,
        eval: batch.eval,
        outcomes: batch.outcomes,
    }
}

/// Open-loop serving scenario: which arrival process hits the engine,
/// how hard, and what the admission/deadline/degradation posture is.
/// The CLI builds one from the `--serve-*` flags; the [`ServingConfig`]
/// it compiles to is relative to the engine's measured mean service time
/// and lane count, so one spec describes the same *relative* load on any
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSpec {
    /// Arrival process shape.
    pub arrivals: ArrivalKind,
    /// Offered load as a fraction of pool capacity (arrival rate ×
    /// mean normal service time ÷ servers); 1.0 is saturation.
    pub load: f64,
    /// Admission queue bound.
    pub queue: usize,
    /// Per-query deadline as a multiple of the mean normal service
    /// time; 0 disables deadlines.
    pub deadline_x: f64,
    /// Dequeue policy.
    pub policy: ServePolicy,
    /// Overload controller (degrade-under-pressure) on or off.
    pub degrade: bool,
}

impl Default for ServingSpec {
    fn default() -> Self {
        ServingSpec {
            arrivals: ArrivalKind::Poisson,
            load: 0.8,
            queue: 64,
            deadline_x: 20.0,
            policy: ServePolicy::Edf,
            degrade: false,
        }
    }
}

impl ServingSpec {
    /// Mean inter-arrival time in cycles that offers `self.load` to a
    /// pool of `servers` lanes with the given mean service time.
    pub fn mean_interarrival(&self, mean_svc_cycles: f64, servers: usize) -> f64 {
        mean_svc_cycles.max(1.0) / (servers.max(1) as f64 * self.load.max(1e-3))
    }

    /// Absolute deadline budget in cycles, `None` when disabled.
    pub fn deadline_cycles(&self, mean_svc_cycles: f64) -> Option<u64> {
        (self.deadline_x > 0.0).then(|| (self.deadline_x * mean_svc_cycles.max(1.0)).round() as u64)
    }

    /// Compiles the spec against a measured engine: `servers` lanes and
    /// the table's mean normal service time.
    pub fn config(&self, servers: usize, mean_svc_cycles: f64) -> ServingConfig {
        ServingConfig {
            servers: servers.max(1),
            queue_bound: self.queue.max(1),
            deadline_cycles: self.deadline_cycles(mean_svc_cycles),
            policy: self.policy,
            overload: self.degrade.then(OverloadConfig::default),
        }
    }

    /// The deterministic arrival trace this spec offers to a pool of
    /// `servers` lanes: `n` arrivals at the spec's load and shape.
    pub fn arrival_trace(
        &self,
        n: usize,
        mean_svc_cycles: f64,
        servers: usize,
        seed: u64,
    ) -> Vec<u64> {
        arrivals::generate(
            self.arrivals,
            n,
            self.mean_interarrival(mean_svc_cycles, servers),
            seed,
        )
    }
}

/// One serving simulation over an engine: measures the per-query
/// [`boss_engine::ServiceTable`] (on `pruned` too when the spec enables
/// degradation), generates the spec's arrival trace, and replays it.
/// Returns the run plus the measured mean normal service time in cycles
/// (the capacity anchor the spec's load and deadline were scaled by).
/// Deterministic: bit-identical at every `threads` value.
///
/// # Errors
///
/// The first query that fails to plan or decode on either engine.
pub(crate) fn run_serving<E: SearchEngine + Send>(
    engine: &E,
    pruned: Option<&E>,
    queries: &[QueryExpr],
    k: usize,
    spec: &ServingSpec,
    seed: u64,
    threads: usize,
) -> Result<(boss_engine::ServingRun, f64), boss_engine::Error> {
    let degraded = if spec.degrade { pruned } else { None };
    let brownout_k = (k / 4).max(1);
    let table =
        boss_engine::ServiceTable::measure(engine, degraded, queries, k, brownout_k, threads)?;
    let mean_svc = table.mean_normal_cycles();
    let servers = engine.lanes();
    let arrivals = spec.arrival_trace(queries.len(), mean_svc, servers, seed);
    let config = spec.config(servers, mean_svc);
    Ok((boss_engine::simulate(&config, &arrivals, &table), mean_svc))
}

/// Engine knobs shared by the figures: the dynamic-pruning
/// plan, the serving scenario, and (BOSS-only) the
/// SCM fault plan and degradation policy. [`BenchArgs::parse`] fills one
/// in from the CLI; the default is the paper's fault-free exhaustive run.
#[derive(Debug, Clone)]
pub struct EngineTuning {
    /// Seed of an SCM [`boss_scm::FaultPlan`] installed on the BOSS
    /// device (`--fault-plan SEED`); `None` runs fault-free. With the
    /// default zero fault rate the plan is quiet, and the invariance
    /// contract requires byte-identical output to a fault-free run.
    pub fault_seed: Option<u64>,
    /// Uncorrectable-line error rate of the installed plan
    /// (`--fault-rate F`); only meaningful with `--fault-plan`.
    pub fault_rate: f64,
    /// `SkipBlock` instead of the default `FailQuery` degradation for
    /// faulted/corrupt blocks (`--degrade fail|skip`).
    pub degrade_skip: bool,
    /// Dynamic-pruning query plan (`--algorithm exhaustive|maxscore|
    /// wand|bmw|bmm`) installed on every engine the helpers build. Safe
    /// pruning: hits stay bit-identical to the default exhaustive
    /// traversal at every thread count; only the work/timing columns
    /// move.
    pub algorithm: QueryAlgorithm,
    /// Open-loop serving scenario (`--serve` and the `--serve-*`
    /// knobs); `None` keeps the closed-batch figure path untouched.
    /// Serving counters are reported only in `#` comment lines, so the
    /// data-row invariance contract is unaffected.
    pub serving: Option<ServingSpec>,
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning {
            fault_seed: None,
            fault_rate: 0.0,
            degrade_skip: false,
            algorithm: QueryAlgorithm::Exhaustive,
            serving: None,
        }
    }
}

impl EngineTuning {
    /// The same tuning with `algorithm` replaced.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// The fault plan these knobs describe, if any.
    pub fn fault_plan(&self) -> Option<boss_scm::FaultPlan> {
        self.fault_seed
            .map(|seed| boss_scm::FaultPlan::quiet(seed).with_uncorrectable_rate(self.fault_rate))
    }

    /// The degradation policy these knobs describe.
    pub fn degrade(&self) -> DegradePolicy {
        if self.degrade_skip {
            DegradePolicy::SkipBlock
        } else {
            DegradePolicy::FailQuery
        }
    }
}

/// What the three engine helpers vary: `lanes` over `memory`, under the
/// tuning's algorithm.
fn setup(lanes: u32, memory: MemoryConfig, tuning: &EngineTuning) -> EngineSetup {
    EngineSetup {
        lanes,
        memory,
        algorithm: tuning.algorithm,
    }
}

/// A BOSS engine in the paper's evaluation configuration, with the
/// tuning's fault plan and degradation policy installed.
pub fn boss_engine<'a>(
    index: &'a InvertedIndex,
    cores: u32,
    et: EtMode,
    memory: MemoryConfig,
    k: usize,
    tuning: &EngineTuning,
) -> Boss<'a> {
    let config = BossConfig {
        setup: setup(cores, memory, tuning),
        k,
        et_mode: et,
        fault_plan: tuning.fault_plan(),
        degrade: tuning.degrade(),
        ..BossConfig::default()
    };
    Boss::new(index, config)
}

/// An IIU engine in the paper's evaluation configuration. Fault-plan
/// tuning fields are BOSS-only (the fault model lives in the BOSS
/// device's memory controller) and are ignored here.
pub fn iiu_engine<'a>(
    index: &'a InvertedIndex,
    cores: u32,
    memory: MemoryConfig,
    tuning: &EngineTuning,
) -> Iiu<'a> {
    let setup = setup(cores, memory, tuning);
    Iiu::new(index, IiuConfig { setup })
}

/// A Lucene-like engine in the paper's evaluation configuration.
/// Fault-plan tuning fields are BOSS-only and are ignored here.
pub fn lucene_engine<'a>(
    index: &'a InvertedIndex,
    threads: u32,
    memory: MemoryConfig,
    tuning: &EngineTuning,
) -> Lucene<'a> {
    let setup = setup(threads, memory, tuning);
    Lucene::new(index, LuceneConfig { setup })
}

/// Writes a TSV header row.
///
/// # Errors
///
/// The sink's write failure.
pub fn header(out: &mut dyn Write, cols: &[&str]) -> io::Result<()> {
    writeln!(out, "{}", cols.join("\t"))
}

/// Writes a TSV data row.
///
/// # Errors
///
/// The sink's write failure.
pub fn row(out: &mut dyn Write, cells: &[String]) -> io::Result<()> {
    writeln!(out, "{}", cells.join("\t"))
}

/// Formats a float tersely.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Geometric mean of positive values (0.0 for empty input).
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use boss_workload::corpus::CorpusSpec;

    #[test]
    fn suite_and_engines_agree_functionally() {
        let index = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
        let suite = TypedSuite::sample(&index, 2, 5);
        assert_eq!(suite.per_type.len(), 6);
        for (qt, qs) in &suite.per_type {
            assert_eq!(qs.len(), 2, "{qt:?}");
            let tuning = EngineTuning::default();
            let boss = run_system(
                &boss_engine(
                    &index,
                    2,
                    EtMode::Full,
                    MemoryConfig::optane_dcpmm(),
                    50,
                    &tuning,
                ),
                qs,
                50,
                2,
            );
            let iiu = run_system(
                &iiu_engine(&index, 2, MemoryConfig::optane_dcpmm(), &tuning),
                qs,
                50,
                2,
            );
            let luc = run_system(
                &lucene_engine(&index, 2, MemoryConfig::host_scm_6ch(), &tuning),
                qs,
                50,
                2,
            );
            for i in 0..qs.len() {
                assert_eq!(boss.outcomes[i].hits, iiu.outcomes[i].hits, "{qt:?} q{i}");
                assert_eq!(boss.outcomes[i].hits, luc.outcomes[i].hits, "{qt:?} q{i}");
            }
            assert!(boss.qps > 0.0 && iiu.qps > 0.0 && luc.qps > 0.0);
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.456), "123");
        assert_eq!(f(3.21987), "3.22");
        assert_eq!(f(0.01234), "0.0123");
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
