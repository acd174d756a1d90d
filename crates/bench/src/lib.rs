//! Shared harness behind the `figure` binary.
//!
//! [`figures::REGISTRY`] maps a name to the function regenerating one
//! table or figure of the BOSS paper (see `DESIGN.md` for the index);
//! `figure <name>` runs one entry. The entries share:
//!
//! * [`BenchArgs`] — a tiny `--scale smoke|small|full`, `--seed`,
//!   `--queries-per-type`, `--k`, `--threads`, `--engines`,
//!   `--algorithm` argument parser;
//! * [`figures::FigureCtx`] — the parsed arguments, the output sink, and
//!   the corpora / query suites, each built at most once;
//! * [`run_system`] — the one generic batch driver: any
//!   [`SearchEngine`] through the deterministic [`BatchExecutor`] into a
//!   uniform [`SystemRun`] row (results are bit-identical at every
//!   `--threads` value);
//! * TSV emission helpers (commentary lines start with `#`).

pub mod corruption;
pub mod figures;

use boss_core::{BossConfig, EngineSetup, EtMode, EvalCounts, QueryAlgorithm, QueryOutcome};
use boss_engine::{BatchExecutor, Boss, Iiu, Lucene, SearchEngine};
use boss_iiu::IiuConfig;
use boss_index::{InvertedIndex, QueryExpr};
use boss_luceneish::LuceneConfig;
use boss_scm::{MemStats, MemoryConfig};
use boss_workload::corpus::Scale;
use boss_workload::queries::{QuerySampler, QueryType, ALL_QUERY_TYPES};
use std::io::{self, Write};
use std::num::NonZeroUsize;

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
    /// Queries sampled per Table II type; the parser refuses 0.
    pub queries_per_type: usize,
    /// Results per query; the parser refuses 0.
    pub k: usize,
    /// OS threads the batch executor shards queries across.
    pub threads: usize,
    /// Systems to simulate.
    pub engines: EngineSelection,
    /// Dynamic-pruning plan (`--algorithm exhaustive|maxscore|wand|bmw|
    /// bmm`) installed on every engine the helpers build. Safe pruning:
    /// hits stay bit-identical to the default exhaustive traversal; only
    /// the work/timing columns move.
    pub algorithm: QueryAlgorithm,
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
            algorithm: QueryAlgorithm::Exhaustive,
        }
    }
}

/// Available hardware parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

impl BenchArgs {
    /// Parses command-line flags (the program name and any positional
    /// argument already consumed); invalid values and unknown flags
    /// print a diagnostic and exit with status 2.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Self {
        let mut args = BenchArgs::default();
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
                    args.queries_per_type = parsed_value::<NonZeroUsize>(
                        &take("--queries-per-type"),
                        "--queries-per-type",
                    )
                    .get();
                }
                "--k" => args.k = parsed_value::<NonZeroUsize>(&take("--k"), "--k").get(),
                "--threads" => {
                    args.threads = parsed_value::<usize>(&take("--threads"), "--threads").max(1);
                }
                "--engines" => args.engines = parsed_value(&take("--engines"), "--engines"),
                "--algorithm" => {
                    args.algorithm = parsed_value(&take("--algorithm"), "--algorithm");
                }
                "--help" | "-h" => {
                    println!(
                        "usage: [--scale smoke|small|full] [--seed N] [--queries-per-type N] \
                         [--k N] [--threads N] [--engines boss,iiu,lucene] \
                         [--algorithm exhaustive|maxscore|wand|bmw|bmm]"
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
        if self.algorithm != QueryAlgorithm::Exhaustive {
            writeln!(out, "# algorithm {}", self.algorithm)?;
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
/// Panics if a query fails to plan or decode (the samplers only produce
/// plannable shapes, and the figures' engines are fault-free).
pub fn run_system<E: SearchEngine + Send>(
    engine: &E,
    queries: &[QueryExpr],
    k: usize,
    threads: usize,
) -> SystemRun {
    let batch = BatchExecutor::with_threads(threads)
        .run(engine, queries, k)
        .expect("sampled queries plan and decode");
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

/// What the three engine helpers vary: `lanes` over `memory`, running
/// `algorithm`.
fn setup(lanes: u32, memory: MemoryConfig, algorithm: QueryAlgorithm) -> EngineSetup {
    EngineSetup {
        algorithm,
        ..EngineSetup::new(lanes, memory)
    }
}

/// A BOSS engine in the paper's evaluation configuration: fault-free,
/// running `algorithm`.
pub fn boss_engine<'a>(
    index: &'a InvertedIndex,
    cores: u32,
    et: EtMode,
    memory: MemoryConfig,
    k: usize,
    algorithm: QueryAlgorithm,
) -> Boss<'a> {
    let config = BossConfig {
        setup: setup(cores, memory, algorithm),
        k,
        et_mode: et,
        ..BossConfig::default()
    };
    Boss::new(index, config)
}

/// An IIU engine in the paper's evaluation configuration.
pub fn iiu_engine<'a>(
    index: &'a InvertedIndex,
    cores: u32,
    memory: MemoryConfig,
    algorithm: QueryAlgorithm,
) -> Iiu<'a> {
    let setup = setup(cores, memory, algorithm);
    Iiu::new(index, IiuConfig { setup })
}

/// A Lucene-like engine in the paper's evaluation configuration.
pub fn lucene_engine<'a>(
    index: &'a InvertedIndex,
    threads: u32,
    memory: MemoryConfig,
    algorithm: QueryAlgorithm,
) -> Lucene<'a> {
    let setup = setup(threads, memory, algorithm);
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
            let algorithm = QueryAlgorithm::Exhaustive;
            let boss = run_system(
                &boss_engine(
                    &index,
                    2,
                    EtMode::Full,
                    MemoryConfig::optane_dcpmm(),
                    50,
                    algorithm,
                ),
                qs,
                50,
                2,
            );
            let iiu = run_system(
                &iiu_engine(&index, 2, MemoryConfig::optane_dcpmm(), algorithm),
                qs,
                50,
                2,
            );
            let luc = run_system(
                &lucene_engine(&index, 2, MemoryConfig::host_scm_6ch(), algorithm),
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
