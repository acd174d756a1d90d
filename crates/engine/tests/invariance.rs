//! Every invariance contract of the engine layer, once: early termination
//! and pruning are safe (paper §IV-C), so no axis below may move an answer.
//! Each row runs one smoke CC-News-like corpus and three queries of each
//! Table II type, and names what its variants must reproduce of its base:
//! `Outcome` (every `QueryOutcome` whole, score bits included, plus a
//! batch's makespan and merged stats), `Work` (hits with score bits, the
//! `EvalCounts`, and each `AccessCategory`'s logical bytes and access
//! count — not cycles, nor how the device split bytes into sequential
//! and random) or `Hits` (hits with score bits only).
//!
//! | row | base | variants | must |
//! |-----|------|----------|------|
//! | `threads` | 1 thread | 2 and 4 threads, FIFO and SJF, on one device and a 4-shard coordinator | Outcome |
//! | `history` | each query on its own fork of an unused engine | the suite forward at k 5/300 on one engine, then reversed on it and on its fork | Outcome |
//! | `quiet_fault_plan` | no plan, `FailQuery` | a quiet plan × {`FailQuery`, `SkipBlock`}; no plan, `SkipBlock` | Outcome |
//! | `skip_block_plan` | an active `SkipBlock` plan at 1 thread | 2 and 4 threads; a fresh device | Outcome |
//! | `fail_query_plan` | — | an active `FailQuery` plan at 1/2/4 threads and per query | `Error::ReadFault` |
//! | `replica_failover` | a quiet 2-shard × 2-replica coordinator | shard 0 replica 0 faulted, at 1/2/4 threads and in sequence | Outcome |
//! | `pruning_leaves_intersections_alone` | the exhaustive plan on Q1/Q2/Q4 | every algorithm and ET mode | Outcome |
//! | `segments` | the in-memory build | 4 spilled SPIMI segments, opened and merged; one device and 2/4-shard coordinators | Outcome |
//! | `shards` | the exhaustive plan on one device, k 3 and 10 | 1/2/4 shards under every algorithm | Hits |
//! | `devices` | `optane_dcpmm`, k 10 and 1000 | `ddr4_2666`, `host_scm_6ch`, `host_ddr4_6ch`, `optane_dcpmm().share(2/4/8)` | Work |
//!
//! The fault and failover rows run BOSS's seven systems (the one engine
//! with a fault plan) and assert that their plans fired; every other row
//! runs all 17: each engine under all five algorithms, plus BOSS's other
//! two `EtMode`s.

use boss_core::{BossConfig, DegradePolicy, EtMode};
use boss_engine::{BatchExecutor, Boss, EngineBatch, Error, Iiu, Lucene, QueryOutcome};
use boss_engine::{SchedPolicy, SearchEngine, ShardTiming, Sharded};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{InvertedIndex, QueryAlgorithm, QueryExpr, ALL_ALGORITHMS};
use boss_luceneish::LuceneConfig;
use boss_scm::{FaultPlan, MemoryConfig, ACCESS_CATEGORIES};
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use std::sync::OnceLock;

const K: usize = 10;

/// What a row's variants must reproduce of its base.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Must {
    Outcome,
    Work,
    Hits,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Boss,
    Iiu,
    Lucene,
}

/// One engine configuration of the table; the `EtMode` is BOSS's alone.
#[derive(Debug, Clone, Copy)]
struct System(Kind, EtMode, QueryAlgorithm);

impl System {
    /// The same engine under the exhaustive plan (BOSS: exhaustive ET too).
    fn exhaustive(self) -> System {
        System(self.0, EtMode::Exhaustive, QueryAlgorithm::Exhaustive)
    }

    fn boss(self) -> BossConfig {
        let config = BossConfig::with_cores(4).with_et(self.1);
        config.with_algorithm(self.2)
    }

    fn iiu(self) -> IiuConfig {
        IiuConfig::with_cores(4).with_algorithm(self.2)
    }

    fn lucene(self) -> LuceneConfig {
        LuceneConfig::with_threads(4).with_algorithm(self.2)
    }
}

/// Each engine under all five algorithms (BOSS at its default `Full` ET),
/// plus BOSS's `Exhaustive` and `BlockOnly` ET under the exhaustive plan.
fn systems() -> Vec<System> {
    let et = [EtMode::Exhaustive, EtMode::BlockOnly];
    let et = et.map(|et| System(Kind::Boss, et, QueryAlgorithm::Exhaustive));
    let kinds = |a| [Kind::Boss, Kind::Iiu, Kind::Lucene].map(|k| System(k, EtMode::Full, a));
    let algorithms = ALL_ALGORITHMS.into_iter().flat_map(kinds);
    et.into_iter().chain(algorithms).collect()
}

/// The BOSS systems, as device configurations.
fn boss_configs() -> impl Iterator<Item = BossConfig> {
    let boss = systems().into_iter().filter(|s| s.0 == Kind::Boss);
    boss.map(System::boss)
}

/// Builds a system's engine over the whole corpus or one of its shards.
type Make<E> = fn(System, &'static InvertedIndex) -> E;

/// Runs `$body` once per system, with `$make` the constructor of that
/// system's engine type.
macro_rules! for_each_system {
    (|$system:ident, $make:ident| $body:expr) => {
        for $system in systems() {
            match $system.0 {
                Kind::Boss => {
                    let $make: Make<Boss> = |s, i| Boss::new(i, s.boss());
                    $body
                }
                Kind::Iiu => {
                    let $make: Make<Iiu> = |s, i| Iiu::new(i, s.iiu());
                    $body
                }
                Kind::Lucene => {
                    let $make: Make<Lucene> = |s, i| Lucene::new(i, s.lucene());
                    $body
                }
            }
        }
    };
}

/// An index and its 1-, 2- and 4-shard splits.
struct Corpus {
    index: InvertedIndex,
    splits: Vec<ShardedIndex>,
}

impl Corpus {
    fn new(index: InvertedIndex) -> Self {
        let split = |n| ShardedIndex::split(&index, n).expect("splits");
        let splits = vec![split(1), split(2), split(4)];
        Corpus { index, splits }
    }

    fn split(&self, n: u32) -> &ShardedIndex {
        let found = self.splits.iter().find(|s| s.n_shards() == n as usize);
        found.expect("a 1-, 2- or 4-shard split")
    }

    /// `make(system)` on one device (`shards` `None`), or as a
    /// scatter-gather coordinator with one replica per shard.
    fn deploy<E>(
        &'static self,
        make: Make<E>,
        s: System,
        shards: Option<u32>,
    ) -> Sharded<'static, E>
    where
        E: SearchEngine,
    {
        let canonical = make(s, &self.index);
        let Some(n) = shards else {
            return Sharded::single(canonical);
        };
        let split = self.split(n);
        let leaves = split.shards().iter().map(|i| vec![make(s, i)]).collect();
        Sharded::new(canonical, split, leaves, ShardTiming::ScatterGather)
    }
}

fn in_memory() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let spec = CorpusSpec::ccnews_like(Scale::Smoke);
        Corpus::new(spec.build().expect("builds"))
    })
}

/// The same corpus spilled to four SPIMI segments, opened and merged.
fn from_segments() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("boss-invariance-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = CorpusSpec::ccnews_like(Scale::Smoke);
        spec.build_segments(&dir, 4).expect("segments build");
        let index = boss_engine::open_segments(&dir).expect("segments open");
        std::fs::remove_dir_all(&dir).ok();
        Corpus::new(index)
    })
}

/// Three queries of each Table II type, in Table II order: Q1 is
/// `suite()[0..3]`, Q2 `[3..6]`, Q4 `[9..12]`.
fn suite() -> &'static [QueryExpr] {
    static SUITE: OnceLock<Vec<QueryExpr>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let mut sampler = QuerySampler::new(&in_memory().index, 7).expect("sampler");
        let mut sample = |qt| sampler.sample(qt).expect("samples").expr;
        let types = ALL_QUERY_TYPES.into_iter().flat_map(|qt| [qt; 3]);
        types.map(&mut sample).collect()
    })
}

/// `queries` at `k` on `threads` executor workers, FIFO.
fn run<E: SearchEngine + Send>(e: &E, threads: usize, qs: &[QueryExpr], k: usize) -> EngineBatch {
    BatchExecutor::with_threads(threads)
        .run(e, qs, k)
        .expect("runs")
}

/// Suite queries on one engine, one after another in `order`, query `i`
/// at `k(i)`; outcomes in suite order.
fn in_sequence<E, I>(e: &mut E, order: I, k: fn(usize) -> usize) -> Vec<QueryOutcome>
where
    E: SearchEngine,
    I: Iterator<Item = usize>,
{
    let mut out: Vec<_> = order.map(|i| (i, e.search(&suite()[i], k(i)))).collect();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o.expect("runs")).collect()
}

fn hits(o: &QueryOutcome) -> Vec<(u32, u32)> {
    o.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

fn assert_outcomes(must: Must, base: &[QueryOutcome], got: &[QueryOutcome], ctx: &str) {
    assert_eq!(got.len(), base.len(), "{ctx}: outcome count");
    for (i, (g, b)) in got.iter().zip(base).enumerate() {
        assert_eq!(hits(g), hits(b), "{ctx}: hits of query {i}");
        match must {
            Must::Outcome => assert_eq!(g, b, "{ctx}: outcome of query {i}"),
            Must::Work => {
                assert_eq!(g.eval, b.eval, "{ctx}: EvalCounts of query {i}");
                for cat in ACCESS_CATEGORIES {
                    let traffic = |o: &QueryOutcome| (o.mem.bytes(cat), o.mem.count(cat));
                    assert_eq!(traffic(g), traffic(b), "{ctx}: {cat} of query {i}");
                }
            }
            Must::Hits => {}
        }
    }
}

fn assert_batch(must: Must, base: &EngineBatch, got: &EngineBatch, ctx: &str) {
    if must == Must::Outcome {
        assert_eq!(got.makespan_cycles, base.makespan_cycles, "{ctx}: makespan");
        assert_eq!(got.mem, base.mem, "{ctx}: merged MemStats");
        assert_eq!(got.eval, base.eval, "{ctx}: merged EvalCounts");
    }
    assert_outcomes(must, &base.outcomes, &got.outcomes, ctx);
}

#[test]
fn threads() {
    for_each_system!(|system, make| for shards in [None, Some(4)] {
        let engine = in_memory().deploy(make, system, shards);
        for policy in [SchedPolicy::Fifo, SchedPolicy::Sjf] {
            let exec = |t| BatchExecutor::with_threads(t).with_policy(policy);
            let [base, two, four] = [1, 2, 4].map(|t| exec(t).run(&engine, suite(), K));
            let base = base.expect("runs");
            for (got, threads) in [(two, 2), (four, 4)] {
                let ctx = format!("{system:?} {shards:?} shards {policy:?} {threads} threads");
                assert_batch(Must::Outcome, &base, &got.expect("runs"), &ctx);
            }
        }
    });
}

#[test]
fn history() {
    let (n, k) = (suite().len(), |i| [5, 300][i % 2]);
    for_each_system!(|system, make| for shards in [None, Some(4)] {
        let ctx = format!("{system:?} {shards:?} shards");
        let unused = in_memory().deploy(make, system, shards);
        let mut fresh = Vec::new();
        for i in 0..n {
            fresh.extend(in_sequence(&mut unused.fork(), i..=i, k));
        }
        let mut used = unused.fork();
        let forward = in_sequence(&mut used, 0..n, k);
        assert_outcomes(Must::Outcome, &fresh, &forward, &ctx);
        let mut fork = used.fork();
        for (who, engine) in [("used", &mut used), ("fork", &mut fork)] {
            let reversed = in_sequence(engine, (0..n).rev(), k);
            assert_outcomes(Must::Outcome, &fresh, &reversed, &format!("{ctx} {who}"));
        }
    });
}

#[test]
fn quiet_fault_plan() {
    let index = &in_memory().index;
    for config in boss_configs() {
        let base = run(&Boss::new(index, config.clone()), 2, suite(), K);
        assert_eq!(base.eval.blocks_skipped_fault, 0);
        assert_eq!(base.mem.faulted_reads, 0);
        for (plan, degrade) in [
            (Some(FaultPlan::quiet(17)), DegradePolicy::FailQuery),
            (Some(FaultPlan::quiet(17)), DegradePolicy::SkipBlock),
            (None, DegradePolicy::SkipBlock),
        ] {
            let ctx = format!("{config:?} {degrade:?}");
            let variant = config.clone().with_fault_plan(plan).with_degrade(degrade);
            let got = run(&Boss::new(index, variant), 2, suite(), K);
            assert_batch(Must::Outcome, &base, &got, &ctx);
        }
    }
}

#[test]
fn skip_block_plan() {
    let index = &in_memory().index;
    let plan = FaultPlan::quiet(23).with_uncorrectable_rate(0.3);
    for config in boss_configs() {
        let config = config.with_fault_plan(Some(plan.clone()));
        let config = config.with_degrade(DegradePolicy::SkipBlock);
        let ctx = format!("{config:?}");
        let engine = Boss::new(index, config.clone());
        let base = run(&engine, 1, suite(), K);
        assert!(base.eval.blocks_skipped_fault > 0, "{ctx}: the plan fired");
        assert!(base.mem.faulted_reads > 0, "{ctx}: faults are traffic");
        for threads in [2, 4] {
            let got = run(&engine, threads, suite(), K);
            assert_batch(Must::Outcome, &base, &got, &ctx);
        }
        let fresh = in_sequence(&mut Boss::new(index, config), 0..suite().len(), |_| K);
        assert_outcomes(Must::Outcome, &base.outcomes, &fresh, &ctx);
    }
}

#[test]
fn fail_query_plan() {
    let index = &in_memory().index;
    let plan = FaultPlan::quiet(11).with_uncorrectable_rate(1.0);
    let read_fault = |r: Result<_, Error>| matches!(r, Err(Error::ReadFault { .. }));
    for config in boss_configs() {
        let config = config.with_fault_plan(Some(plan.clone()));
        assert_eq!(config.degrade, DegradePolicy::FailQuery, "the default");
        let engine = Boss::new(index, config);
        for threads in [1, 2, 4] {
            let got = BatchExecutor::with_threads(threads).run(&engine, suite(), K);
            assert!(read_fault(got.map(drop)), "{threads} threads");
        }
        let mut device = engine.fork();
        for q in suite() {
            assert!(read_fault(device.search(q, K).map(drop)), "{q}");
        }
    }
}

#[test]
fn replica_failover() {
    let plan = FaultPlan::quiet(42).with_uncorrectable_rate(1.0);
    let (corpus, split) = (in_memory(), in_memory().split(2));
    for config in boss_configs() {
        let config = config.with_degrade(DegradePolicy::SkipBlock);
        let ctx = format!("{config:?}");
        // Two replicas per shard; with `sick`, shard 0's replica 0 faults.
        let coordinator = |sick: bool| {
            let leaf = |i, faults: bool| {
                let plan = faults.then(|| plan.clone());
                Boss::new(i, config.clone().with_fault_plan(plan))
            };
            let shards = split.shards().iter().enumerate();
            let leaves = shards.map(|(s, i)| vec![leaf(i, sick && s == 0), leaf(i, false)]);
            let canonical = Boss::new(&corpus.index, config.clone());
            let timing = ShardTiming::ScatterGather;
            Sharded::new(canonical, split, leaves.collect(), timing)
        };
        let base = run(&coordinator(false), 1, suite(), K);
        let mut sick = coordinator(true);
        for threads in [1, 2, 4] {
            assert_batch(Must::Outcome, &base, &run(&sick, threads, suite(), K), &ctx);
        }
        let got = in_sequence(&mut sick, 0..suite().len(), |_| K);
        assert_outcomes(Must::Outcome, &base.outcomes, &got, &ctx);
        let fired = sick.shard_stats()[0].faults.total() > 0;
        assert!(fired, "{ctx}: the plan fired");
    }
}

#[test]
fn pruning_leaves_intersections_alone() {
    let shapes = [&suite()[0..6], &suite()[9..12]].concat();
    for_each_system!(|system, make| {
        let ctx = format!("{system:?}");
        let deploy = |s| in_memory().deploy(make, s, None);
        let [base, got] = [system.exhaustive(), system].map(|s| run(&deploy(s), 2, &shapes, K));
        assert_batch(Must::Outcome, &base, &got, &ctx);
    });
}

#[test]
fn segments() {
    for_each_system!(|system, make| for shards in [None, Some(2), Some(4)] {
        let ctx = format!("{system:?} {shards:?} shards");
        let deploy = |c: &'static Corpus| c.deploy(make, system, shards);
        let [base, got] = [in_memory(), from_segments()].map(|c| run(&deploy(c), 2, suite(), K));
        assert_batch(Must::Outcome, &base, &got, &ctx);
    });
}

#[test]
fn shards() {
    let corpus = in_memory();
    for_each_system!(|system, make| for k in [3, K] {
        let exhaustive = corpus.deploy(make, system.exhaustive(), None);
        let base = run(&exhaustive, 2, suite(), k);
        for n in [1, 2, 4] {
            let ctx = format!("{system:?} {n} shards, k {k}");
            let got = run(&corpus.deploy(make, system, Some(n)), 2, suite(), k);
            assert_batch(Must::Hits, &base, &got, &ctx);
        }
    });
}

/// The traversal reads neither the clock nor the device: every system
/// does the same work, counted and in logical bytes, on every node.
#[test]
fn devices() {
    let optane = MemoryConfig::optane_dcpmm();
    let mut variants = vec![
        MemoryConfig::ddr4_2666(),
        MemoryConfig::host_scm_6ch(),
        MemoryConfig::host_ddr4_6ch(),
    ];
    variants.extend([2, 4, 8].map(|n| optane.share(n)));
    let index = &in_memory().index;
    for s in systems() {
        let on = |memory: &MemoryConfig, k| {
            let m = memory.clone();
            let batch = match s.0 {
                Kind::Boss => run(&Boss::new(index, s.boss().on_memory(m)), 2, suite(), k),
                Kind::Iiu => run(&Iiu::new(index, s.iiu().on_memory(m)), 2, suite(), k),
                Kind::Lucene => run(&Lucene::new(index, s.lucene().on_memory(m)), 2, suite(), k),
            };
            batch.outcomes
        };
        for k in [K, 1000] {
            let base = on(&optane, k);
            for memory in &variants {
                let ctx = format!("{s:?} on {}, k {k}", memory.name);
                assert_outcomes(Must::Work, &base, &on(memory, k), &ctx);
            }
        }
    }
}
