//! The executor's hard guarantee, checked end to end: batch results are
//! bit-identical at every thread count, for every engine and every BOSS
//! early-termination mode — and the engine contract under it: a query's
//! outcome does not depend on what the engine ran before.

use boss_core::{BossConfig, EtMode};
use boss_engine::{
    BatchExecutor, Boss, EngineBatch, Iiu, Lucene, QueryOutcome, SearchEngine, ShardTiming, Sharded,
};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{InvertedIndex, QueryExpr};
use boss_luceneish::LuceneConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};

fn corpus() -> InvertedIndex {
    CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds")
}

/// A mixed suite covering all six Table II query types.
fn suite(index: &InvertedIndex) -> Vec<QueryExpr> {
    let mut sampler = QuerySampler::new(index, 7).unwrap();
    let mut queries = Vec::new();
    for qt in ALL_QUERY_TYPES {
        for _ in 0..3 {
            queries.push(sampler.sample(qt).unwrap().expr);
        }
    }
    queries
}

fn assert_batches_identical(a: &EngineBatch, b: &EngineBatch, ctx: &str) {
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{ctx}: makespan");
    assert_eq!(a.mem, b.mem, "{ctx}: merged MemStats");
    assert_eq!(a.eval, b.eval, "{ctx}: merged EvalCounts");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{ctx}: outcome count");
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        // QueryOutcome equality covers hits, cycles, per-query traffic,
        // and per-query counters.
        assert_eq!(x, y, "{ctx}: outcome {i}");
    }
}

fn check_thread_invariance<E: SearchEngine + Send>(engine: &E, queries: &[QueryExpr], k: usize) {
    let label = engine.label();
    let serial = BatchExecutor::with_threads(1)
        .run(engine, queries, k)
        .expect("runs");
    for threads in [2usize, 4] {
        let parallel = BatchExecutor::with_threads(threads)
            .run(engine, queries, k)
            .expect("runs");
        assert_batches_identical(&parallel, &serial, &format!("{label} at {threads} threads"));
    }
}

#[test]
fn boss_deterministic_across_threads_all_et_modes() {
    let index = corpus();
    let queries = suite(&index);
    for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
        let engine = Boss::new(&index, BossConfig::with_cores(4).with_et(et).with_k(50));
        check_thread_invariance(&engine, &queries, 50);
    }
}

#[test]
fn iiu_deterministic_across_threads() {
    let index = corpus();
    let queries = suite(&index);
    let engine = Iiu::new(&index, IiuConfig::with_cores(4));
    check_thread_invariance(&engine, &queries, 50);
}

#[test]
fn lucene_deterministic_across_threads() {
    let index = corpus();
    let queries = suite(&index);
    let engine = Lucene::new(&index, LuceneConfig::with_threads(4));
    check_thread_invariance(&engine, &queries, 50);
}

#[test]
fn sjf_schedule_is_also_thread_invariant() {
    // SJF reorders the simulated schedule; that reordering must come
    // from work estimates, never from OS-thread completion order.
    let index = corpus();
    let queries = suite(&index);
    let engine = Boss::new(&index, BossConfig::with_cores(4).with_k(50));
    let exec = |threads| {
        BatchExecutor::with_threads(threads)
            .with_policy(boss_engine::SchedPolicy::Sjf)
            .run(&engine, &queries, 50)
            .expect("runs")
    };
    let serial = exec(1);
    for threads in [2usize, 4] {
        assert_batches_identical(
            &exec(threads),
            &serial,
            &format!("SJF at {threads} threads"),
        );
    }
}

/// The engine contract: an outcome is a pure function of (index,
/// configuration, query, k). Each query runs once on the way through the
/// suite, then again — in reverse, so after a different history — on the
/// used engine and on a fork of it, and must return the identical outcome:
/// hits with score bits, cycles, `MemStats`, `EvalCounts`.
fn check_stateless<E: SearchEngine>(mut engine: E, queries: &[QueryExpr]) {
    let label = engine.label();
    let score_bits =
        |o: &QueryOutcome| -> Vec<u32> { o.hits.iter().map(|h| h.score.to_bits()).collect() };
    let first: Vec<QueryOutcome> = queries
        .iter()
        .map(|q| engine.search(q, 50).expect("runs"))
        .collect();
    let mut fork = engine.fork();
    for (i, (q, expect)) in queries.iter().zip(&first).enumerate().rev() {
        for (who, e) in [("used", &mut engine), ("fork", &mut fork)] {
            let got = e.search(q, 50).expect("runs");
            assert_eq!(&got, expect, "{label} {who}: outcome {i}");
            assert_eq!(
                score_bits(&got),
                score_bits(expect),
                "{label} {who}: score bits {i}"
            );
        }
    }
}

#[test]
fn a_fork_of_a_used_engine_is_a_fresh_engine() {
    let index = corpus();
    let queries = suite(&index);
    let boss = Boss::new(&index, BossConfig::with_cores(4).with_k(50));
    check_stateless(boss, &queries);
    check_stateless(Iiu::new(&index, IiuConfig::with_cores(4)), &queries);
    check_stateless(Lucene::new(&index, LuceneConfig::with_threads(4)), &queries);
}

#[test]
fn a_quiet_scatter_gather_coordinator_is_stateless_too() {
    // Replica routing reads the coordinator's fault tallies, which a quiet
    // plan leaves at zero — so the outcomes stay a function of the query.
    let index = corpus();
    let queries = suite(&index);
    let sharded = ShardedIndex::split(&index, 4).expect("splits");
    let config = || BossConfig::with_cores(4).with_k(50);
    let leaves = sharded
        .shards()
        .iter()
        .map(|shard| vec![Boss::new(shard, config())])
        .collect();
    check_stateless(
        Sharded::new(
            Boss::new(&index, config()),
            &sharded,
            leaves,
            ShardTiming::ScatterGather,
        ),
        &queries,
    );
}
