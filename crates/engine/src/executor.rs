//! The generic, deterministic batch executor.
//!
//! Each worker thread owns a [`SearchEngine::fork`], so workers share
//! nothing mutable (see the crate-level determinism contract).

use crate::SearchEngine;
use boss_core::{EvalCounts, QueryOutcome};
use boss_index::{Error, QueryExpr};
use boss_scm::MemStats;

/// Order in which [`BatchExecutor`] replays queries onto the engine's
/// simulated lanes (the query scheduler of Figure 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Queries dispatch in arrival order to the earliest-free core.
    #[default]
    Fifo,
    /// Shortest-job-first by estimated work (total document frequency of
    /// the plan's terms) — reduces makespan for skewed batches at the cost
    /// of potential starvation, which the ablation quantifies.
    Sjf,
}

/// Aggregate result of a batch run on any [`SearchEngine`].
#[derive(Debug, Clone)]
pub struct EngineBatch {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Simulated makespan across the engine's lanes, in engine cycles.
    pub makespan_cycles: u64,
    /// Merged memory traffic.
    pub mem: MemStats,
    /// Merged evaluation counters.
    pub eval: EvalCounts,
}

impl EngineBatch {
    /// Batch wall-clock seconds at `clock_ghz`.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.makespan_cycles as f64 / (clock_ghz * 1e9)
    }

    /// Batch throughput in queries/second at `clock_ghz`.
    pub fn throughput_qps(&self, clock_ghz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.seconds(clock_ghz)
    }
}

/// Runs query batches on a [`SearchEngine`], optionally sharded across
/// OS threads, with results **bit-identical at every thread count** (see
/// the crate-level determinism contract).
///
/// Wall-clock parallelism (how many OS threads execute queries) is
/// independent of the *simulated* parallelism (the engine's lanes): the
/// simulated schedule is always replayed serially from per-query cycle
/// counts after execution.
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    threads: usize,
    policy: SchedPolicy,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchExecutor {
    /// An executor using every available CPU, FIFO scheduling.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        BatchExecutor {
            threads,
            policy: SchedPolicy::Fifo,
        }
    }

    /// An executor pinned to `threads` OS threads (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        BatchExecutor {
            threads: threads.max(1),
            policy: SchedPolicy::Fifo,
        }
    }

    /// Replaces the simulated scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Executes `queries` on forks of `engine` and replays the simulated
    /// lane schedule. Outcomes are returned in submission order; merged
    /// stats are summed in submission order.
    ///
    /// `engine` itself is only used for forking and the scheduling hooks.
    ///
    /// # Errors
    ///
    /// The first (in submission order) query that fails to plan, with no
    /// partial results.
    pub fn run<E: SearchEngine + Send>(
        &self,
        engine: &E,
        queries: &[QueryExpr],
        k: usize,
    ) -> Result<EngineBatch, Error> {
        let n = queries.len();
        if n == 0 {
            return Ok(EngineBatch {
                outcomes: Vec::new(),
                makespan_cycles: 0,
                mem: MemStats::new(),
                eval: EvalCounts::default(),
            });
        }

        // Execute every query on a forked engine. Per-query execution is
        // pure, so sharding cannot change any outcome.
        let workers = self.threads.min(n);
        let results: Vec<Result<QueryOutcome, Error>> = if workers <= 1 {
            let mut fork = engine.fork();
            queries.iter().map(|q| fork.search(q, k)).collect()
        } else {
            // Fork on the caller's thread (forks borrow the index, which
            // is Sync), then hand each worker one contiguous chunk.
            let forks: Vec<E> = (0..workers).map(|_| engine.fork()).collect();
            let chunks = queries.chunks(n.div_ceil(workers));
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (forks.into_iter().zip(chunks))
                    .map(|(mut fork, qs)| {
                        s.spawn(move || qs.iter().map(|q| fork.search(q, k)).collect::<Vec<_>>())
                    })
                    .collect();
                // Joined in chunk order, so results land in submission
                // order; a worker's panic is re-raised here.
                (handles.into_iter())
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };

        // Surface the first failure in submission order.
        let outcomes = results.into_iter().collect::<Result<Vec<_>, Error>>()?;

        // Merge stats in submission order (the merges are commutative
        // u64 sums/maxima, so this matches any execution order bit for
        // bit).
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        for o in &outcomes {
            mem.merge(&o.mem);
            eval.merge(&o.eval);
        }

        // Replay the simulated schedule serially: greedy earliest-free
        // lane(s) per query in policy order, using the per-query cycle
        // counts. Never observes OS-thread interleaving.
        let mut order: Vec<usize> = (0..n).collect();
        if self.policy == SchedPolicy::Sjf {
            order.sort_by_key(|&i| engine.work_estimate(&queries[i]));
        }
        let lanes = engine.lanes().max(1);
        let mut busy = vec![0u64; lanes];
        for &qi in &order {
            let gang = engine.gang_width(&queries[qi]).clamp(1, lanes);
            let mut idx: Vec<usize> = (0..lanes).collect();
            idx.sort_by_key(|&i| busy[i]);
            let chosen = &idx[..gang];
            let start = chosen.iter().map(|&i| busy[i]).max().unwrap_or(0);
            let end = start + outcomes[qi].cycles;
            for &i in chosen {
                busy[i] = end;
            }
        }
        let core_limited = busy.into_iter().max().unwrap_or(0);
        let makespan_cycles = core_limited.max(engine.bandwidth_limit_cycles(&mem));
        Ok(EngineBatch {
            outcomes,
            makespan_cycles,
            mem,
            eval,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{Boss, Lucene};
    use boss_core::BossConfig;
    use boss_index::{IndexBuilder, InvertedIndex};
    use boss_luceneish::LuceneConfig;

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..600)
            .map(|i| {
                let mut t = String::from("all");
                if i % 2 == 0 {
                    t.push_str(" even");
                }
                if i % 3 == 0 {
                    t.push_str(" three");
                }
                if i % 5 == 0 {
                    t.push_str(" five");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    #[test]
    fn batch_parallelism_shrinks_makespan() {
        let idx = corpus();
        let queries: Vec<QueryExpr> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    QueryExpr::term("even")
                } else {
                    QueryExpr::and([QueryExpr::term("three"), QueryExpr::term("five")])
                }
            })
            .collect();
        let run = |cores| {
            let eng = Boss::new(&idx, BossConfig::with_cores(cores));
            BatchExecutor::with_threads(1)
                .run(&eng, &queries, 10)
                .unwrap()
        };
        let (b1, b8) = (run(1), run(8));
        assert!(b8.makespan_cycles < b1.makespan_cycles);
        assert!(b8.throughput_qps(1.0) > b1.throughput_qps(1.0));
        assert_eq!(b1.outcomes.len(), 8);
        // Functional results identical across core counts.
        for (a, b) in b1.outcomes.iter().zip(&b8.outcomes) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn lucene_batch_threads_scale_throughput() {
        let idx = corpus();
        let queries: Vec<QueryExpr> = (0..16).map(|_| QueryExpr::term("even")).collect();
        let run = |threads| {
            let eng = Lucene::new(&idx, LuceneConfig::with_threads(threads));
            let batch = BatchExecutor::with_threads(1)
                .run(&eng, &queries, 10)
                .unwrap();
            (batch.makespan_cycles, batch.throughput_qps(eng.clock_ghz()))
        };
        let ((m1, qps1), (m8, qps8)) = (run(1), run(8));
        assert!(m8 < m1);
        assert!(qps8 > qps1 * 4.0);
    }

    #[test]
    fn batch_merges_stats() {
        let idx = corpus();
        let eng = Boss::new(&idx, BossConfig::with_cores(2));
        let queries = vec![QueryExpr::term("even"), QueryExpr::term("three")];
        let b = BatchExecutor::with_threads(2)
            .run(&eng, &queries, 5)
            .unwrap();
        let sum: u64 = b.outcomes.iter().map(|o| o.mem.total_bytes()).sum();
        assert_eq!(b.mem.total_bytes(), sum);
        assert!(b.eval.docs_scored > 0);
        assert!(eng.bandwidth_gbps(&b.mem, b.makespan_cycles) > 0.0);
    }

    /// One huge term (df 800), one tiny (df 20).
    fn skewed_corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..800)
            .map(|i| {
                let mut t = String::from("huge");
                if i % 40 == 0 {
                    t.push_str(" tiny");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    #[test]
    fn sjf_never_worse_than_fifo_for_skewed_tail() {
        let idx = skewed_corpus();
        // A long job submitted last under FIFO pushes the makespan out on
        // a 2-core device; SJF runs the short jobs around it.
        let queries: Vec<QueryExpr> = ["tiny", "tiny", "tiny", "huge", "huge"]
            .map(QueryExpr::term)
            .to_vec();
        let eng = Boss::new(&idx, BossConfig::with_cores(2));
        let run = |policy| {
            BatchExecutor::with_threads(1)
                .with_policy(policy)
                .run(&eng, &queries, 10)
                .unwrap()
        };
        let (fifo, sjf) = (run(SchedPolicy::Fifo), run(SchedPolicy::Sjf));
        assert!(sjf.makespan_cycles <= fifo.makespan_cycles);
        // Results identical and in submission order under both policies.
        for (a, b) in fifo.outcomes.iter().zip(&sjf.outcomes) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn outcomes_in_submission_order_under_sjf() {
        let idx = skewed_corpus();
        let queries = vec![QueryExpr::term("huge"), QueryExpr::term("tiny")];
        let eng = Boss::new(&idx, BossConfig::with_cores(1));
        let batch = BatchExecutor::with_threads(1)
            .with_policy(SchedPolicy::Sjf)
            .run(&eng, &queries, 5)
            .unwrap();
        // First outcome corresponds to "huge" (df 800) even though SJF
        // schedules "tiny" first.
        assert!(batch.outcomes[0].eval.docs_scored > batch.outcomes[1].eval.docs_scored);
    }

    #[test]
    fn error_reported_in_submission_order_without_partial_results() {
        let idx = corpus();
        let qs = vec![
            QueryExpr::term("even"),
            QueryExpr::term("missing"),
            QueryExpr::term("nope"),
        ];
        let eng = Boss::new(&idx, BossConfig::default());
        let err = BatchExecutor::with_threads(2)
            .run(&eng, &qs, 5)
            .unwrap_err();
        assert!(format!("{err}").contains("missing"), "got: {err}");
    }

    #[test]
    fn empty_batch_is_empty() {
        let idx = corpus();
        let eng = Boss::new(&idx, BossConfig::default());
        let b = BatchExecutor::with_threads(3).run(&eng, &[], 5).unwrap();
        assert_eq!(b.makespan_cycles, 0);
        assert!(b.outcomes.is_empty());
        assert_eq!(b.throughput_qps(1.0), 0.0);
    }
}
