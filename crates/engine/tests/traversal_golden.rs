//! Golden record of what every engine *simulates*, query by query: hits
//! (with score bits), cycles, `EvalCounts` and `MemStats` for BOSS, IIU
//! and the Lucene-like engine on the smoke corpus, over Q1–Q6 plus nested
//! shapes, at k = 10 and k = 1000. The checked-in file was recorded
//! before the traversal code moved onto `boss_index::matches`, so this
//! test is the executable form of "a host-side rewrite moved nothing
//! simulated": any change to a memory access, a counter, a cycle or a
//! score bit shows up as a differing line.
//!
//! After a change that is *meant* to move a simulated number, copy the
//! file the failure message names over `tests/golden/traversal.txt`.

use boss_core::{BossConfig, DegradePolicy, EtMode, TimingFidelity};
use boss_engine::{Boss, Iiu, Lucene, SearchEngine, ShardTiming, Sharded};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{InvertedIndex, QueryAlgorithm, QueryExpr, SearchHit};
use boss_luceneish::LuceneConfig;
use boss_scm::FaultPlan;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/traversal.txt";

/// Q1–Q6 twice each, then the shapes Table II does not have: a union of
/// an intersection and a term, a term shared by two intersection groups,
/// a union wider than one core's four streams (ganged), and a
/// two-intersection union whose groups share nothing.
fn suite(index: &InvertedIndex) -> Vec<QueryExpr> {
    let mut sampler = QuerySampler::new(index, 0x60_1D).expect("sampler");
    let mut queries = Vec::new();
    for qt in ALL_QUERY_TYPES {
        for _ in 0..2 {
            queries.push(sampler.sample(qt).expect("sample").expr);
        }
    }
    // Head terms (long lists), so the nested shapes merge real overlap.
    let terms = ["t0003", "t0005", "t0008", "t0013", "t0021", "t0034"];
    let t = |i: usize| QueryExpr::term(terms[i]);
    queries.push(QueryExpr::or([QueryExpr::and([t(0), t(1)]), t(2)]));
    queries.push(QueryExpr::or([
        QueryExpr::and([t(0), t(1)]),
        QueryExpr::and([t(0), t(2)]),
    ]));
    queries.push(QueryExpr::or((0..6).map(t)));
    queries.push(QueryExpr::or([
        QueryExpr::and([t(0), t(1), t(2)]),
        QueryExpr::and([t(3), t(4)]),
        t(5),
    ]));
    queries
}

/// FNV-1a over every hit's docID and score bits, in ranking order.
fn hits_hash(hits: &[SearchHit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hit in hits {
        for b in hit
            .doc
            .to_le_bytes()
            .into_iter()
            .chain(hit.score.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn record<E: SearchEngine>(out: &mut String, label: &str, mut engine: E, queries: &[QueryExpr]) {
    for k in [10usize, 1000] {
        for q in queries {
            let o = engine.search(q, k).expect("query executes");
            write!(
                out,
                "{label} k={k} {q} | cycles={} | hits={}:{:016x}",
                o.cycles,
                o.hits.len(),
                hits_hash(&o.hits)
            )
            .expect("write");
            // The first ten hits verbatim, so a diff shows *which* score
            // moved, not only that the hash did.
            for h in o.hits.iter().take(10) {
                write!(out, " {}:{:08x}", h.doc, h.score.to_bits()).expect("write");
            }
            writeln!(out, " | {:?} | {:?}", o.eval, o.mem).expect("write");
        }
    }
}

fn regenerate() -> String {
    let index = CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("smoke corpus");
    let queries = suite(&index);
    let mut out = String::new();
    let boss = |cfg: BossConfig| Boss::new(&index, cfg);
    record(&mut out, "boss", boss(BossConfig::default()), &queries);
    for (label, et) in [
        ("boss-exhaustive", EtMode::Exhaustive),
        ("boss-blockonly", EtMode::BlockOnly),
    ] {
        record(
            &mut out,
            label,
            boss(BossConfig::default().with_et(et)),
            &queries,
        );
    }
    for (label, algo) in [
        ("boss-wand", QueryAlgorithm::Wand),
        ("boss-bmm", QueryAlgorithm::BlockMaxMaxScore),
    ] {
        record(
            &mut out,
            label,
            boss(BossConfig::default().with_algorithm(algo)),
            &queries,
        );
    }
    // Dropped blocks make streams contribute nothing at a pivot — the one
    // union-module branch a fault-free run never takes.
    record(
        &mut out,
        "boss-skipblock",
        boss(
            BossConfig::default()
                .with_fault_plan(Some(FaultPlan::quiet(7).with_uncorrectable_rate(0.2)))
                .with_degrade(DegradePolicy::SkipBlock),
        ),
        &queries,
    );
    record(
        &mut out,
        "iiu",
        Iiu::new(&index, IiuConfig::default()),
        &queries,
    );
    record(
        &mut out,
        "iiu-bmm",
        Iiu::new(
            &index,
            IiuConfig::default().with_algorithm(QueryAlgorithm::BlockMaxMaxScore),
        ),
        &queries,
    );
    record(
        &mut out,
        "lucene",
        Lucene::new(&index, LuceneConfig::default()),
        &queries,
    );
    record(
        &mut out,
        "lucene-bmw",
        Lucene::new(
            &index,
            LuceneConfig::default().with_algorithm(QueryAlgorithm::BlockMaxWand),
        ),
        &queries,
    );
    // Appended before the union round state was rewritten: the BOSS
    // configurations that rewrite reaches and the lines above lack.
    for (label, algo) in [
        ("boss-bmw", QueryAlgorithm::BlockMaxWand),
        ("boss-maxscore", QueryAlgorithm::MaxScore),
    ] {
        record(
            &mut out,
            label,
            boss(BossConfig::default().with_algorithm(algo)),
            &queries,
        );
    }
    record(
        &mut out,
        "boss-pipelined",
        boss(BossConfig::default().with_fidelity(TimingFidelity::Pipelined)),
        &queries,
    );
    // Scatter-gather over four shards: every shard after the first starts
    // with a seeded θ floor, under ET and under a pruning plan.
    let sharded = ShardedIndex::split(&index, 4).expect("four shards");
    for (label, algo) in [
        ("boss-sharded4", QueryAlgorithm::Exhaustive),
        ("boss-sharded4-bmw", QueryAlgorithm::BlockMaxWand),
    ] {
        let leaves = (sharded.shards().iter())
            .map(|s| vec![Boss::new(s, BossConfig::default().with_algorithm(algo))])
            .collect();
        let engine = Sharded::new(
            boss(BossConfig::default()),
            &sharded,
            leaves,
            ShardTiming::ScatterGather,
        );
        record(&mut out, label, engine, &queries);
    }
    // Appended before each baseline's two traversals were merged into one
    // sink: each baseline under the pruning family the lines above lack.
    record(
        &mut out,
        "iiu-bmw",
        Iiu::new(
            &index,
            IiuConfig::default().with_algorithm(QueryAlgorithm::BlockMaxWand),
        ),
        &queries,
    );
    record(
        &mut out,
        "lucene-bmm",
        Lucene::new(
            &index,
            LuceneConfig::default().with_algorithm(QueryAlgorithm::BlockMaxMaxScore),
        ),
        &queries,
    );
    // Appended before the device's and the baselines' MaxScore loops were
    // merged: the MaxScore branches the lines above do not reach — a
    // dropped block under BMM, a seeded θ floor entering the first split,
    // and the baselines' MaxScore without block maxes.
    record(
        &mut out,
        "boss-bmm-skipblock",
        boss(
            BossConfig::default()
                .with_algorithm(QueryAlgorithm::BlockMaxMaxScore)
                .with_fault_plan(Some(FaultPlan::quiet(7).with_uncorrectable_rate(0.2)))
                .with_degrade(DegradePolicy::SkipBlock),
        ),
        &queries,
    );
    let leaves = (sharded.shards().iter())
        .map(|s| {
            let cfg = BossConfig::default().with_algorithm(QueryAlgorithm::BlockMaxMaxScore);
            vec![Boss::new(s, cfg)]
        })
        .collect();
    let engine = Sharded::new(
        boss(BossConfig::default()),
        &sharded,
        leaves,
        ShardTiming::ScatterGather,
    );
    record(&mut out, "boss-sharded4-bmm", engine, &queries);
    record(
        &mut out,
        "iiu-maxscore",
        Iiu::new(
            &index,
            IiuConfig::default().with_algorithm(QueryAlgorithm::MaxScore),
        ),
        &queries,
    );
    record(
        &mut out,
        "lucene-maxscore",
        Lucene::new(
            &index,
            LuceneConfig::default().with_algorithm(QueryAlgorithm::MaxScore),
        ),
        &queries,
    );
    // Appended before the baselines' WAND loop was replaced by the union
    // module's round loop: each baseline under plain WAND, which the
    // lines above lack.
    record(
        &mut out,
        "iiu-wand",
        Iiu::new(
            &index,
            IiuConfig::default().with_algorithm(QueryAlgorithm::Wand),
        ),
        &queries,
    );
    record(
        &mut out,
        "lucene-wand",
        Lucene::new(
            &index,
            LuceneConfig::default().with_algorithm(QueryAlgorithm::Wand),
        ),
        &queries,
    );
    out
}

#[test]
fn simulated_outcomes_match_the_golden_record() {
    let actual = regenerate();
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traversal.actual.txt");
    std::fs::write(&dump, &actual).expect("write regenerated record");
    let (line, (got, want)) = actual
        .lines()
        .zip(golden.lines().chain(std::iter::repeat("<missing>")))
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .unwrap_or((
            golden.lines().count(),
            ("<missing>", "<extra golden lines>"),
        ));
    panic!(
        "simulated outcome moved at line {} of {GOLDEN}\n  golden: {want}\n  actual: {got}\nfull regenerated record: {}",
        line + 1,
        dump.display()
    );
}
