//! Lane-vs-cursor differential tests. BOSS's union rounds read and move
//! a list stream through its decoded-block lane, a pivot set of one list
//! stream a batched run of rounds at a time, and call the stream's cursor
//! only at block edges (`union.rs`). Sending every access through the
//! cursor instead, one posting per round, must change nothing a query
//! reports — hits with their score bits, cycles, `EvalCounts` and
//! `MemStats` — under every `Rounds`, k, stream mix, seeded floor and
//! fault policy; and most rounds must run in-block, and some runs beside
//! other live streams, or the lane path is dead and the comparison
//! proves nothing.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::{BossConfig, DegradePolicy, EtMode};
use crate::device::BossDevice;
use crate::union::LaneTally;
use boss_index::{reference, IndexBuilder, InvertedIndex, QueryAlgorithm, QueryExpr};
use boss_scm::FaultPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Terms of the random corpora; every one is dense enough for several
/// 128-posting blocks.
const TERMS: usize = 7;

fn term(t: usize) -> QueryExpr {
    QueryExpr::term(format!("t{t}"))
}

/// `n_docs` random documents: term `t{j}` in a document with a per-term
/// density in 25–60 %, tf 1–4, and 0–15 filler words so the length
/// norms vary.
fn corpus(seed: u64, n_docs: usize) -> InvertedIndex {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let density: Vec<f64> = (0..TERMS).map(|_| rng.random_range(0.25..0.6)).collect();
    let docs: Vec<String> = (0..n_docs)
        .map(|_| {
            let mut text = String::from("pad");
            for (j, &p) in density.iter().enumerate() {
                if rng.random_range(0.0..1.0) < p {
                    for _ in 0..rng.random_range(1..5u32) {
                        text.push_str(&format!(" t{j}"));
                    }
                }
            }
            for _ in 0..rng.random_range(0..16u32) {
                text.push_str(" pad");
            }
            text
        })
        .collect();
    let index = IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .unwrap();
    for j in 0..TERMS {
        let id = index.term_id(&format!("t{j}")).unwrap();
        assert!(index.list(id).n_blocks() >= 3, "t{j} spans 3+ blocks");
    }
    index
}

/// A single term and a pure intersection (a lone list stream and a lone
/// materialized one), list-only unions (2 and 4 streams), unions with
/// materialized intersection outputs (one sharing a term with a list
/// stream), and a 6-stream union, wider than one core's four.
fn queries() -> Vec<QueryExpr> {
    vec![
        term(0),
        QueryExpr::and([term(1), term(2)]),
        QueryExpr::or([term(0), term(1)]),
        QueryExpr::or([term(0), term(2), term(4), term(6)]),
        QueryExpr::or([term(3), QueryExpr::and([term(1), term(5)])]),
        QueryExpr::or([
            QueryExpr::and([term(0), term(2)]),
            term(1),
            QueryExpr::and([term(0), term(4)]),
        ]),
        QueryExpr::or([term(2), QueryExpr::and([term(2), term(6)])]),
        QueryExpr::or((0..6).map(term)),
    ]
}

/// Every `Rounds`: the three ET modes, and pruned WAND and Block-Max
/// WAND; and Block-Max MaxScore, whose lone term runs the union rounds.
fn configs() -> Vec<BossConfig> {
    let mut out: Vec<BossConfig> = [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full]
        .into_iter()
        .map(|et| BossConfig::default().with_et(et))
        .collect();
    for algorithm in [
        QueryAlgorithm::Wand,
        QueryAlgorithm::BlockMaxWand,
        QueryAlgorithm::BlockMaxMaxScore,
    ] {
        out.push(BossConfig::default().with_algorithm(algorithm));
    }
    out
}

/// Runs every query of [`queries`] under every config of [`configs`], k
/// and floor, quiet and under a 15 % `SkipBlock` fault plan seeded with
/// `seed`, on both paths, and asserts equal outcomes, and that the plan
/// dropped blocks. Returns what the lane path's round loops did.
fn sweep(index: &InvertedIndex, seed: u64) -> LaneTally {
    let mut tally = LaneTally::default();
    let mut dropped = 0;
    for config in configs() {
        let faulty = config
            .clone()
            .with_fault_plan(Some(FaultPlan::quiet(seed).with_uncorrectable_rate(0.15)))
            .with_degrade(DegradePolicy::SkipBlock);
        for config in [config, faulty] {
            let mut lanes = BossDevice::new(index, config.clone());
            let mut cursors = BossDevice::new(index, config.clone());
            for q in queries() {
                for k in [1usize, 10, 1000] {
                    // A floor at the third-best score seeds θ before the
                    // queue fills, as a sharded coordinator does.
                    let expect = reference::evaluate(index, &q, k).unwrap();
                    let seeded = expect.get(2).map_or(f32::NEG_INFINITY, |h| h.score);
                    for floor in [f32::NEG_INFINITY, seeded] {
                        let what = format!("{q} k={k} floor={floor} {config:?}");
                        let a = lanes.execute(&q, k, floor, true).unwrap();
                        let b = cursors.execute(&q, k, floor, false).unwrap();
                        assert_eq!(a, b, "{what}");
                        dropped += a.eval.blocks_skipped_fault;
                        let bits = |o: &crate::QueryOutcome| -> Vec<(u32, u32)> {
                            o.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
                        };
                        assert_eq!(bits(&a), bits(&b), "{what}");
                        if config.fault_plan.is_none() && floor == f32::NEG_INFINITY {
                            assert_eq!(a.hits, expect, "{what}");
                        }
                    }
                }
            }
            tally.rounds += lanes.bulk.tally.rounds;
            tally.edges += lanes.bulk.tally.edges;
            tally.beside += lanes.bulk.tally.beside;
        }
    }
    assert!(dropped > 0, "the fault plan dropped no block");
    tally
}

/// Most rounds ran in-block: every round that called a cursor made at
/// least one of the `edges` cursor moves, so `edges` bounds the rounds
/// that did not. Nine in ten must not have (the sweeps read ~97 %). And
/// batched runs served rounds while other streams were live.
fn assert_mostly_in_block(tally: LaneTally) {
    assert!(tally.rounds > 0, "the round loop ran");
    assert!(tally.beside > 0, "no batched run beside a live stream");
    assert!(
        tally.edges * 10 < tally.rounds,
        "{} cursor moves in {} rounds: the lanes barely served",
        tally.edges,
        tally.rounds
    );
}

#[test]
fn lanes_and_cursors_agree_on_every_outcome() {
    let tally = sweep(&corpus(0xB055, 1_400), 7);
    assert_mostly_in_block(tally);
}

/// The wide sweep: more and larger corpora (the smoke CI job runs it in
/// release).
#[test]
#[ignore = "wide sweep: cargo test --release -p boss-core --lib lane_tests -- --ignored"]
fn lanes_and_cursors_agree_on_every_outcome_wide() {
    let mut tally = LaneTally::default();
    for seed in 1..=8u64 {
        let t = sweep(&corpus(seed, 1_200 + 400 * seed as usize), seed);
        tally.rounds += t.rounds;
        tally.edges += t.edges;
        tally.beside += t.beside;
    }
    assert_mostly_in_block(tally);
}
