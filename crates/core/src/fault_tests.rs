//! Whole-query fault-injection tests: the [`crate::DegradePolicy`]
//! contract from the device API down through the traversal. That a quiet
//! plan changes nothing, that an active plan is deterministic, and that
//! `FailQuery` is a typed error are rows of `boss-engine`'s
//! `tests/invariance.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::{BossConfig, DegradePolicy, EtMode};
use crate::device::BossDevice;
use boss_index::{IndexBuilder, InvertedIndex, QueryExpr};
use boss_scm::FaultPlan;

fn corpus() -> InvertedIndex {
    // Several blocks per list so block-granular faults hit mid-list.
    let docs: Vec<String> = (0u32..1200)
        .map(|i| {
            let mut t = String::from("common");
            let h = i.wrapping_mul(2654435761);
            if h % 2 == 0 {
                t.push_str(" left");
            }
            if h % 3 == 0 {
                t.push_str(" right right");
            }
            t
        })
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .unwrap()
}

fn queries() -> Vec<QueryExpr> {
    vec![
        QueryExpr::term("common"),
        QueryExpr::or([QueryExpr::term("left"), QueryExpr::term("right")]),
        QueryExpr::and([QueryExpr::term("left"), QueryExpr::term("right")]),
    ]
}

#[test]
fn skip_block_completes_and_counts_dropped_blocks() {
    let idx = corpus();
    let plan = FaultPlan::quiet(7).with_uncorrectable_rate(0.6);
    let cfg = BossConfig::default()
        .with_fault_plan(Some(plan))
        .with_degrade(DegradePolicy::SkipBlock)
        .with_et(EtMode::Exhaustive);
    let mut dev = BossDevice::new(&idx, cfg);
    let mut any_skipped = false;
    for q in queries() {
        let out = dev.search_expr(&q, 10).unwrap();
        any_skipped |= out.eval.blocks_skipped_fault > 0;
        if out.eval.blocks_skipped_fault > 0 {
            assert!(out.mem.faulted_reads > 0, "{q}: fault accounted in traffic");
        }
    }
    assert!(any_skipped, "rate 0.3 must hit at least one block");
}

#[test]
fn bandwidth_degradation_slows_but_does_not_fail() {
    let idx = corpus();
    let q = QueryExpr::or([QueryExpr::term("left"), QueryExpr::term("right")]);
    let run = |plan: Option<FaultPlan>| {
        let mut dev = BossDevice::new(&idx, BossConfig::default().with_fault_plan(plan));
        dev.search_expr(&q, 10).unwrap()
    };
    let clean = run(None);
    let slow = run(Some(FaultPlan::quiet(5).with_channel_bw(vec![0.5])));
    assert_eq!(clean.hits, slow.hits, "degradation never changes results");
    assert!(slow.mem.degraded_accesses > 0);
    assert!(
        slow.mem.last_done_cycle > clean.mem.last_done_cycle,
        "half-bandwidth channels finish later"
    );
}
