//! Fault-degradation through the engine layer: the [`BatchExecutor`]'s
//! bit-identical-at-every-thread-count contract must survive an active
//! SCM fault plan, for both degradation policies.

use boss_core::{BossConfig, DegradePolicy, EtMode};
use boss_engine::{BatchExecutor, Boss};
use boss_index::{IndexBuilder, InvertedIndex, QueryExpr};
use boss_scm::FaultPlan;

fn corpus() -> InvertedIndex {
    // Several encoded blocks per list so block-granular faults land
    // mid-traversal, not just at list heads.
    let docs: Vec<String> = (0u32..1500)
        .map(|i| {
            let mut t = String::from("common");
            let h = i.wrapping_mul(2654435761);
            if h % 2 == 0 {
                t.push_str(" alpha");
            }
            if h % 3 == 0 {
                t.push_str(" beta beta");
            }
            if h % 7 == 0 {
                t.push_str(" gamma");
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
    (0..12)
        .map(|i| match i % 4 {
            0 => QueryExpr::term("alpha"),
            1 => QueryExpr::and([QueryExpr::term("alpha"), QueryExpr::term("beta")]),
            2 => QueryExpr::or([QueryExpr::term("beta"), QueryExpr::term("gamma")]),
            _ => QueryExpr::term("common"),
        })
        .collect()
}

fn skip_block_config(seed: u64, rate: f64) -> BossConfig {
    BossConfig::with_cores(2)
        .with_et(EtMode::Exhaustive)
        .with_fault_plan(Some(FaultPlan::quiet(seed).with_uncorrectable_rate(rate)))
        .with_degrade(DegradePolicy::SkipBlock)
}

#[test]
fn skip_block_batches_are_bit_identical_at_1_2_4_threads() {
    let idx = corpus();
    let qs = queries();
    let eng = Boss::new(&idx, skip_block_config(40, 0.5));
    let base = BatchExecutor::with_threads(1).run(&eng, &qs, 10).unwrap();
    assert!(
        base.eval.blocks_skipped_fault > 0,
        "the plan must actually drop blocks for this test to mean anything"
    );
    for threads in [2usize, 4] {
        let b = BatchExecutor::with_threads(threads)
            .run(&eng, &qs, 10)
            .unwrap();
        assert_eq!(b.makespan_cycles, base.makespan_cycles, "{threads} threads");
        assert_eq!(b.mem, base.mem, "{threads} threads");
        assert_eq!(b.eval, base.eval, "{threads} threads");
        assert_eq!(
            b.eval.blocks_skipped_fault, base.eval.blocks_skipped_fault,
            "{threads} threads"
        );
        for (a, s) in b.outcomes.iter().zip(&base.outcomes) {
            assert_eq!(a, s, "{threads} threads");
        }
    }
}

#[test]
fn fail_query_surfaces_the_fault_through_the_executor() {
    let idx = corpus();
    let qs = queries();
    let cfg = BossConfig::with_cores(2)
        .with_fault_plan(Some(FaultPlan::quiet(40).with_uncorrectable_rate(1.0)));
    let eng = Boss::new(&idx, cfg);
    for threads in [1usize, 2, 4] {
        let err = BatchExecutor::with_threads(threads)
            .run(&eng, &qs, 10)
            .unwrap_err();
        assert!(
            matches!(err, boss_index::Error::ReadFault { .. }),
            "{threads} threads: {err}"
        );
    }
}

#[test]
fn quiet_plan_batch_equals_no_plan_batch() {
    // The invariance contract at the engine layer: an installed-but-silent
    // plan plus either degradation policy changes no batch observable.
    let idx = corpus();
    let qs = queries();
    let run = |cfg: BossConfig| {
        BatchExecutor::with_threads(2)
            .run(&Boss::new(&idx, cfg), &qs, 10)
            .unwrap()
    };
    let base = run(BossConfig::with_cores(2));
    for cfg in [
        BossConfig::with_cores(2).with_fault_plan(Some(FaultPlan::quiet(17))),
        BossConfig::with_cores(2)
            .with_fault_plan(Some(FaultPlan::quiet(17)))
            .with_degrade(DegradePolicy::SkipBlock),
        BossConfig::with_cores(2).with_degrade(DegradePolicy::SkipBlock),
    ] {
        let b = run(cfg);
        assert_eq!(b.makespan_cycles, base.makespan_cycles);
        assert_eq!(b.mem, base.mem);
        assert_eq!(b.eval, base.eval);
        assert_eq!(b.outcomes, base.outcomes);
    }
    assert_eq!(base.eval.blocks_skipped_fault, 0);
    assert_eq!(base.mem.faulted_reads, 0);
}

#[test]
fn skip_block_repeated_runs_are_identical() {
    // Same plan, same batch, fresh engines: byte-for-byte repeatable.
    let idx = corpus();
    let qs = queries();
    let run = || {
        BatchExecutor::with_threads(3)
            .run(&Boss::new(&idx, skip_block_config(9, 0.3)), &qs, 10)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.eval, b.eval);
}
