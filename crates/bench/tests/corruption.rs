//! The corruption harness at reduced volume, as a tier-1 test: every
//! mutation family — codec blocks against the seed decoders, netlist
//! data against the codecs, netlist configuration text, block
//! metadata, shard containment, segment files — must end in a typed
//! error or a bit-correct decode. The `corruption_harness` binary runs
//! the same `run` at larger trial counts.

#[test]
fn reduced_harness_has_no_violations() {
    let tally = boss_bench::corruption::run(2026, 400);
    assert!(
        tally.violations.is_empty(),
        "{} violations, first: {}",
        tally.violations.len(),
        tally.violations[0]
    );
    assert_eq!(tally.trials, 3300, "a mutation family ran short");
}
