//! The intersection module: pipelined Small-versus-Small intersection
//! with block-level overlap checking (Section IV-C "Intersection Module"
//! and Figure 5).
//!
//! Terms are processed shortest-list-first. The first pair is intersected
//! by a 2-way merge whose cursors skip non-overlapping blocks via
//! metadata; each further term is intersected against the (register-held)
//! intermediate stream — fed back to the block fetch module, never
//! spilled to memory.

use crate::fetch::ExecCtx;
use boss_index::cursor::{ListCursor, SkipReason};
use boss_index::union::MatStream;
use boss_index::{svs, Error, GroupMatches, TermId};

/// Intersects a group of two or more terms, producing the materialized
/// intermediate stream (docs ascending, one row of member-term tfs per
/// document).
///
/// # Errors
///
/// [`Error::InvalidQuery`] for fewer than two terms (the planner streams
/// a one-term group straight to the union and never emits an empty one).
/// Under [`crate::DegradePolicy::FailQuery`] a faulted read or corrupt
/// block surfaces as a typed error; under `SkipBlock` the affected block
/// is dropped (its documents cannot intersect) and the merge continues.
pub(crate) fn intersect_group(ctx: &mut ExecCtx<'_>, terms: &[TermId]) -> Result<MatStream, Error> {
    if terms.len() < 2 {
        return Err(Error::InvalidQuery {
            reason: "an intersection group needs two or more terms".into(),
        });
    }
    // Small-versus-Small: ascending document frequency.
    let mut order: Vec<TermId> = terms.to_vec();
    order.sort_by_key(|&t| ctx.index.list(t).df());

    let max_score: f32 = order.iter().map(|&t| ctx.index.list(t).max_score()).sum();

    // First pair: 2-way merge with *mutual* overlap checking, so both
    // lists skip the blocks the other cannot reach (Figure 5(a)).
    let (ta, tb) = (order[0], order[1]);
    let mut cur = GroupMatches::new(&[ta, tb]);
    let mut a = ListCursor::new(ctx.index, ta, 0, ctx);
    let mut b = ListCursor::new(ctx.index, tb, 1 % ctx.dec_cycles.len(), ctx);
    while !a.exhausted() && !b.exhausted() {
        if a.is_decoded() && b.is_decoded() {
            // Both blocks decoded: merge their runs in one pass, up to the
            // first step that leaves a block, with the charges of the
            // per-posting steps it stands for — one comparison per step
            // and per scanned posting.
            let ((docs_a, tfs_a), (docs_b, tfs_b)) = (a.run(), b.run());
            let m = svs::intersect_runs(docs_a, docs_b, |i, j| {
                let (tfa, tfb) = (tfs_a[i], tfs_b[j]);
                cur.push(docs_a[i], &if ta < tb { [tfa, tfb] } else { [tfb, tfa] });
            });
            ctx.eval.comparisons += m.seeks + m.matches as u64;
            a.pass_scanned(ctx, m.a - m.matches, SkipReason::Block);
            b.pass_scanned(ctx, m.b - m.matches, SkipReason::Block);
            a.advance_run(ctx, m.matches);
            b.advance_run(ctx, m.matches);
            if a.exhausted() || b.exhausted() {
                break;
            }
        }
        let (da, db) = (a.current_doc(), b.current_doc());
        ctx.eval.comparisons += 1;
        match da.cmp(&db) {
            std::cmp::Ordering::Less => a.seek(ctx, db, SkipReason::Block)?,
            std::cmp::Ordering::Greater => b.seek(ctx, da, SkipReason::Block)?,
            std::cmp::Ordering::Equal => {
                // A fault-skip under `SkipBlock` moves the affected
                // cursor forward, so the merge re-compares and makes
                // progress either way.
                let (tfa, tfb) = (a.current_tf(ctx)?, b.current_tf(ctx)?);
                if let (Some(tfa), Some(tfb)) = (tfa, tfb) {
                    // Rows are in ascending term order.
                    cur.push(da, &if ta < tb { [tfa, tfb] } else { [tfb, tfa] });
                    a.advance(ctx)?;
                    b.advance(ctx)?;
                }
            }
        }
    }

    for (unit, &term) in order.iter().enumerate().skip(2) {
        // Overlap check: the feedback docID drives block skipping in the
        // fetched list (Figure 5(b)), one comparison per live probe.
        let mut c = ListCursor::new(ctx.index, term, unit % ctx.dec_cycles.len(), ctx);
        cur = svs::join(&cur, &mut c, ctx, |ctx, c, _, probes| {
            let live = !c.exhausted();
            ctx.eval.comparisons += u64::from(live) * probes as u64;
            live
        })?;
        if cur.is_empty() {
            break;
        }
    }

    Ok(MatStream::new(cur, max_score))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::config::BossConfig;
    use boss_index::{reference, DocId, IndexBuilder, InvertedIndex, QueryExpr};

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..800)
            .map(|i| {
                let mut t = String::from("base");
                let h = i.wrapping_mul(40503);
                if h % 2 == 0 {
                    t.push_str(" two");
                }
                if h % 5 == 0 {
                    t.push_str(" five five");
                }
                if h % 11 == 0 {
                    t.push_str(" eleven");
                }
                if i >= 700 {
                    t.push_str(" tail");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    fn run(index: &InvertedIndex, terms: &[&str]) -> (MatStream, crate::stats::EvalCounts) {
        let cfg = BossConfig::default();
        let mut ctx = crate::fetch::ExecCtx::new(index, &cfg).unwrap();
        let ids: Vec<TermId> = terms.iter().map(|t| index.term_id(t).unwrap()).collect();
        let m = intersect_group(&mut ctx, &ids).unwrap();
        (m, ctx.eval)
    }

    fn expect_docs(index: &InvertedIndex, terms: &[&str]) -> Vec<DocId> {
        let expr = QueryExpr::and(terms.iter().map(|t| QueryExpr::term(*t)));
        reference::candidates(index, &expr).unwrap()
    }

    #[test]
    fn pair_intersection_matches_reference() {
        let idx = corpus();
        let (m, _) = run(&idx, &["two", "five"]);
        assert_eq!(m.matches.docs(), expect_docs(&idx, &["two", "five"]));
        // Every result carries both terms' tfs.
        assert_eq!(m.matches.terms().len(), 2);
        assert_eq!(m.matches.tfs().len(), 2 * m.matches.len());
    }

    #[test]
    fn four_way_intersection_matches_reference() {
        let idx = corpus();
        let (m, _) = run(&idx, &["two", "five", "eleven", "base"]);
        assert_eq!(
            m.matches.docs(),
            expect_docs(&idx, &["two", "five", "eleven", "base"])
        );
        assert_eq!(m.matches.terms().len(), 4);
        assert_eq!(m.matches.tfs().len(), 4 * m.matches.len());
    }

    #[test]
    fn empty_intersection() {
        let idx = corpus();
        // "tail" lives in docs >= 700 with h%2==0 varying; intersect with
        // something disjoint enough to produce few/no docs — use reference
        // as the oracle either way.
        let (m, _) = run(&idx, &["tail", "eleven"]);
        assert_eq!(m.matches.docs(), expect_docs(&idx, &["tail", "eleven"]));
    }

    #[test]
    fn block_skipping_engages_for_clustered_list() {
        let idx = corpus();
        // "tail" occupies only the last blocks of "two"'s docID space, so
        // intersecting skips most of "two"'s blocks.
        let (_, eval) = run(&idx, &["tail", "two"]);
        assert!(
            eval.blocks_skipped > 0,
            "leading blocks of the larger list skipped"
        );
    }

    #[test]
    fn max_score_is_sum_of_list_maxes() {
        let idx = corpus();
        let (m, _) = run(&idx, &["two", "five"]);
        let expect = idx.list(idx.term_id("two").unwrap()).max_score()
            + idx.list(idx.term_id("five").unwrap()).max_score();
        assert!((m.max_score - expect).abs() < 1e-6);
    }

    /// The first pair's merge as it was before it ran block at a time:
    /// one step per posting through the cursors.
    fn posting_merge(ctx: &mut ExecCtx<'_>, ta: TermId, tb: TermId) -> Result<GroupMatches, Error> {
        let mut cur = GroupMatches::new(&[ta, tb]);
        let mut a = ListCursor::new(ctx.index, ta, 0, ctx);
        let mut b = ListCursor::new(ctx.index, tb, 1 % ctx.dec_cycles.len(), ctx);
        while !a.exhausted() && !b.exhausted() {
            let (da, db) = (a.current_doc(), b.current_doc());
            ctx.eval.comparisons += 1;
            match da.cmp(&db) {
                std::cmp::Ordering::Less => a.seek(ctx, db, SkipReason::Block)?,
                std::cmp::Ordering::Greater => b.seek(ctx, da, SkipReason::Block)?,
                std::cmp::Ordering::Equal => {
                    let (tfa, tfb) = (a.current_tf(ctx)?, b.current_tf(ctx)?);
                    if let (Some(tfa), Some(tfb)) = (tfa, tfb) {
                        cur.push(da, &if ta < tb { [tfa, tfb] } else { [tfb, tfa] });
                        a.advance(ctx)?;
                        b.advance(ctx)?;
                    }
                }
            }
        }
        Ok(cur)
    }

    /// Five terms over 3 000 documents: two dense ones, a sparse one, and
    /// two that cluster in different stretches of the docID space.
    fn mixed_corpus(seed: u32) -> InvertedIndex {
        let docs: Vec<String> = (0u32..3_000)
            .map(|i| {
                let h = i.wrapping_mul(2654435761).wrapping_add(seed);
                let mut t = String::from("base");
                for (term, m) in [("half", 2u32), ("third", 3), ("rare", 29)] {
                    if h % m == 0 {
                        t.push(' ');
                        t.push_str(term);
                    }
                }
                if (900..1_400).contains(&i) || (i > 2_500 && h % 5 == 0) {
                    t.push_str(" burst");
                }
                if i % 640 < 40 {
                    t.push_str(" bands bands");
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
    fn block_merge_charges_what_the_posting_merge_did() {
        use crate::config::DegradePolicy;
        use crate::pipeline::TimingFidelity;
        use boss_scm::FaultPlan;

        let faulty = |policy| {
            BossConfig::default()
                .with_fault_plan(Some(FaultPlan::quiet(11).with_uncorrectable_rate(0.15)))
                .with_degrade(policy)
        };
        let configs = [
            BossConfig::default(),
            BossConfig::default().with_fidelity(TimingFidelity::Pipelined),
            faulty(DegradePolicy::SkipBlock),
            faulty(DegradePolicy::FailQuery),
        ];
        let terms = ["half", "third", "rare", "burst", "bands", "base"];
        let mut merged = 0;
        for seed in [0, 7, 1_000_003] {
            let idx = mixed_corpus(seed);
            let ids: Vec<TermId> = terms.iter().map(|t| idx.term_id(t).unwrap()).collect();
            for cfg in &configs {
                for (x, &t1) in ids.iter().enumerate() {
                    for &t2 in &ids[x + 1..] {
                        let mut order = [t1, t2];
                        order.sort_by_key(|&t| idx.list(t).df());
                        let mut old = ExecCtx::new(&idx, cfg).unwrap();
                        let expect = posting_merge(&mut old, order[0], order[1]);
                        let mut new = ExecCtx::new(&idx, cfg).unwrap();
                        let got = intersect_group(&mut new, &[t1, t2]).map(|m| m.matches);
                        let what = format!("seed {seed} {t1}&{t2} {cfg:?}");
                        assert_eq!(
                            got.as_ref().map_err(ToString::to_string),
                            expect.as_ref().map_err(ToString::to_string),
                            "{what}"
                        );
                        assert_eq!(new.eval, old.eval, "{what}");
                        assert_eq!(new.mem.stats(), old.mem.stats(), "{what}");
                        assert_eq!(new.dec_cycles, old.dec_cycles, "{what}");
                        assert_eq!(new.trace, old.trace, "{what}");
                        merged += got.map_or(0, |m| m.len());
                    }
                }
            }
        }
        assert!(merged > 10_000, "the merges matched {merged} documents");
    }

    #[test]
    fn svs_order_puts_smallest_first() {
        let idx = corpus();
        // Regardless of argument order the result is identical.
        let (a, _) = run(&idx, &["base", "eleven"]);
        let (b, _) = run(&idx, &["eleven", "base"]);
        assert_eq!(a.matches, b.matches);
    }
}
