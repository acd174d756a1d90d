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
use crate::union::MatStream;
use boss_index::cursor::{ListCursor, SkipReason};
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
        cur = svs::join(&cur, &mut c, ctx, |ctx, c, _| {
            let live = !c.exhausted();
            ctx.eval.comparisons += u64::from(live);
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

    #[test]
    fn svs_order_puts_smallest_first() {
        let idx = corpus();
        // Regardless of argument order the result is identical.
        let (a, _) = run(&idx, &["base", "eleven"]);
        let (b, _) = run(&idx, &["eleven", "base"]);
        assert_eq!(a.matches, b.matches);
    }
}
