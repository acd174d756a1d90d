//! Dynamic-pruning query plans over the union module's streams: the
//! device-side half of the pruning family (the portable half lives in
//! [`boss_index::prune`] and drives the CPU baselines and property
//! tests).
//!
//! Four plans share this module ([`QueryAlgorithm`]):
//!
//! * **WAND** — pivot selection over the ascending-docID frontier using
//!   list-level upper bounds only.
//! * **Block-Max WAND** — WAND plus a shallow block-max probe of the
//!   pivot set; whole windows whose summed block maxes cannot beat θ
//!   are skipped before any block is fetched or decoded.
//! * **MaxScore** — a fixed ascending-bound stream order split into
//!   non-essential/essential by prefix sums against θ; candidates come
//!   from essential streams only, and non-essential streams are probed
//!   in descending-bound order with early abandoning.
//! * **Block-Max MaxScore** — MaxScore with the essential bound refined
//!   by the block maxes of the streams actually positioned on the
//!   candidate.
//!
//! Safety contract (the repo's signature invariant): every plan returns
//! the *bit-identical* top-k of the exhaustive traversal. Upper bounds
//! are summed in `f64` and compared through [`cannot_beat`], whose
//! slack strictly exceeds the f32 summation drift of a ≤ `max_terms`
//! query, and offered scores are always recomputed canonically (sorted,
//! deduped term order, f32 accumulation) — partial sums only gate skip
//! and abandon decisions, never the ranking.
//!
//! Every access the plans do make is charged to the simulated SCM
//! exactly like the exhaustive path: metadata reads on block advance,
//! block data reads at decode entry, line-buffered norm loads at
//! scoring. Skipped work is attributed to the dedicated
//! `blocks_skipped_prune` / `docs_skipped_prune` counters
//! ([`SkipReason::Prune`]) so the exhaustive path's figures stay
//! untouched.

use crate::fetch::ExecCtx;
use crate::union::{cannot_beat, union_topk, BulkScratch, Rounds, UnionStream};
use boss_index::cursor::SkipReason;
use boss_index::matches::canonical_score;
use boss_index::{DocId, Error, QueryAlgorithm, TermId, TopK};

/// Runs the pruned union + scoring + top-k stage over `streams` with
/// the chosen algorithm.
///
/// WAND and Block-Max WAND are the union module's own round loop
/// ([`union_topk`]) under [`Rounds::Wand`] with the pruning attribution:
/// sort the frontier, pick the pivot by the upper-bound prefix scan
/// against θ, (with block maxes) skip whole windows before any fetch,
/// align, gather, score — and, once one live posting-list stream
/// remains, the block-at-a-time tail drain.
///
/// Single-stream queries route through that loop whatever the
/// algorithm: with one stream MaxScore's split degenerates to the same
/// list-bound test, and the WAND loop is the one with a block-at-a-time
/// tail drain.
///
/// # Errors
///
/// Same surface as [`crate::union::union_topk`]: faulted reads or
/// corrupt blocks under [`crate::DegradePolicy::FailQuery`] surface as
/// typed errors; under `SkipBlock` the affected block is dropped and
/// the traversal continues.
pub(crate) fn pruned_union_topk(
    ctx: &mut ExecCtx<'_>,
    streams: Vec<UnionStream<'_>>,
    algorithm: QueryAlgorithm,
    topk: &mut TopK,
    bulk: &mut BulkScratch,
) -> Result<(), Error> {
    debug_assert!(algorithm.prunes(), "exhaustive plans use union_topk");
    let maxscore_family = matches!(
        algorithm,
        QueryAlgorithm::MaxScore | QueryAlgorithm::BlockMaxMaxScore
    );
    if maxscore_family && streams.len() > 1 {
        maxscore_union(ctx, streams, algorithm.is_block_max(), topk)
    } else {
        let rounds = Rounds::Wand {
            block_max: algorithm.is_block_max(),
            prune: true,
        };
        union_topk(ctx, streams, rounds, topk, bulk)
    }
}

/// MaxScore / Block-Max MaxScore over union streams.
///
/// The stream order is fixed once, ascending by upper bound; `prefix`
/// sums stay valid for the whole query (an exhausted stream's bound is
/// a conservative over-estimate of its zero remaining contribution).
/// Candidates come from essential streams; non-essential streams are
/// probed descending with early abandoning against the f64 partial.
/// Never hands off to the bulk tail drain: the prefix-sum bound differs
/// from the drain's list-bound check, so a hand-off would move the skip
/// counters.
fn maxscore_union(
    ctx: &mut ExecCtx<'_>,
    mut streams: Vec<UnionStream<'_>>,
    block_max: bool,
    topk: &mut TopK,
) -> Result<(), Error> {
    let n = streams.len();
    let mut ord: Vec<usize> = (0..n).collect();
    ord.sort_by(|&a, &b| {
        streams[a]
            .max_score()
            .total_cmp(&streams[b].max_score())
            .then(a.cmp(&b))
    });
    let mut prefix = vec![0f64; n + 1];
    for (j, &i) in ord.iter().enumerate() {
        prefix[j + 1] = prefix[j] + f64::from(streams[i].max_score());
    }
    let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(8);
    loop {
        let theta = topk.cutoff();
        let mut ness = 0usize;
        while ness < n && cannot_beat(prefix[ness + 1], theta) {
            ness += 1;
        }
        if ness == n {
            // No stream can contribute a top-k change any more.
            for s in &streams {
                ctx.eval.docs_skipped_prune += s.remaining();
            }
            break;
        }
        // Next candidate: minimum current docID over live essential
        // streams.
        let mut cand = None;
        for &i in &ord[ness..] {
            if !streams[i].exhausted() {
                let d = streams[i].current_doc();
                cand = Some(cand.map_or(d, |x: DocId| x.min(d)));
            }
        }
        let Some(d) = cand else {
            // Essential streams exhausted; the non-essential prefix
            // cannot beat θ alone.
            for s in &streams {
                ctx.eval.docs_skipped_prune += s.remaining();
            }
            break;
        };
        ctx.eval.pivot_rounds += 1;

        if block_max {
            // Refine the essential bound with the block maxes of the
            // streams actually positioned on `d` (shallow: metadata
            // only).
            let mut ub = prefix[ness];
            let mut min_boundary = DocId::MAX;
            let mut next_cur = DocId::MAX;
            let mut refinable = true;
            for &i in &ord[ness..] {
                if streams[i].exhausted() {
                    continue;
                }
                if streams[i].current_doc() == d {
                    match streams[i].shallow_block_max(d) {
                        Some((u, last)) => {
                            ub += f64::from(u);
                            min_boundary = min_boundary.min(last);
                        }
                        None => {
                            refinable = false;
                            break;
                        }
                    }
                } else {
                    next_cur = next_cur.min(streams[i].current_doc());
                }
            }
            if refinable && cannot_beat(ub, theta) {
                // Skip the window the bound covers: up to the earliest
                // block boundary, capped by the next essential
                // candidate, always making progress past `d`.
                let next = min_boundary
                    .saturating_add(1)
                    .min(next_cur)
                    .max(d.saturating_add(1));
                for &i in &ord[ness..] {
                    if !streams[i].exhausted() && streams[i].current_doc() == d {
                        streams[i].seek(ctx, next, SkipReason::Prune)?;
                    }
                }
                continue;
            }
        }

        // Gather essential contributions at `d` (decoding only now).
        // The norm is loaded up front because the partial-score probe
        // needs it; the line buffer makes the later canonical use free.
        let norm = ctx.load_norm(d);
        entries.clear();
        let mut partial = 0f64;
        for &i in &ord[ness..] {
            if !streams[i].exhausted() && streams[i].current_doc() == d {
                let before = entries.len();
                streams[i].take_entries(ctx, &mut entries)?;
                for &(term, tf) in &entries[before..] {
                    let idf = ctx.index.list(term).idf();
                    partial += f64::from(ctx.index.bm25().term_score(idf, tf, norm));
                }
            }
        }
        if entries.is_empty() {
            // Every stream at `d` fault-skipped its block: the
            // candidate is gone and all of them moved forward.
            continue;
        }
        // Probe non-essential streams in descending-bound order, early
        // abandoning when the partial plus the unprobed tail cannot
        // beat θ. (The f64 partial only gates abandonment; the offered
        // score is recomputed canonically below.)
        let mut abandoned = false;
        for j in (0..ness).rev() {
            if cannot_beat(partial + prefix[j + 1], theta) {
                abandoned = true;
                break;
            }
            let i = ord[j];
            streams[i].seek(ctx, d, SkipReason::Prune)?;
            if !streams[i].exhausted() && streams[i].current_doc() == d {
                let before = entries.len();
                streams[i].take_entries(ctx, &mut entries)?;
                for &(term, tf) in &entries[before..] {
                    let idf = ctx.index.list(term).idf();
                    partial += f64::from(ctx.index.bm25().term_score(idf, tf, norm));
                }
            }
        }
        if abandoned {
            ctx.eval.docs_skipped_prune += 1;
        } else {
            let score = canonical_score(ctx.index, &mut entries, norm);
            ctx.scored += 1;
            ctx.eval.docs_scored += 1;
            topk.offer(d, score);
        }
    }
    ctx.eval.topk_inserts = topk.inserts();
    Ok(())
}
