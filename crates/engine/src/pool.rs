//! Pooled memory (Figure 2, Section II-C): memory nodes, each with its
//! own shard behind one BOSS device, share one host link. The pool is
//! [`Sharded`] over [`Boss`] leaves, one leaf per node; these are its
//! checks. The shared link carries each leaf's result store, 8 bytes a
//! hit (`AccessCategory::StResult`): at most `nodes × k × 8` under
//! hardware top-k, and at `k = n_docs` every node's whole candidate
//! list, the traffic of a host-side design without top-k.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::{Boss, ShardTiming, Sharded};
use boss_core::BossConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{IndexBuilder, InvertedIndex};

/// "rare" lives in documents 0..3 only, so in shard 0 of a split.
fn corpus() -> InvertedIndex {
    let docs: Vec<String> = (0u32..400)
        .map(|i| {
            let mut t = String::from("common");
            if i % 2 == 0 {
                t.push_str(" even");
            }
            if i % 7 == 0 {
                t.push_str(" seven seven");
            }
            if i < 3 {
                t.push_str(" rare");
            }
            t
        })
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .unwrap()
}

/// One node per shard of `sharded`, each a BOSS device with `config`.
fn pool<'a>(
    index: &'a InvertedIndex,
    sharded: &'a ShardedIndex,
    config: &BossConfig,
) -> Sharded<'a, Boss<'a>> {
    let leaves = sharded
        .shards()
        .iter()
        .map(|s| vec![Boss::new(s, config.clone())])
        .collect();
    Sharded::new(
        Boss::new(index, config.clone()),
        sharded,
        leaves,
        ShardTiming::ScatterGather,
    )
}

mod tests {
    use super::*;
    use crate::sharded::transfer_cycles;
    use crate::{Error, SearchEngine};
    use boss_index::{reference, QueryExpr};
    use boss_scm::AccessCategory;

    #[test]
    fn pooled_union_finds_all_candidates() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = pool(&idx, &sharded, &BossConfig::with_cores(2));
        let q = QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("seven")]);
        let out = pool.search(&q, 1000).unwrap();
        let mut got: Vec<u32> = out.hits.iter().map(|h| h.doc).collect();
        got.sort_unstable();
        assert_eq!(got, reference::candidates(&idx, &q).unwrap());
        assert!(out.cycles > 0);
        assert_eq!(
            out.mem.bytes(AccessCategory::StResult),
            out.hits.len() as u64 * 8
        );
    }

    #[test]
    fn a_term_one_shard_holds_keeps_every_shards_hits() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = pool(&idx, &sharded, &BossConfig::default());
        let t = QueryExpr::term;
        for q in [
            QueryExpr::or([t("seven"), t("rare")]),
            QueryExpr::and([t("even"), t("rare")]),
        ] {
            let out = pool.search(&q, 1000).unwrap();
            assert_eq!(
                out.hits,
                reference::evaluate(&idx, &q, 1000).unwrap(),
                "{q}"
            );
            let candidates = reference::candidates(&idx, &q).unwrap().len() as u64;
            let hostside = pool.search(&q, idx.n_docs() as usize).unwrap();
            assert_eq!(
                hostside.mem.bytes(AccessCategory::StResult),
                candidates * 8,
                "{q}"
            );
        }
    }

    #[test]
    fn topk_link_traffic_far_below_hostside() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = pool(&idx, &sharded, &BossConfig::default());
        let mut link = |q: &QueryExpr, k: usize| {
            let out = pool.search(q, k).unwrap();
            out.mem.bytes(AccessCategory::StResult)
        };
        let t = QueryExpr::term;
        for q in [t("even"), QueryExpr::or([t("even"), t("seven")])] {
            let candidates = reference::candidates(&idx, &q).unwrap().len() as u64;
            assert_eq!(link(&q, idx.n_docs() as usize), candidates * 8, "{q}");
        }
        let q = t("even");
        let hostside = link(&q, idx.n_docs() as usize);
        let topk = link(&q, 10);
        assert!(topk <= 4 * 10 * 8, "top-k {topk}");
        assert!(hostside > topk * 2, "full lists {hostside} vs top-k {topk}");
    }

    #[test]
    fn unknown_term_everywhere_is_error() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 2).unwrap();
        let mut pool = pool(&idx, &sharded, &BossConfig::default());
        assert!(matches!(
            pool.search(&QueryExpr::term("missing"), 5),
            Err(Error::UnknownTerm { .. })
        ));
    }

    #[test]
    fn link_transfer_math() {
        assert_eq!(transfer_cycles(6400), 400 + 100);
    }
}
