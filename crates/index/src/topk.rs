//! The hardware top-k module: a shift-register priority queue with `k`
//! entries of (docID, query-score), sorted by descending score
//! (Section IV-C "Top-k Module").
//!
//! The hardware's broadcast-insert costs one cycle per accepted entry,
//! which the timing model charges via [`TopK::inserts`]. The host-side
//! stand-in only has to make the same accept/reject decisions and report
//! the same cutoff θ, so it is a 4-ary worst-first heap of packed integer
//! keys rather than a shifted list: an accepted entry replaces the root
//! and sifts down ~log₄ k levels, θ is a field refreshed by that insert,
//! and the ranking order is materialised only when the hits are read.
//!
//! A key is `rank(score) << 32 | !doc`, where `rank` maps a score's bits
//! to an integer that ascends with the score. A smaller key is therefore
//! a lower score or, on equal scores, a larger docID — exactly "ranks
//! later" under [`SearchHit::ranking_cmp`] for every non-NaN score — so
//! the heap root is the entry the next accepted offer evicts, and its
//! score is θ.
//!
//! It lives in `boss-index` so the portable pruned evaluator
//! ([`crate::prune`]) and the device model share one queue — and therefore
//! one threshold sequence; `boss_core::TopK` re-exports it.

use crate::{DocId, SearchHit};

/// Sentinel for an unused child slot: never the smallest of its group.
const VACANT: u64 = u64::MAX;

/// The four children of one heap node, kept on one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Children([u64; 4]);

/// Packs a hit so that integer order is ranking order, worst first.
/// `-0.0` is stored as `+0.0`: the two compare equal, so no accept
/// decision, cutoff or ranking can tell them apart.
fn pack(doc: DocId, score: f32) -> u64 {
    let bits = (score + 0.0).to_bits();
    let rank = if bits >> 31 == 0 {
        bits | 0x8000_0000
    } else {
        !bits
    };
    u64::from(rank) << 32 | u64::from(!doc)
}

fn unpack(key: u64) -> SearchHit {
    let rank = (key >> 32) as u32;
    let bits = if rank >> 31 == 1 {
        rank & 0x7FFF_FFFF
    } else {
        !rank
    };
    SearchHit {
        doc: !(key as u32),
        score: f32::from_bits(bits),
    }
}

/// A bounded top-k collector.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    len: usize,
    /// Heap node 0 (the worst entry); meaningful while `len > 0`.
    root: u64,
    /// `nodes[n]` holds the children `4n + 1 ..= 4n + 4` of heap node `n`,
    /// so node `n >= 1` lives at `nodes[(n - 1) / 4].0[(n - 1) % 4]`.
    nodes: Vec<Children>,
    /// What [`TopK::cutoff`] returns, refreshed by every accepted insert
    /// and by [`TopK::seed_cutoff`].
    theta: f32,
    inserts: u64,
    offers: u64,
    /// Externally seeded score floor (sharded scatter-gather threshold
    /// sharing): the cutoff never reports below this, so pruning can
    /// engage before the local queue fills. `-inf` when unseeded.
    floor: f32,
    /// The hits in ranking order as of the last [`TopK::hits`] call.
    ranked: Vec<SearchHit>,
}

impl TopK {
    /// Creates an empty queue with capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k capacity must be positive");
        TopK {
            k,
            len: 0,
            root: VACANT,
            nodes: Vec::with_capacity(k.min(4096) / 4),
            theta: f32::NEG_INFINITY,
            inserts: 0,
            offers: 0,
            floor: f32::NEG_INFINITY,
            ranked: Vec::new(),
        }
    }

    /// Capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Empties the queue and resets both counters for a new query of
    /// capacity `k`, keeping the entry allocation (per-worker scratch
    /// reuse across a batch).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "top-k capacity must be positive");
        self.k = k;
        self.len = 0;
        self.nodes.clear();
        self.theta = f32::NEG_INFINITY;
        self.inserts = 0;
        self.offers = 0;
        self.floor = f32::NEG_INFINITY;
    }

    /// Seeds the cutoff with an externally known score floor (the running
    /// k-th score of a scatter-gather merge across earlier shards, whose
    /// documents precede this shard's in global docID order). Documents
    /// provably below the floor cannot enter the *merged* top-k, so
    /// pruning may engage against it before this queue fills. Safe only
    /// under that merge contract; plain single-index queries leave it at
    /// `-inf`.
    pub fn seed_cutoff(&mut self, floor: f32) {
        self.floor = floor;
        self.refresh_theta();
    }

    /// The current cutoff θ: the score of the lowest-ranked entry once the
    /// queue is full, `f32::NEG_INFINITY` before that.
    ///
    /// Early termination may skip any document whose score upper bound does
    /// not *exceed* θ — a document scoring exactly θ would lose the tie to
    /// the incumbents (they have smaller docIDs, having arrived earlier in
    /// docID order).
    pub fn cutoff(&self) -> f32 {
        self.theta
    }

    fn refresh_theta(&mut self) {
        self.theta = if self.len == self.k {
            unpack(self.root).score.max(self.floor)
        } else {
            self.floor
        };
    }

    /// Offers a scored document. Returns `true` if it entered the queue.
    ///
    /// Documents must be offered in ascending docID order for tie-breaking
    /// to match the reference ranking (the pipeline produces them that
    /// way).
    pub fn offer(&mut self, doc: DocId, score: f32) -> bool {
        self.offers += 1;
        if self.len == self.k {
            if score <= self.theta {
                return false;
            }
            // `score` beats θ, hence the root: the root is what leaves.
            self.sift_down(pack(doc, score));
        } else {
            self.sift_up(pack(doc, score));
            self.len += 1;
        }
        self.inserts += 1;
        self.refresh_theta();
        true
    }

    fn node(&self, n: usize) -> u64 {
        if n == 0 {
            self.root
        } else {
            self.nodes[(n - 1) / 4].0[(n - 1) % 4]
        }
    }

    fn set_node(&mut self, n: usize, key: u64) {
        if n == 0 {
            self.root = key;
        } else {
            self.nodes[(n - 1) / 4].0[(n - 1) % 4] = key;
        }
    }

    /// Adds `key` as node `len` and restores heap order towards the root.
    fn sift_up(&mut self, key: u64) {
        let mut n = self.len;
        if n > 0 && (n - 1).is_multiple_of(4) {
            self.nodes.push(Children([VACANT; 4]));
        }
        while n > 0 {
            let parent = (n - 1) / 4;
            let above = self.node(parent);
            if above <= key {
                break;
            }
            self.set_node(n, above);
            n = parent;
        }
        self.set_node(n, key);
    }

    /// Replaces the root with `key` and restores heap order towards the
    /// leaves. The smallest of four children is picked with selects, not
    /// branches: which child wins is a coin toss the predictor loses.
    fn sift_down(&mut self, key: u64) {
        let mut n = 0;
        while let Some(&Children(c)) = self.nodes.get(n) {
            let (lo, lo_at) = if c[1] < c[0] { (c[1], 1) } else { (c[0], 0) };
            let (hi, hi_at) = if c[3] < c[2] { (c[3], 3) } else { (c[2], 2) };
            let (least, at) = if hi < lo { (hi, hi_at) } else { (lo, lo_at) };
            if key <= least {
                break;
            }
            self.set_node(n, least);
            n = 4 * n + 1 + at;
        }
        self.set_node(n, key);
    }

    /// Number of accepted insertions (each costs one broadcast cycle).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Number of offered documents (accepted or not).
    pub fn offers(&self) -> u64 {
        self.offers
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no documents were accepted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offers a whole scored block, exactly equivalent to calling
    /// [`TopK::offer`] once per posting in order (same entries, same
    /// `inserts`/`offers` counters), but without touching the queue for
    /// runs of losers: once the queue is full, a posting with
    /// `score <= θ` can only be rejected, and rejections leave θ
    /// unchanged, so a cheap compare sweep stands in for those calls.
    ///
    /// Like `offer`, postings must arrive in ascending docID order.
    ///
    /// # Panics
    ///
    /// Panics if `docs` and `scores` differ in length.
    pub fn sift_block(&mut self, docs: &[DocId], scores: &[f32]) {
        assert_eq!(docs.len(), scores.len(), "docID / score streams must align");
        let n = docs.len();
        let mut i = 0;
        while i < n {
            if self.len == self.k {
                let theta = self.theta;
                let losers = scores[i..].iter().take_while(|&&s| s <= theta).count();
                self.offers += losers as u64;
                i += losers;
                if i == n {
                    break;
                }
            }
            self.offer(docs[i], scores[i]);
            i += 1;
        }
    }

    fn ranked(&self) -> Vec<SearchHit> {
        let mut keys: Vec<u64> = (0..self.len).map(|n| self.node(n)).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.into_iter().map(unpack).collect()
    }

    /// The current hits in ranking order, without consuming the queue
    /// (used by the scratch-reuse path, which copies results out and
    /// recycles the allocation). Reading them leaves the queue as it was:
    /// offers may continue afterwards.
    pub fn hits(&mut self) -> &[SearchHit] {
        self.ranked = self.ranked();
        &self.ranked
    }

    /// Consumes the queue, returning hits in ranking order.
    pub fn into_hits(self) -> Vec<SearchHit> {
        self.ranked()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut q = TopK::new(3);
        for (doc, score) in [(0, 1.0f32), (1, 5.0), (2, 3.0), (3, 4.0), (4, 0.5)] {
            q.offer(doc, score);
        }
        let hits = q.into_hits();
        let docs: Vec<_> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![1, 3, 2]);
    }

    #[test]
    fn cutoff_tracks_kth_score() {
        let mut q = TopK::new(2);
        assert_eq!(q.cutoff(), f32::NEG_INFINITY);
        q.offer(0, 2.0);
        assert_eq!(q.cutoff(), f32::NEG_INFINITY, "not full yet");
        q.offer(1, 5.0);
        assert_eq!(q.cutoff(), 2.0);
        q.offer(2, 3.0);
        assert_eq!(q.cutoff(), 3.0);
    }

    #[test]
    fn tie_prefers_earlier_doc() {
        let mut q = TopK::new(2);
        q.offer(10, 1.0);
        q.offer(20, 1.0);
        assert!(!q.offer(30, 1.0), "tie with cutoff is rejected");
        let hits = q.into_hits();
        assert_eq!(hits[0].doc, 10);
        assert_eq!(hits[1].doc, 20);
    }

    #[test]
    fn matches_reference_ordering_on_random_input() {
        // Pseudo-random but doc-ordered offers, as the pipeline produces.
        let scores: Vec<f32> = (0..500u32)
            .map(|i| ((i.wrapping_mul(2654435761) >> 7) % 1000) as f32 / 10.0)
            .collect();
        let mut q = TopK::new(50);
        for (doc, &s) in scores.iter().enumerate() {
            q.offer(doc as u32, s);
        }
        let got = q.into_hits();
        let mut expect: Vec<SearchHit> = scores
            .iter()
            .enumerate()
            .map(|(d, &s)| SearchHit {
                doc: d as u32,
                score: s,
            })
            .collect();
        expect.sort_by(SearchHit::ranking_cmp);
        expect.truncate(50);
        assert_eq!(got, expect);
    }

    #[test]
    fn insert_and_offer_counters() {
        let mut q = TopK::new(1);
        q.offer(0, 1.0);
        q.offer(1, 0.5);
        q.offer(2, 2.0);
        assert_eq!(q.offers(), 3);
        assert_eq!(q.inserts(), 2);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn sift_block_equals_sequential_offers() {
        let scores: Vec<f32> = (0..640u32)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 997) as f32 / 31.0)
            .collect();
        let docs: Vec<u32> = (0..640).collect();
        for k in [1usize, 7, 50, 640, 1000] {
            let mut seq = TopK::new(k);
            for (&d, &s) in docs.iter().zip(&scores) {
                seq.offer(d, s);
            }
            let mut bulk = TopK::new(k);
            for chunk in 0..5 {
                let r = chunk * 128..(chunk + 1) * 128;
                bulk.sift_block(&docs[r.clone()], &scores[r]);
            }
            assert_eq!(bulk.hits(), seq.hits(), "k={k}");
            assert_eq!(bulk.offers(), seq.offers(), "k={k}");
            assert_eq!(bulk.inserts(), seq.inserts(), "k={k}");
        }
    }

    #[test]
    fn reset_keeps_allocation_and_clears_state() {
        let mut q = TopK::new(3);
        q.offer(0, 1.0);
        q.offer(1, 2.0);
        q.reset(2);
        assert_eq!(q.k(), 2);
        assert!(q.is_empty());
        assert_eq!(q.offers(), 0);
        assert_eq!(q.inserts(), 0);
        assert_eq!(q.cutoff(), f32::NEG_INFINITY);
        q.offer(5, 4.0);
        assert_eq!(q.hits(), &[SearchHit { doc: 5, score: 4.0 }]);
    }

    #[test]
    fn packed_order_is_ranking_order() {
        let scores = [
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::INFINITY,
        ];
        let hits: Vec<SearchHit> = (scores.iter())
            .flat_map(|&score| [0, 7, u32::MAX].map(|doc| SearchHit { doc, score }))
            .collect();
        for a in &hits {
            assert_eq!(unpack(pack(a.doc, a.score)), *a);
            for b in &hits {
                assert_eq!(
                    pack(b.doc, b.score).cmp(&pack(a.doc, a.score)),
                    a.ranking_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }
}
