//! The hardware top-k module: a shift-register priority queue with `k`
//! entries of (docID, query-score), sorted by descending score
//! (Section IV-C "Top-k Module").
//!
//! Functionally a bounded sorted list with the workspace-wide ranking
//! order (score descending, docID ascending on ties); the hardware's
//! broadcast-insert is one cycle per accepted entry, which the timing model
//! charges via [`TopK::inserts`].
//!
//! It lives in `boss-index` so the portable pruned evaluator
//! ([`crate::prune`]) and the device model share one queue — and therefore
//! one threshold sequence; `boss_core::TopK` re-exports it.

use crate::{DocId, SearchHit};

/// A bounded top-k collector.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    entries: Vec<SearchHit>,
    inserts: u64,
    offers: u64,
    /// Externally seeded score floor (sharded scatter-gather threshold
    /// sharing): the cutoff never reports below this, so pruning can
    /// engage before the local queue fills. `-inf` when unseeded.
    floor: f32,
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
            entries: Vec::with_capacity(k.min(4096)),
            inserts: 0,
            offers: 0,
            floor: f32::NEG_INFINITY,
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
        self.entries.clear();
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
    }

    /// The current cutoff θ: the score of the lowest-ranked entry once the
    /// queue is full, `f32::NEG_INFINITY` before that.
    ///
    /// Early termination may skip any document whose score upper bound does
    /// not *exceed* θ — a document scoring exactly θ would lose the tie to
    /// the incumbents (they have smaller docIDs, having arrived earlier in
    /// docID order).
    pub fn cutoff(&self) -> f32 {
        match self.entries.last() {
            Some(last) if self.entries.len() >= self.k => last.score.max(self.floor),
            _ => self.floor,
        }
    }

    /// Offers a scored document. Returns `true` if it entered the queue.
    ///
    /// Documents must be offered in ascending docID order for tie-breaking
    /// to match the reference ranking (the pipeline produces them that
    /// way).
    pub fn offer(&mut self, doc: DocId, score: f32) -> bool {
        self.offers += 1;
        if self.entries.len() == self.k && score <= self.cutoff() {
            return false;
        }
        let hit = SearchHit { doc, score };
        // Insertion point: after all entries that rank at-or-above `hit`.
        // Offers arrive in ascending docID order, so equal scores keep the
        // earlier (smaller) docID first — the reference order.
        let pos = self.entries.partition_point(|e| e.score >= score);
        self.entries.insert(pos, hit);
        if self.entries.len() > self.k {
            self.entries.pop();
        }
        self.inserts += 1;
        true
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
        self.entries.len()
    }

    /// Whether no documents were accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
            if self.entries.len() == self.k {
                let theta = self.cutoff();
                let start = i;
                while i < n && scores[i] <= theta {
                    i += 1;
                }
                self.offers += (i - start) as u64;
                if i == n {
                    break;
                }
            }
            self.offer(docs[i], scores[i]);
            i += 1;
        }
    }

    /// The current hits in ranking order, without consuming the queue
    /// (used by the scratch-reuse path, which copies results out and
    /// recycles the allocation).
    pub fn hits(&self) -> &[SearchHit] {
        &self.entries
    }

    /// Consumes the queue, returning hits in ranking order.
    pub fn into_hits(self) -> Vec<SearchHit> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
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
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }
}
