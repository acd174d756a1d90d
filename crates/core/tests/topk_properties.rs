//! Property tests for the top-k queue: against a sort-based oracle over
//! adversarial score orders, and call for call against the sorted-`Vec`
//! queue it replaced.

use boss_core::TopK;
use boss_index::{DocId, SearchHit};
use proptest::prelude::*;

/// The queue `TopK` was before it became a heap, kept verbatim as the
/// reference: a bounded list sorted by the ranking order, one `insert`
/// (and its `memmove`) per accepted offer.
#[derive(Debug, Clone)]
struct SortedVecTopK {
    k: usize,
    entries: Vec<SearchHit>,
    inserts: u64,
    offers: u64,
    floor: f32,
}

impl SortedVecTopK {
    fn new(k: usize) -> Self {
        assert!(k > 0, "top-k capacity must be positive");
        SortedVecTopK {
            k,
            entries: Vec::with_capacity(k.min(4096)),
            inserts: 0,
            offers: 0,
            floor: f32::NEG_INFINITY,
        }
    }

    fn seed_cutoff(&mut self, floor: f32) {
        self.floor = floor;
    }

    fn cutoff(&self) -> f32 {
        match self.entries.last() {
            Some(last) if self.entries.len() >= self.k => last.score.max(self.floor),
            _ => self.floor,
        }
    }

    fn offer(&mut self, doc: DocId, score: f32) -> bool {
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

    fn sift_block(&mut self, docs: &[DocId], scores: &[f32]) {
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

    fn hits(&self) -> &[SearchHit] {
        &self.entries
    }
}

/// Scores that collide often and sit on the awkward spots of the float
/// line: both zeros, denormals, one-ulp neighbours.
fn tricky_score() -> impl Strategy<Value = f32> {
    prop_oneof![
        (0u32..6).prop_map(|s| s as f32 * 0.5),
        Just(0.0f32),
        Just(-0.0f32),
        (1u32..4).prop_map(f32::from_bits),
        (1u32..4).prop_map(|b| -f32::from_bits(b)),
        Just(f32::MIN_POSITIVE),
        (0u32..3).prop_map(|b| f32::from_bits(1.5f32.to_bits() + b)),
        (-8i32..8).prop_map(|s| s as f32 / 4.0),
        (0u32..5000).prop_map(|s| s as f32 / 16.0),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    /// Offer the next `n` postings one by one.
    Offers(usize),
    /// Offer the next `n` postings as one `sift_block`.
    Block(usize),
    Seed(f32),
    ReadHits,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1usize..20).prop_map(Step::Offers),
        4 => (0usize..200).prop_map(Step::Block),
        1 => prop_oneof![tricky_score(), Just(f32::NEG_INFINITY)].prop_map(Step::Seed),
        1 => Just(Step::ReadHits),
    ]
}

/// Everything observable without disturbing either queue.
fn assert_same(heap: &TopK, list: &SortedVecTopK) -> Result<(), TestCaseError> {
    prop_assert_eq!(heap.cutoff(), list.cutoff());
    prop_assert_eq!(heap.len(), list.hits().len());
    prop_assert_eq!(heap.inserts(), list.inserts);
    prop_assert_eq!(heap.offers(), list.offers);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_queue_equals_the_sorted_vec_queue_call_for_call(
        k in prop::sample::select(vec![1usize, 2, 3, 7, 100, 1000]),
        seed_first in prop_oneof![Just(None), tricky_score().prop_map(Some)],
        scores in prop::collection::vec(tricky_score(), 0..2500),
        gaps in prop::collection::vec(1u32..4, 2500),
        steps in prop::collection::vec(step(), 1..60),
    ) {
        let docs: Vec<DocId> = gaps
            .iter()
            .scan(0u32, |d, g| {
                *d += g;
                Some(*d)
            })
            .take(scores.len())
            .collect();
        let mut heap = TopK::new(k);
        let mut list = SortedVecTopK::new(k);
        if let Some(floor) = seed_first {
            heap.seed_cutoff(floor);
            list.seed_cutoff(floor);
            assert_same(&heap, &list)?;
        }
        let mut at = 0;
        // Cycle the steps until every posting is offered.
        for step in steps.iter().cycle() {
            if at == scores.len() {
                break;
            }
            match *step {
                Step::Offers(n) => {
                    for i in at..(at + n).min(scores.len()) {
                        prop_assert_eq!(
                            heap.offer(docs[i], scores[i]),
                            list.offer(docs[i], scores[i])
                        );
                        assert_same(&heap, &list)?;
                    }
                    at = (at + n).min(scores.len());
                }
                Step::Block(n) => {
                    let to = (at + n).min(scores.len());
                    heap.sift_block(&docs[at..to], &scores[at..to]);
                    list.sift_block(&docs[at..to], &scores[at..to]);
                    at = to;
                }
                Step::Seed(floor) => {
                    heap.seed_cutoff(floor);
                    list.seed_cutoff(floor);
                }
                // Materialising the ranking mid-stream must leave the heap
                // able to take the offers that follow.
                Step::ReadHits => prop_assert_eq!(heap.hits(), list.hits()),
            }
            assert_same(&heap, &list)?;
        }
        prop_assert_eq!(heap.hits(), list.hits());
        prop_assert_eq!(heap.into_hits(), list.hits());
    }

    #[test]
    fn topk_matches_sorting_oracle(
        scores in prop::collection::vec(0u32..5000, 0..400),
        k in 1usize..64,
    ) {
        let mut q = TopK::new(k);
        for (doc, &s) in scores.iter().enumerate() {
            q.offer(doc as u32, s as f32 / 16.0);
        }
        let got = q.into_hits();
        let mut expect: Vec<SearchHit> = scores
            .iter()
            .enumerate()
            .map(|(d, &s)| SearchHit { doc: d as u32, score: s as f32 / 16.0 })
            .collect();
        expect.sort_by(SearchHit::ranking_cmp);
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn cutoff_is_exact_kth_best(
        scores in prop::collection::vec(0u32..1000, 1..200),
        k in 1usize..32,
    ) {
        let mut q = TopK::new(k);
        for (doc, &s) in scores.iter().enumerate() {
            q.offer(doc as u32, s as f32);
        }
        let mut sorted: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        if scores.len() >= k {
            prop_assert_eq!(q.cutoff(), sorted[k - 1]);
        } else {
            prop_assert_eq!(q.cutoff(), f32::NEG_INFINITY);
        }
    }

    #[test]
    fn inserts_bounded_by_offers(
        scores in prop::collection::vec(0u32..100, 0..300),
        k in 1usize..16,
    ) {
        let mut q = TopK::new(k);
        for (doc, &s) in scores.iter().enumerate() {
            q.offer(doc as u32, s as f32);
        }
        prop_assert!(q.inserts() <= q.offers());
        prop_assert_eq!(q.offers(), scores.len() as u64);
        prop_assert!(q.len() <= k);
    }
}
