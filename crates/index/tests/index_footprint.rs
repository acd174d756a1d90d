//! An index is held as one image, not as a heap of per-term objects:
//! whichever path built it — [`IndexBuilder::build`], a
//! [`boss_index::SegmentSet::merge`] of three segments,
//! [`ShardedIndex::split`] four ways — the allocations it keeps alive are
//! a constant per index, and the bytes are the payload, the block
//! descriptors, the term text and the two per-document tables plus at
//! most 64 B per term (list handle, list start, text end, lookup-table
//! share).
//!
//! Measured with a counting global allocator (live bytes and live
//! allocations), so the numbers are exact and repeat; it is the only test
//! in this binary because the allocator counts the whole process.

use boss_index::shard::ShardedIndex;
use boss_index::{BlockMeta, IndexBuilder, InvertedIndex, PostingList, SpimiBuilder, SpimiConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> (usize, usize) {
    (
        LIVE_ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

const TERMS: u32 = 2500;
const DOCS: u32 = 6000;

/// Term `t` occurs in every `stride(t)`-th document from `t % stride(t)`
/// on: lists of 62 to 6000 postings, 1 to 47 blocks.
fn stride(t: u32) -> u32 {
    1 + t % 97
}

fn tf(t: u32, d: u32) -> u32 {
    1 + (t + d) % 3
}

fn term(t: u32) -> String {
    format!("term{t:04}")
}

/// The most an index of these lists may keep alive.
fn byte_bound(indexes: &[InvertedIndex]) -> usize {
    let mut bound = 0;
    for index in indexes {
        bound += 8 * index.n_docs() as usize + 64 * index.n_terms();
        for id in index.term_ids() {
            let list = index.list(id);
            bound += list.data_bytes() + size_of::<BlockMeta>() * list.n_blocks();
            bound += index.term_info(id).text.len();
        }
    }
    bound
}

/// Allocations one index may keep alive, however many terms it has.
const ALLOCS_PER_INDEX: usize = 16;

#[test]
fn an_index_is_a_constant_number_of_allocations() {
    let lists: Vec<(String, PostingList)> = (0..TERMS)
        .map(|t| {
            let docs: Vec<u32> = (t % stride(t)..DOCS).step_by(stride(t) as usize).collect();
            let tfs = docs.iter().map(|&d| tf(t, d)).collect();
            let list = PostingList::from_columns(docs, tfs).expect("ascending, tf >= 1");
            (term(t), list)
        })
        .collect();

    // The in-memory build.
    let before = live();
    let mut builder = IndexBuilder::new().doc_lens(vec![40; DOCS as usize]);
    for (term, list) in &lists {
        builder = builder.add_posting_list(term, list);
    }
    let built = builder.build().expect("valid lists");
    let held = live();
    assert_eq!(built.n_terms(), TERMS as usize);
    let built = [built];
    let (allocs, bytes) = (held.0 - before.0, held.1 - before.1);
    assert!(
        allocs <= ALLOCS_PER_INDEX,
        "the built index holds {allocs} allocations"
    );
    let bound = byte_bound(&built);
    assert!(
        bytes <= bound,
        "the built index holds {bytes} B, bound {bound}"
    );

    // The same corpus through three segments and the merge.
    let dir = std::env::temp_dir().join(format!("boss-footprint-{}", std::process::id()));
    let cfg = SpimiConfig {
        max_docs_per_segment: DOCS / 3,
        ..SpimiConfig::default()
    };
    let mut spimi = SpimiBuilder::create(&dir, cfg).expect("scratch directory");
    let names: Vec<String> = (0..TERMS).map(term).collect();
    for d in 0..DOCS {
        let bag = (0..TERMS)
            .filter(|&t| d >= t % stride(t) && (d - t % stride(t)).is_multiple_of(stride(t)))
            .map(|t| (names[t as usize].as_str(), tf(t, d)));
        spimi.add_document(bag, 40).expect("document added");
    }
    let set = spimi.finish().expect("segments sealed");
    assert_eq!(set.entries().len(), 3);
    let before = live();
    let merged = set.merge();
    let held = live();
    std::fs::remove_dir_all(&dir).ok();
    let merged = [merged.expect("segments merge")];
    assert_eq!(merged, built, "both paths build the same index");
    let (allocs, bytes) = (held.0 - before.0, held.1 - before.1);
    assert!(
        allocs <= ALLOCS_PER_INDEX,
        "the merged index holds {allocs} allocations"
    );
    assert!(
        bytes <= bound,
        "the merged index holds {bytes} B, bound {bound}"
    );

    // Four shards: four images that share nothing.
    let before = live();
    let sharded = ShardedIndex::split(&built[0], 4).expect("splits");
    let held = live();
    let (allocs, bytes) = (held.0 - before.0, held.1 - before.1);
    assert!(
        allocs <= 4 * ALLOCS_PER_INDEX + 2,
        "the four shards hold {allocs} allocations"
    );
    let bound = byte_bound(sharded.shards()) + 4 * size_of::<InvertedIndex>() + 4 * 4;
    assert!(
        bytes <= bound,
        "the four shards hold {bytes} B, bound {bound}"
    );
}
