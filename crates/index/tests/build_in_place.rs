//! The in-memory build reads injected posting lists where the caller
//! keeps them: between the first `add_posting_list` and the returned
//! index the heap grows by the encoded index plus per-document state and
//! one list's encoder scratch — never by a second copy of the columns.
//!
//! Measured with a counting global allocator (live and peak bytes), so
//! the number is exact and repeats; it is the only test in this binary
//! because the allocator counts the whole process.

use boss_index::{IndexBuilder, PostingList};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn build_holds_no_second_copy_of_the_columns() {
    const LISTS: u32 = 64;
    const POSTINGS: u32 = 20_000;
    let n_docs = 3 * POSTINGS;
    let lists: Vec<(String, PostingList)> = (0..LISTS)
        .map(|t| {
            let docs = (0..POSTINGS).map(|i| 3 * i + t % 3).collect();
            let tfs = (0..POSTINGS).map(|i| 1 + (i + t) % 4).collect();
            (
                format!("t{t:02}"),
                PostingList::from_columns(docs, tfs).expect("ascending, tf >= 1"),
            )
        })
        .collect();
    let lens: Vec<u32> = (0..n_docs).map(|d| 20 + d % 50).collect();
    let raw_column_bytes = (LISTS * POSTINGS) as usize * 8;

    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let mut builder = IndexBuilder::new().doc_lens(lens);
    for (term, list) in &lists {
        builder = builder.add_posting_list(term, list);
    }
    let index = builder.build().expect("valid lists");
    let peak = PEAK.load(Ordering::Relaxed) - entry;

    assert!(
        peak < raw_column_bytes / 2,
        "peak live heap over the build grew by {peak} B; the raw columns are {raw_column_bytes} B"
    );
    assert_eq!(index.n_terms(), LISTS as usize);
    let (docs, tfs) = index.list(0).decode_all().expect("decodes");
    assert_eq!((&docs[..], &tfs[..]), (lists[0].1.docs(), lists[0].1.tfs()));
}
