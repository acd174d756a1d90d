//! The lists of an index share one store, and so do an index and its
//! clones. These properties hold that sharing invisible: a descriptor
//! forged through the corruption hooks — any `offset` / `len` /
//! `tf_offset` / count over the field's whole range, on any block of any
//! list — decodes exactly as the same forgery on a list that was encoded
//! alone (a typed error, or values read from that list's own payload and
//! nothing else), and every other list, every other shard and the index
//! the clone was taken from still equal the pristine build. Equality
//! itself is by content: the same corpus compares equal whichever path
//! built it and whatever seed its term table hashes with.

use boss_index::shard::ShardedIndex;
use boss_index::{BlockMeta, EncodedList, IndexBuilder, InvertedIndex, ListEncoder, SchemeChoice};
use proptest::prelude::*;

const TERMS: u32 = 12;
const DOCS: u32 = 2400;

/// Twelve terms of 200 to 2400 postings (2 to 19 blocks) over 2400
/// documents, so every shard of a four-way split holds multi-block lists.
fn corpus() -> InvertedIndex {
    let docs: Vec<String> = (0..DOCS)
        .map(|d| {
            (0..TERMS)
                .filter(|t| d.is_multiple_of(t + 1))
                .map(|t| format!("w{t:02} ").repeat(1 + ((d + t) % 3) as usize))
                .collect()
        })
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .expect("corpus builds")
}

/// The list re-encoded from its postings, with a store to itself.
fn encoded_alone(index: &InvertedIndex, list: &EncodedList) -> EncodedList {
    let (docs, tfs) = list.decode_all().expect("pristine list decodes");
    let alone = ListEncoder::new()
        .encode(
            &docs,
            &tfs,
            SchemeChoice::Hybrid,
            index.bm25(),
            list.idf(),
            index.doc_norms(),
        )
        .expect("pristine list encodes");
    assert_eq!(&alone, list, "one encoder, one result");
    alone
}

fn forge(meta: &mut BlockMeta, field: usize, value: u32) {
    match field {
        0 => meta.offset = value,
        1 => meta.len = value,
        2 => meta.tf_offset = value,
        3 => meta.delta_info.count = value as u16,
        4 => meta.tf_info.count = value as u16,
        _ => {
            meta.delta_info.count = value as u16;
            meta.tf_info.count = value as u16;
        }
    }
}

/// Values across a field's range with the small ones — those that still
/// land inside some list's bytes — well represented.
fn field_value() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..4096, any::<u32>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_forged_descriptor_reads_its_own_list_only(
        term_sel in any::<u32>(),
        block_sel in any::<u32>(),
        field in 0usize..6,
        value in field_value(),
    ) {
        let pristine = corpus();
        let mut index = pristine.clone();
        let term = term_sel % index.n_terms() as u32;
        let block = block_sel as usize % index.list(term).n_blocks();
        let mut alone = encoded_alone(&pristine, pristine.list(term));

        forge(&mut index.list_mut(term).blocks_mut()[block], field, value);
        forge(&mut alone.blocks_mut()[block], field, value);

        let list = index.list(term);
        prop_assert_eq!(list.decode_all(), alone.decode_all());
        for b in 0..list.n_blocks() {
            let (mut docs, mut tfs) = (Vec::new(), Vec::new());
            let (mut alone_docs, mut alone_tfs) = (Vec::new(), Vec::new());
            prop_assert_eq!(
                list.decode_block(b, &mut docs, &mut tfs),
                alone.decode_block(b, &mut alone_docs, &mut alone_tfs),
                "block {}", b
            );
            prop_assert_eq!((docs, tfs), (alone_docs, alone_tfs), "block {}", b);
        }

        for other in pristine.term_ids().filter(|&t| t != term) {
            prop_assert_eq!(index.list(other), pristine.list(other), "sibling list {}", other);
        }
        prop_assert_eq!(&pristine, &corpus(), "the index the clone was taken from");
    }

    #[test]
    fn a_forged_descriptor_stays_in_its_shard(
        shard_sel in any::<u32>(),
        term_sel in any::<u32>(),
        block_sel in any::<u32>(),
        field in 0usize..6,
        value in field_value(),
    ) {
        let pristine = ShardedIndex::split(&corpus(), 4).expect("splits");
        let mut sharded = pristine.clone();
        let victim = shard_sel as usize % sharded.n_shards();
        let shard = sharded.shard_mut(victim);
        let term = term_sel % shard.n_terms() as u32;
        let block = block_sel as usize % shard.list(term).n_blocks();
        forge(&mut shard.list_mut(term).blocks_mut()[block], field, value);

        for (s, (shard, quiet)) in sharded.shards().iter().zip(pristine.shards()).enumerate() {
            if s != victim {
                prop_assert_eq!(shard, quiet, "sibling shard {}", s);
                continue;
            }
            for other in quiet.term_ids().filter(|&t| t != term) {
                prop_assert_eq!(shard.list(other), quiet.list(other), "sibling list {}", other);
            }
        }
        let again = ShardedIndex::split(&corpus(), 4).expect("splits");
        prop_assert_eq!(pristine.shards(), again.shards(), "the split the clone was taken from");
    }
}

#[test]
fn equal_content_is_equal_whatever_built_it() {
    // Two builds hash their term tables with different seeds.
    let (a, b) = (corpus(), corpus());
    assert_eq!(a, b);
    assert_eq!(a, a.clone());
    // A one-way split re-encodes every list into a store of its own.
    let whole = ShardedIndex::split(&a, 1).expect("splits");
    assert_eq!(whole.shard(0), &a);
    for t in a.term_ids() {
        assert_eq!(b.term_id(a.term_info(t).text), Ok(t));
    }
    // A list is equal to itself detached, and unequal once it differs.
    let mut detached = a.clone();
    let len = detached.list_mut(3).data_mut().len();
    assert_eq!(detached, a);
    detached.list_mut(3).data_mut()[len - 1] ^= 1;
    assert_ne!(detached, a);
    assert_eq!(b, a);
}
