//! [`ListEncoder`] against the encoder it replaced. The oracle below is
//! the seed's `EncodedList::encode_with_block_size` (one scheme, gaps and
//! block maxima recomputed per call) and the seed's
//! `builder::encode_term_list` hybrid loop over it (five full encodes,
//! first smallest kept), moved here verbatim except that they build a
//! plain struct instead of the crate-private `EncodedList` fields. Every
//! construction path now encodes through `ListEncoder`, so agreeing with
//! the oracle on every field — scheme, block descriptors, data bytes, df,
//! idf and list-max bits — is what keeps the index's on-disk identity.

use boss_compress::{codec_for, Scheme, ALL_SCHEMES};
use boss_index::shard::ShardedIndex;
use boss_index::{
    BlockMeta, Bm25, Bm25Params, DocId, EncodedList, Error, IndexBuilder, ListEncoder, PostingList,
    SchemeChoice, BLOCK_SIZE,
};
use proptest::prelude::*;

/// What the oracle produces: the fields of an [`EncodedList`].
#[derive(Debug, PartialEq)]
struct OracleList {
    scheme: Scheme,
    blocks: Vec<BlockMeta>,
    data: Vec<u8>,
    df: u32,
    idf: f32,
    max_score: f32,
}

impl OracleList {
    fn of(list: &EncodedList) -> Self {
        OracleList {
            scheme: list.scheme(),
            blocks: list.blocks().to_vec(),
            data: list.data().to_vec(),
            df: list.df(),
            idf: list.idf(),
            max_score: list.max_score(),
        }
    }
}

/// The seed's `EncodedList::encode_with_block_size`.
fn oracle_encode(
    list: &PostingList,
    scheme: Scheme,
    bm25: &Bm25,
    idf: f32,
    norms: &[f32],
    block_size: usize,
) -> Result<OracleList, Error> {
    assert!(block_size > 0 && block_size <= boss_compress::MAX_BLOCK_VALUES);
    let codec = codec_for(scheme);
    let mut blocks = Vec::with_capacity(list.len().div_ceil(block_size));
    let mut data = Vec::new();
    let mut prev_last: Option<DocId> = None;
    let mut list_max = 0.0f32;
    let mut gaps = Vec::with_capacity(block_size);
    let mut tfs_m1 = Vec::with_capacity(block_size);

    let docs = list.docs();
    let tfs = list.tfs();
    for start in (0..docs.len()).step_by(block_size) {
        let end = (start + block_size).min(docs.len());
        let bdocs = &docs[start..end];
        let btfs = &tfs[start..end];

        gaps.clear();
        tfs_m1.clear();
        let mut prev = prev_last;
        for &d in bdocs {
            let gap = match prev {
                Some(p) => d - p,
                None => d,
            };
            gaps.push(gap);
            prev = Some(d);
        }
        tfs_m1.extend(btfs.iter().map(|&tf| tf - 1));

        let offset = data.len() as u32;
        let delta_info = codec.encode(&gaps, &mut data)?;
        let tf_offset = data.len() as u32 - offset;
        let tf_info = codec.encode(&tfs_m1, &mut data)?;
        let len = data.len() as u32 - offset;

        let mut max_score = 0.0f32;
        for (&d, &tf) in bdocs.iter().zip(btfs) {
            let s = bm25.term_score(idf, tf, norms[d as usize]);
            if s > max_score {
                max_score = s;
            }
        }
        list_max = list_max.max(max_score);

        blocks.push(BlockMeta {
            first_doc: bdocs[0],
            last_doc: *bdocs.last().expect("non-empty block"),
            max_score,
            offset,
            len,
            tf_offset,
            delta_info,
            tf_info,
        });
        prev_last = Some(*bdocs.last().expect("non-empty block"));
    }

    Ok(OracleList {
        scheme,
        blocks,
        data,
        df: list.len() as u32,
        idf,
        max_score: list_max,
    })
}

/// The seed's `builder::encode_term_list`.
fn oracle_term_list(
    plist: &PostingList,
    choice: SchemeChoice,
    bm25: &Bm25,
    idf: f32,
    norms: &[f32],
) -> Result<OracleList, Error> {
    match choice {
        SchemeChoice::Fixed(s) => oracle_encode(plist, s, bm25, idf, norms, BLOCK_SIZE),
        SchemeChoice::Hybrid => {
            let mut best: Option<OracleList> = None;
            for s in ALL_SCHEMES {
                if let Ok(enc) = oracle_encode(plist, s, bm25, idf, norms, BLOCK_SIZE) {
                    if best.as_ref().is_none_or(|b| enc.data.len() < b.data.len()) {
                        best = Some(enc);
                    }
                }
            }
            Ok(best.expect("BP is total, so hybrid always has a candidate"))
        }
    }
}

fn bm25() -> Bm25 {
    Bm25::new(Bm25Params::default(), 1000, 50.0)
}

/// One generated list: its length, a docID-gap profile and a tf profile.
/// `gap_bits` bounds ordinary gaps; every `wide_every`-th posting draws a
/// gap up to 2^13 instead, so OptPFD exceptions and S16/S8b layout
/// changes occur mid-block. With `huge_tf`, one tf is above 2^28: its
/// `tf - 1` does not fit Simple16, the same refusal a d-gap of 2^28 gets
/// (which a test cannot afford — the norms array is indexed by docID).
#[derive(Debug, Clone)]
struct ListShape {
    len: usize,
    gap_bits: u32,
    wide_every: usize,
    tf_bits: u32,
    huge_tf: bool,
    seed: u64,
}

fn list_shape() -> impl Strategy<Value = ListShape> {
    (
        prop_oneof![
            prop::sample::select(vec![1usize, 2, 127, 128, 129, 255, 256, 257, 1000]),
            1usize..300,
        ],
        0u32..=7,
        1usize..60,
        0u32..=6,
        0u8..4,
        any::<u64>(),
    )
        .prop_map(
            |(len, gap_bits, wide_every, tf_bits, huge, seed)| ListShape {
                len,
                gap_bits,
                wide_every,
                tf_bits,
                huge_tf: huge == 0,
                seed,
            },
        )
}

/// Renders a shape into a valid posting list and a norms array covering it.
fn render(shape: &ListShape) -> (PostingList, Vec<f32>) {
    let mut x = shape.seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut docs = Vec::with_capacity(shape.len);
    let mut tfs = Vec::with_capacity(shape.len);
    let mut doc = (next() % 3) as u32;
    for i in 0..shape.len {
        if i > 0 {
            let bits = if i % shape.wide_every == 0 {
                13
            } else {
                shape.gap_bits
            };
            doc += 1 + (next() % (1 << bits)) as u32;
        }
        docs.push(doc);
        tfs.push(1 + (next() % (1 << shape.tf_bits)) as u32);
    }
    if shape.huge_tf {
        let at = (next() % shape.len as u64) as usize;
        tfs[at] = (1 << 28) + 1 + (next() % 1000) as u32;
    }
    let norms = (0..=doc)
        .map(|_| 0.25 + (next() % 4096) as f32 / 1024.0)
        .collect();
    let list = PostingList::from_columns(docs, tfs).expect("rendered list is valid");
    (list, norms)
}

fn choices() -> Vec<SchemeChoice> {
    std::iter::once(SchemeChoice::Hybrid)
        .chain(ALL_SCHEMES.into_iter().map(SchemeChoice::Fixed))
        .collect()
}

fn idf_of(seed: u64) -> f32 {
    0.1 + (seed % 997) as f32 / 100.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One reused encoder, every policy, a sequence of lists that grow
    /// and shrink: each result equals the oracle's — including which
    /// error a fixed scheme reports — so no byte of an earlier list's
    /// scratch survives into a later one.
    #[test]
    fn reused_encoder_equals_the_oracle(shapes in prop::collection::vec(list_shape(), 1..6)) {
        let bm25 = bm25();
        let mut encoder = ListEncoder::new();
        for shape in &shapes {
            let (list, norms) = render(shape);
            let idf = idf_of(shape.seed);
            for choice in choices() {
                let got = encoder
                    .encode(list.docs(), list.tfs(), choice, &bm25, idf, &norms)
                    .map(|l| OracleList::of(&l));
                let want = oracle_term_list(&list, choice, &bm25, idf, &norms);
                prop_assert_eq!(&got, &want, "{:?} under {}", shape, choice);
                if shape.huge_tf && choice == SchemeChoice::Hybrid {
                    // Skipped, not fatal.
                    prop_assert!(got.is_ok_and(|l| l.scheme != Scheme::S16));
                }
            }
        }
    }

    /// What a hybrid encode plans — OptPFD's widths, Simple16's words —
    /// belongs to that list alone: hybrid on one list, then every fixed
    /// scheme on another, then hybrid on a list shorter than the first,
    /// all through one encoder, each equal to the oracle. (Hybrid first
    /// on each list, as above, would hide a plan read from the list
    /// before.)
    #[test]
    fn interleaved_choices_never_read_a_stale_plan(
        first in list_shape(),
        fixed in list_shape(),
        last in list_shape(),
    ) {
        let first = ListShape { len: first.len.max(2), ..first };
        let last = ListShape { len: 1 + last.len % (first.len - 1), ..last };
        let sequence = std::iter::once((&first, SchemeChoice::Hybrid))
            .chain(ALL_SCHEMES.map(|scheme| (&fixed, SchemeChoice::Fixed(scheme))))
            .chain([(&last, SchemeChoice::Hybrid)]);
        let bm25 = bm25();
        let mut encoder = ListEncoder::new();
        for (shape, choice) in sequence {
            let (list, norms) = render(shape);
            let idf = idf_of(shape.seed);
            let got = encoder
                .encode(list.docs(), list.tfs(), choice, &bm25, idf, &norms)
                .map(|l| OracleList::of(&l));
            let want = oracle_term_list(&list, choice, &bm25, idf, &norms);
            prop_assert_eq!(got, want, "{:?} under {}", shape, choice);
        }
    }

    /// The ablation entry: every block size 1–128 (and a few above), every
    /// fixed scheme.
    #[test]
    fn explicit_block_sizes_equal_the_oracle(
        shape in list_shape(),
        block_size in prop_oneof![1usize..=128, prop::sample::select(vec![129usize, 512, 4096])],
    ) {
        let bm25 = bm25();
        let (list, norms) = render(&shape);
        let idf = idf_of(shape.seed);
        for scheme in ALL_SCHEMES {
            let got = EncodedList::encode_with_block_size(&list, scheme, &bm25, idf, &norms, block_size)
                .map(|l| OracleList::of(&l));
            let want = oracle_encode(&list, scheme, &bm25, idf, &norms, block_size);
            prop_assert_eq!(got, want, "{:?} {} block size {}", shape, scheme, block_size);
        }
    }

    /// `ShardedIndex::split` re-encodes every shard's slice of every list
    /// under hybrid with the *global* statistics; each shard list equals
    /// the oracle's encode of that slice.
    #[test]
    fn split_shards_equal_a_per_shard_oracle_encode(
        docs in prop::collection::vec((any::<u16>(), 0u8..4), 8..200),
        n_shards in 1u32..=5,
    ) {
        let texts: Vec<String> = docs
            .iter()
            .map(|&(mask, tf_sel)| {
                let mut words = vec!["all".to_owned()];
                for i in 0..16 {
                    if mask & (1 << i) != 0 {
                        for _ in 0..1 + (tf_sel as usize + i) % 3 {
                            words.push(format!("t{i:02}"));
                        }
                    }
                }
                words.join(" ")
            })
            .collect();
        let index = IndexBuilder::new()
            .add_documents(texts.iter().map(String::as_str))
            .build()
            .expect("in-memory build");
        let sharded = ShardedIndex::split(&index, n_shards).expect("split");
        for (s, shard) in sharded.shards().iter().enumerate() {
            let base = sharded.bases()[s];
            let end = base + shard.n_docs();
            for id in index.term_ids() {
                let info = index.term_info(id);
                let (gdocs, gtfs) = index.list(id).decode_all().expect("decode");
                let (local, tfs): (Vec<u32>, Vec<u32>) = gdocs
                    .iter()
                    .zip(&gtfs)
                    .filter(|(&d, _)| (base..end).contains(&d))
                    .map(|(&d, &tf)| (d - base, tf))
                    .unzip();
                let Ok(tid) = shard.term_id(info.text) else {
                    prop_assert!(local.is_empty(), "shard {} lost term {}", s, info.text);
                    continue;
                };
                let slice = PostingList::from_columns(local, tfs).expect("valid slice");
                let want = oracle_term_list(
                    &slice,
                    SchemeChoice::Hybrid,
                    index.bm25(),
                    info.idf,
                    shard.doc_norms(),
                )
                .expect("hybrid encodes");
                prop_assert_eq!(OracleList::of(shard.list(tid)), want, "shard {} term {}", s, info.text);
            }
        }
    }
}

/// Ties are the common case on short lists, and which scheme wins one is
/// the index's identity: the first of `ALL_SCHEMES` with the smallest
/// data area.
#[test]
fn equal_sizes_go_to_the_earlier_scheme() {
    let bm25 = bm25();
    let norms = vec![1.0f32; 4096];
    let mut encoder = ListEncoder::new();
    let mut ties = 0;
    for (docs, tfs) in [
        // Zero-width BP and OptPFD both encode to nothing.
        (vec![0u32], vec![1u32]),
        // Uniform gaps: OptPFD finds no exception worth taking and lands
        // on BP's size.
        ((0..128).map(|i| i * 5).collect(), vec![3; 128]),
        ((0..300).map(|i| i * 9 + 1).collect(), vec![1; 300]),
    ] {
        let list = PostingList::from_columns(docs, tfs).expect("valid");
        let sizes: Vec<Option<usize>> = ALL_SCHEMES
            .iter()
            .map(|&s| {
                oracle_encode(&list, s, &bm25, 1.5, &norms, BLOCK_SIZE)
                    .ok()
                    .map(|l| l.data.len())
            })
            .collect();
        let smallest = sizes.iter().flatten().min().expect("BP is total");
        let first = sizes
            .iter()
            .position(|s| s.as_ref() == Some(smallest))
            .expect("the minimum is one of them");
        if sizes
            .iter()
            .filter(|s| s.as_ref() == Some(smallest))
            .count()
            > 1
        {
            ties += 1;
        }
        let got = encoder
            .encode(
                list.docs(),
                list.tfs(),
                SchemeChoice::Hybrid,
                &bm25,
                1.5,
                &norms,
            )
            .expect("hybrid encodes");
        assert_eq!(got.scheme(), ALL_SCHEMES[first], "sizes {sizes:?}");
        assert_eq!(
            OracleList::of(&got),
            oracle_term_list(&list, SchemeChoice::Hybrid, &bm25, 1.5, &norms).expect("oracle")
        );
    }
    assert_eq!(ties, 3, "every case above is meant to tie");
}

/// Every scheme that wins lists of the corpora wins a shape made for it,
/// so the hybrid winner is packed from each kind of plan: BP's and
/// Simple8b's own encodes, OptPFD at its planned widths and Simple16 from
/// its planned words.
#[test]
fn each_scheme_wins_its_shape() {
    // A list of the CC-News-like corpus (100 000 documents) that Simple8b
    // wins: gaps of 10–15 bits fill its 5×12 and 4×15 words.
    let s8b_docs = vec![
        2035, 7569, 9992, 10873, 11777, 13492, 15335, 16698, 20102, 23252, 24465, 24517, 27861,
        31044, 32843, 49290, 49752, 51291, 54785, 55538, 55676, 57426, 60837, 60927, 61499, 61617,
        69284, 69866, 70491, 71523, 73421, 76713, 77307, 78541, 88653, 89919, 91753, 92961, 97610,
    ];
    let s8b_tfs = vec![
        1, 2, 2, 3, 1, 2, 4, 2, 1, 6, 1, 1, 3, 1, 2, 3, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3,
        1, 3, 1, 1, 1, 1, 2, 1, 2,
    ];
    let cases = [
        // Consecutive documents, every tf 1: a bit per gap, nothing for
        // the tfs.
        (Scheme::Bp, (0..300).collect(), vec![1; 300]),
        // The same with one wide gap per block: OptPFD patches it.
        (
            Scheme::OptPfd,
            (0..300).map(|i| i + (i / 100) * 5000).collect(),
            vec![1; 300],
        ),
        // Runs of 28 one-bit gaps between four nine-bit ones: Simple16
        // packs each run into a word and the wide gaps into their own.
        (
            Scheme::S16,
            (0..300u32)
                .scan(0, |doc, i| {
                    *doc += if i % 32 < 28 { 1 } else { 300 + i % 50 };
                    Some(*doc)
                })
                .collect(),
            vec![1; 300],
        ),
        (Scheme::S8b, s8b_docs, s8b_tfs),
    ];
    let bm25 = bm25();
    let mut encoder = ListEncoder::new();
    for (want, docs, tfs) in cases {
        let norms = vec![1.0f32; *docs.last().expect("non-empty") as usize + 1];
        let list = PostingList::from_columns(docs, tfs).expect("valid");
        let sizes: Vec<Option<usize>> = ALL_SCHEMES
            .iter()
            .map(|&s| {
                oracle_encode(&list, s, &bm25, 1.5, &norms, BLOCK_SIZE)
                    .ok()
                    .map(|l| l.data.len())
            })
            .collect();
        let got = encoder
            .encode(
                list.docs(),
                list.tfs(),
                SchemeChoice::Hybrid,
                &bm25,
                1.5,
                &norms,
            )
            .expect("hybrid encodes");
        assert_eq!(got.scheme(), want, "sizes {sizes:?}");
        assert_eq!(
            OracleList::of(&got),
            oracle_term_list(&list, SchemeChoice::Hybrid, &bm25, 1.5, &norms).expect("oracle")
        );
    }
}

/// The encoder takes raw columns, so it owns the checks
/// `PostingList::from_columns` makes — same error, same position.
#[test]
fn invalid_columns_are_typed_errors() {
    let bm25 = bm25();
    let norms = vec![1.0f32; 16];
    let mut encoder = ListEncoder::new();
    for (docs, tfs) in [
        (vec![3u32, 3], vec![1u32, 1]),
        (vec![0, 5, 4], vec![1, 1, 1]),
        (vec![0, 5, 9], vec![1, 0, 1]),
        (vec![0], vec![0]),
        // Both wrong at position 1: the docID check comes first.
        (vec![2, 1], vec![1, 0]),
        // A docID past the norms before the error: still the error.
        (vec![0, 100, 50], vec![1, 1, 1]),
        (vec![0, 100, 101], vec![1, 1, 0]),
    ] {
        let want = PostingList::from_columns(docs.clone(), tfs.clone()).expect_err("invalid");
        for choice in choices() {
            let got = encoder
                .encode(&docs, &tfs, choice, &bm25, 1.0, &norms)
                .expect_err("invalid columns");
            assert_eq!(got, want, "{docs:?} {tfs:?} under {choice}");
        }
    }
    // The scratch a rejected list left behind does not leak into the next.
    let list = PostingList::from_columns(vec![1, 4, 6], vec![2, 1, 1]).expect("valid");
    let got = encoder
        .encode(
            list.docs(),
            list.tfs(),
            SchemeChoice::Hybrid,
            &bm25,
            1.0,
            &norms,
        )
        .expect("hybrid encodes");
    assert_eq!(
        OracleList::of(&got),
        oracle_term_list(&list, SchemeChoice::Hybrid, &bm25, 1.0, &norms).expect("oracle")
    );
}
