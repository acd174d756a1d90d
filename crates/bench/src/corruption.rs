//! Deterministic corruption harness: seeded mutations of encoded blocks,
//! block metadata (layout fields and the skip record: docID bounds and
//! block-max score), netlist configuration text, on-disk SPIMI segment
//! files, and single shards of a sharded index queried by all three
//! engines, with one invariant —
//! **typed error or bit-correct decode, never a panic, never an
//! out-of-bounds reserve** (and for the sharded trials: degradation
//! confined to the shard that owns the mutated bytes; for the segment
//! trials: the checksum must reject every changed byte image).
//!
//! [`run`] is the whole harness. `tests/corruption.rs` runs it at
//! reduced volume in tier-1; the `corruption_harness` binary drives it at
//! CI scale (≥ 10,000 mutations across the five schemes and the netlist
//! engine, every block both the netlist and its `boss-compress` codec
//! accept decoded to the same values by both).
//!
//! Every trial is a pure function of its seed: the same seed mutates the
//! same bytes the same way on every run, so a CI failure is reproducible
//! locally from the printed seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};

use boss_compress::{codec_for, BlockInfo, Scheme, ALL_SCHEMES, MAX_BLOCK_VALUES};
use boss_core::{BossConfig, DegradePolicy};
use boss_decomp::{schemes, DecompEngine};
use boss_engine::{Boss, Iiu, Lucene, SearchEngine};
use boss_iiu::IiuConfig;
use boss_index::segment::{write_segment, SegmentReader};
use boss_index::shard::ShardedIndex;
use boss_index::{
    BlockMeta, EncodedList, IndexBuilder, InvertedIndex, QueryAlgorithm, QueryExpr, SchemeChoice,
    SegmentRegions,
};
use boss_luceneish::LuceneConfig;

/// Output vectors start empty and every decode path reserves at most
/// [`MAX_BLOCK_VALUES`] slots up front, so allocator round-up aside the
/// capacity after a decode attempt must stay within a small multiple.
const RESERVE_BOUND: usize = 2 * MAX_BLOCK_VALUES;

/// xorshift64* — the harness's only randomness source. Deliberately
/// hand-rolled: the mutation stream must stay identical across toolchain
/// and dependency updates, because CI failure messages quote seeds.
#[derive(Debug, Clone)]
struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// A generator seeded with `seed` (0 is remapped; xorshift has no
    /// zero orbit).
    fn new(seed: u64) -> Self {
        Xorshift64 {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next raw 64-bit draw.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `0..n` (`n` must be non-zero).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One category of seeded mutation. The harness cycles through all of
/// them; `apply` mutates in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Flip one random bit of the encoded bytes.
    BitFlip,
    /// Overwrite one random byte with a random value.
    ByteSet,
    /// Truncate the encoded bytes at a random point.
    Truncate,
    /// Append random garbage bytes.
    Extend,
    /// Corrupt the block descriptor (count / bit width / exception
    /// offset) instead of the data.
    Descriptor,
}

/// All mutation categories, in the order the harness cycles through them.
const ALL_MUTATIONS: [Mutation; 5] = [
    Mutation::BitFlip,
    Mutation::ByteSet,
    Mutation::Truncate,
    Mutation::Extend,
    Mutation::Descriptor,
];

/// Applies `mutation` to an encoded block (`data`, `info`) using draws
/// from `rng`.
fn apply_mutation(
    mutation: Mutation,
    rng: &mut Xorshift64,
    data: &mut Vec<u8>,
    info: &mut BlockInfo,
) {
    match mutation {
        Mutation::BitFlip => {
            if !data.is_empty() {
                let i = rng.below(data.len());
                data[i] ^= 1 << rng.below(8);
            }
        }
        Mutation::ByteSet => {
            if !data.is_empty() {
                let i = rng.below(data.len());
                data[i] = rng.next_u64() as u8;
            }
        }
        Mutation::Truncate => {
            let keep = rng.below(data.len() + 1);
            data.truncate(keep);
        }
        Mutation::Extend => {
            let extra = 1 + rng.below(16);
            for _ in 0..extra {
                data.push(rng.next_u64() as u8);
            }
        }
        Mutation::Descriptor => match rng.below(3) {
            0 => info.count = rng.next_u64() as u16,
            1 => info.bit_width = rng.next_u64() as u8,
            _ => info.exception_offset = rng.next_u64() as u16,
        },
    }
}

/// Aggregate outcome of a batch of trials.
#[derive(Debug, Default)]
pub struct Tally {
    /// Mutations exercised.
    pub trials: u64,
    /// Decodes that still succeeded after mutation.
    pub accepted: u64,
    /// Decodes that surfaced a typed error.
    pub rejected: u64,
    /// Invariant violations, formatted with the offending seed. Empty on
    /// a passing run.
    pub violations: Vec<String>,
}

impl Tally {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.trials += other.trials;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.violations.extend(other.violations);
    }

    fn record(&mut self, accepted: bool) {
        self.trials += 1;
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }
}

/// Deterministic pseudo-random block content: `count` values of up to
/// `max_width` bits (27 keeps every stock scheme in range).
fn random_values(rng: &mut Xorshift64, count: usize, max_width: u32) -> Vec<u32> {
    (0..count)
        .map(|_| {
            let width = rng.below(max_width as usize + 1) as u32;
            if width == 0 {
                0
            } else {
                (rng.next_u64() as u32) & ((1u32 << width) - 1).max(1)
            }
        })
        .collect()
}

/// Encodes one seeded block under `scheme`. Returns `None` for the rare
/// seed whose values a scheme cannot represent (counted as no trial).
fn encoded_block(rng: &mut Xorshift64, scheme: Scheme) -> Option<(Vec<u8>, BlockInfo)> {
    let count = 1 + rng.below(128);
    let values = random_values(rng, count, 27);
    let mut data = Vec::new();
    let info = codec_for(scheme).encode(&values, &mut data).ok()?;
    Some((data, info))
}

/// One codec trial: mutate an encoded block, then require that the fast
/// decode path and [`boss_compress::reference::decode`] agree on
/// accept/reject (and on the values when both accept), that the fused
/// d-gap path agrees with the fast path, that nothing panics, and that
/// no path reserves beyond [`RESERVE_BOUND`].
fn codec_trial(scheme: Scheme, seed: u64, tally: &mut Tally) {
    let mut rng = Xorshift64::new(seed ^ ((scheme as u64) << 56));
    let Some((mut data, mut info)) = encoded_block(&mut rng, scheme) else {
        return;
    };
    let mutation = ALL_MUTATIONS[rng.below(ALL_MUTATIONS.len())];
    apply_mutation(mutation, &mut rng, &mut data, &mut info);

    let codec = codec_for(scheme);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        let mut fused = Vec::new();
        let fast_res = codec.decode(&data, &info, &mut fast);
        let ref_res = boss_compress::reference::decode(scheme, &data, &info, &mut reference);
        let fused_res = codec.decode_d1(&data, &info, 7, &mut fused);
        (
            fast_res.is_ok(),
            ref_res.is_ok(),
            fused_res.is_ok(),
            fast,
            reference,
        )
    }));
    match outcome {
        Err(_) => tally
            .violations
            .push(format!("{scheme}: PANIC on {mutation:?} seed {seed}")),
        Ok((fast_ok, ref_ok, fused_ok, fast, reference)) => {
            tally.record(fast_ok);
            if fast_ok != ref_ok {
                tally.violations.push(format!(
                    "{scheme}: fast/reference accept disagreement ({fast_ok} vs {ref_ok}) on {mutation:?} seed {seed}"
                ));
            }
            if fast_ok && ref_ok && fast != reference {
                tally.violations.push(format!(
                    "{scheme}: fast/reference value disagreement on {mutation:?} seed {seed}"
                ));
            }
            if fast_ok != fused_ok {
                tally.violations.push(format!(
                    "{scheme}: decode/decode_d1 accept disagreement ({fast_ok} vs {fused_ok}) on {mutation:?} seed {seed}"
                ));
            }
            for (label, v) in [("fast", &fast), ("reference", &reference)] {
                if v.capacity() > RESERVE_BOUND {
                    tally.violations.push(format!(
                        "{scheme}: {label} reserved {} (> {RESERVE_BOUND}) on {mutation:?} seed {seed}",
                        v.capacity()
                    ));
                }
            }
        }
    }
}

/// One netlist-data trial: the Fig. 8 engine over a mutated block must
/// return `Ok` with exactly `info.count` values or a typed error — never
/// panic, never over-reserve — and when the scheme's `boss-compress`
/// codec accepts the same mutated block too, the two must decode it to
/// the same values.
fn netlist_data_trial(engine: &DecompEngine, scheme: Scheme, seed: u64, tally: &mut Tally) {
    let mut rng = Xorshift64::new(seed ^ 0xD1C0_0000 ^ ((scheme as u64) << 56));
    let Some((mut data, mut info)) = encoded_block(&mut rng, scheme) else {
        return;
    };
    let mutation = ALL_MUTATIONS[rng.below(ALL_MUTATIONS.len())];
    apply_mutation(mutation, &mut rng, &mut data, &mut info);

    let outcome = catch_unwind(AssertUnwindSafe(|| engine.decode(&data, &info)));
    match outcome {
        Err(_) => tally.violations.push(format!(
            "{scheme} netlist: PANIC on {mutation:?} seed {seed}"
        )),
        Ok(res) => {
            tally.record(res.is_ok());
            let Ok(decoded) = res else {
                return;
            };
            if decoded.values.len() != info.count as usize {
                tally.violations.push(format!(
                    "{scheme} netlist: accepted but produced {} of {} values on {mutation:?} seed {seed}",
                    decoded.values.len(),
                    info.count
                ));
            }
            if decoded.values.capacity() > RESERVE_BOUND {
                tally.violations.push(format!(
                    "{scheme} netlist: reserved {} (> {RESERVE_BOUND}) on {mutation:?} seed {seed}",
                    decoded.values.capacity()
                ));
            }
            let mut codec = Vec::new();
            if codec_for(scheme).decode(&data, &info, &mut codec).is_ok() && codec != decoded.values
            {
                tally.violations.push(format!(
                    "{scheme} netlist: values differ from the codec's on {mutation:?} seed {seed}"
                ));
            }
        }
    }
}

/// One netlist-config trial: mutate the scheme's shipped configuration
/// *text* and require parse to return `Ok` or a typed [`boss_decomp::ParseError`];
/// when the mangled text still parses, decoding a valid block through it
/// must also not panic (typed errors and wrong values are both fine — a
/// different program is a different program).
fn netlist_config_trial(scheme: Scheme, seed: u64, tally: &mut Tally) {
    let mut rng = Xorshift64::new(seed ^ 0xCF60_0000 ^ ((scheme as u64) << 56));
    let mut text = schemes::config_text(scheme).as_bytes().to_vec();
    // One or two byte-level edits; lossy UTF-8 recovery keeps the parser
    // exercised rather than trivially rejecting invalid encodings.
    for _ in 0..=rng.below(2) {
        let mut unused = BlockInfo::default();
        let mutation = ALL_MUTATIONS[rng.below(4)]; // data mutations only
        apply_mutation(mutation, &mut rng, &mut text, &mut unused);
    }
    let text = String::from_utf8_lossy(&text).into_owned();

    let Some((data, info)) = encoded_block(&mut rng, scheme) else {
        return;
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Whatever program survived the mangling, running it must stay
        // inside the typed-error contract.
        DecompEngine::from_config_text(&text).map(|engine| engine.decode(&data, &info))
    }));
    match outcome {
        Err(_) => tally
            .violations
            .push(format!("{scheme} netlist config: PANIC at seed {seed}")),
        Ok(parsed) => tally.record(parsed.is_ok()),
    }
}

/// Corrupts the skip record of a descriptor — the fields cursors take
/// skip decisions on without decoding: a bit of `first_doc` or
/// `last_doc` (near or far from the truth), or `max_score` to any bit
/// pattern (NaN, negative, infinite, lowered, raised).
fn mutate_bounds(meta: &mut BlockMeta, rng: &mut Xorshift64) {
    match rng.below(3) {
        0 => meta.first_doc ^= 1 << rng.below(32),
        1 => meta.last_doc ^= 1 << rng.below(32),
        _ => meta.max_score = f32::from_bits(rng.next_u64() as u32),
    }
}

/// One index-level trial: clone a real [`EncodedList`], corrupt its data
/// area or a [`BlockMeta`] field through the harness hooks, and require
/// `decode_block` to return a typed error or a coherent decode
/// (equal-length columns), never panic, never over-reserve.
fn meta_trial(list: &EncodedList, seed: u64, tally: &mut Tally) {
    let mut rng = Xorshift64::new(seed ^ 0x3E7A_0000);
    let mut list = list.clone();
    let block = rng.below(list.n_blocks());
    if rng.below(2) == 0 {
        let mut unused = BlockInfo::default();
        let mutation = ALL_MUTATIONS[rng.below(4)]; // data mutations only
        apply_mutation(mutation, &mut rng, list.data_mut(), &mut unused);
    } else {
        let meta = &mut list.blocks_mut()[block];
        match rng.below(9) {
            0 => meta.offset = rng.next_u64() as u32,
            1 => meta.len = rng.next_u64() as u32,
            2 => meta.tf_offset = rng.next_u64() as u32,
            3 => meta.delta_info.count = rng.next_u64() as u16,
            4 => meta.tf_info.count = rng.next_u64() as u16,
            5 => meta.delta_info.bit_width = rng.next_u64() as u8,
            _ => mutate_bounds(meta, &mut rng),
        }
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        let res = list.decode_block(block, &mut docs, &mut tfs);
        (res.is_ok(), docs, tfs)
    }));
    match outcome {
        Err(_) => tally
            .violations
            .push(format!("meta: PANIC at seed {seed} (block {block})")),
        Ok((ok, docs, tfs)) => {
            tally.record(ok);
            if ok && docs.len() != tfs.len() {
                tally.violations.push(format!(
                    "meta: accepted with ragged columns ({} docs, {} tfs) at seed {seed}",
                    docs.len(),
                    tfs.len()
                ));
            }
            if docs.capacity() > RESERVE_BOUND || tfs.capacity() > RESERVE_BOUND {
                tally.violations.push(format!(
                    "meta: reserved {}/{} (> {RESERVE_BOUND}) at seed {seed}",
                    docs.capacity(),
                    tfs.capacity()
                ));
            }
        }
    }
}

/// The harness's stock corpus: 700 documents, every one holding `probe`
/// (a multi-block list) and a hashed third also `filler`.
///
/// # Panics
///
/// Panics if the corpus fails to build — impossible by construction, and
/// a harness that cannot set up must fail loudly.
fn harness_index(scheme: SchemeChoice) -> InvertedIndex {
    let docs = (0u32..700).map(|i| {
        if i.wrapping_mul(2654435761) % 3 == 0 {
            "probe filler"
        } else {
            "probe"
        }
    });
    IndexBuilder::new()
        .scheme(scheme)
        .add_documents(docs)
        .build()
        .expect("harness corpus builds")
}

/// Sharded corpora for the containment trials: a 700-document synthetic
/// corpus split two and four ways, so every shard holds a multi-block
/// `probe` list plus a sparser `filler` list.
///
/// # Panics
///
/// Panics if the synthetic corpus fails to build or split — impossible
/// by construction, and a harness that cannot set up must fail loudly.
fn sharded_fixtures() -> Vec<ShardedIndex> {
    let index = harness_index(SchemeChoice::Hybrid);
    [2u32, 4]
        .iter()
        .map(|&n| ShardedIndex::split(&index, n).expect("harness split succeeds"))
        .collect()
}

/// One sharded-containment trial: corrupt a single shard of a
/// [`ShardedIndex`] clone through the harness hooks, run every shard's
/// BOSS engine under the `SkipBlock` degradation policy, and require
///
/// * no panic anywhere,
/// * every *other* shard's [`boss_engine::QueryOutcome`] byte-identical
///   to the quiet (unmutated) split with zero fault-skipped blocks —
///   shards share no storage, so corruption must stay confined to the
///   device that owns the mutated bytes,
/// * the victim shard itself to finish: a completed query (its rejected
///   blocks counted in `blocks_skipped_fault`) or a typed error, never a
///   panic — and the same of the IIU and Lucene-like engines over the
///   victim, exhaustive and under Block-Max MaxScore.
///
/// A trial is *accepted* when the victim shard shrugged the mutation off
/// entirely (outcome bit-identical to quiet, nothing skipped) and
/// *rejected* when the mutation cost it blocks or the whole query.
fn sharded_trial(base: &ShardedIndex, seed: u64, tally: &mut Tally) {
    let n = base.n_shards();
    let mut rng = Xorshift64::new(seed ^ 0x5AA2_D000 ^ ((n as u64) << 56));
    let victim = rng.below(n);
    let mut corrupted = base.clone();
    {
        let shard = corrupted.shard_mut(victim);
        let tid = rng.below(shard.n_terms()) as u32;
        let list = shard.list_mut(tid);
        if rng.below(2) == 0 {
            let mut unused = BlockInfo::default();
            let mutation = ALL_MUTATIONS[rng.below(4)]; // data mutations only
            apply_mutation(mutation, &mut rng, list.data_mut(), &mut unused);
        } else {
            let block = rng.below(list.n_blocks());
            let meta = &mut list.blocks_mut()[block];
            match rng.below(5) {
                0 => meta.offset = rng.next_u64() as u32,
                1 => meta.len = rng.next_u64() as u32,
                2 => meta.delta_info.count = rng.next_u64() as u16,
                3 => meta.delta_info.bit_width = rng.next_u64() as u8,
                _ => mutate_bounds(meta, &mut rng),
            }
        }
    }

    let query = if rng.below(2) == 0 {
        QueryExpr::and([QueryExpr::term("probe"), QueryExpr::term("filler")])
    } else {
        QueryExpr::or([QueryExpr::term("probe"), QueryExpr::term("filler")])
    };
    let config = || {
        BossConfig::with_cores(2)
            .with_k(50)
            .with_degrade(DegradePolicy::SkipBlock)
    };

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        base.shards()
            .iter()
            .zip(corrupted.shards())
            .map(|(quiet_shard, sick_shard)| {
                let mut quiet = Boss::new(quiet_shard, config());
                let mut sick = Boss::new(sick_shard, config());
                (quiet.search(&query, 50), sick.search(&query, 50))
            })
            .collect::<Vec<_>>()
    }));
    // The baselines answer on the victim too, exhaustive and pruned: an
    // outcome or a typed error, never a panic.
    let sick = corrupted.shard(victim);
    for algorithm in [QueryAlgorithm::Exhaustive, QueryAlgorithm::BlockMaxMaxScore] {
        let baselines = catch_unwind(AssertUnwindSafe(|| {
            let _ =
                Iiu::new(sick, IiuConfig::default().with_algorithm(algorithm)).search(&query, 50);
            let _ = Lucene::new(sick, LuceneConfig::default().with_algorithm(algorithm))
                .search(&query, 50);
        }));
        if baselines.is_err() {
            tally.violations.push(format!(
                "shard: baseline PANIC under {algorithm} at seed {seed} (victim {victim} of {n})"
            ));
        }
    }
    match outcome {
        Err(_) => tally.violations.push(format!(
            "shard: PANIC at seed {seed} (victim {victim} of {n})"
        )),
        Ok(rows) => {
            let mut unscathed = true;
            for (s, (quiet_res, sick_res)) in rows.iter().enumerate() {
                let skipped = sick_res
                    .as_ref()
                    .map_or(0, |out| out.eval.blocks_skipped_fault);
                let Ok(quiet_out) = quiet_res else {
                    tally
                        .violations
                        .push(format!("shard: quiet shard {s} failed at seed {seed}"));
                    continue;
                };
                if s == victim {
                    unscathed = matches!(sick_res, Ok(out) if skipped == 0 && out == quiet_out);
                    continue;
                }
                if skipped != 0 {
                    tally.violations.push(format!(
                        "shard: degradation leaked to shard {s} ({skipped} blocks skipped) at seed {seed} (victim {victim} of {n})"
                    ));
                }
                match sick_res {
                    Ok(out) if out == quiet_out => {}
                    Ok(_) => tally.violations.push(format!(
                        "shard: shard {s} outcome diverged from quiet at seed {seed} (victim {victim} of {n})"
                    )),
                    Err(e) => tally.violations.push(format!(
                        "shard: shard {s} failed ({e}) at seed {seed} (victim {victim} of {n})"
                    )),
                }
            }
            tally.record(unscathed);
        }
    }
}

/// Builds one in-memory SPIMI segment file for the segment-format trials:
/// the harness's stock 700-document corpus written through
/// [`write_segment`], with its [`SegmentRegions`] byte map so trials can
/// aim mutations at a specific structure (header, dictionary entry,
/// descriptor array, block payload, checksum trailer).
///
/// # Panics
///
/// Panics if the synthetic corpus fails to build or serialize —
/// impossible by construction, and a harness that cannot set up must
/// fail loudly.
fn segment_fixture() -> (Vec<u8>, SegmentRegions) {
    let index = harness_index(SchemeChoice::Hybrid);
    let mut terms: Vec<(String, EncodedList)> = index
        .term_ids()
        .map(|id| (index.term_info(id).text.to_owned(), index.list(id).clone()))
        .collect();
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut bytes = Vec::new();
    let (_, regions) = write_segment(
        &mut bytes,
        0,
        index.doc_lens(),
        index.bm25().params(),
        &terms,
    )
    .expect("harness segment serializes");
    (bytes, regions)
}

/// The segment structure a [`segment_trial`] mutation lands in, chosen
/// round-robin so every region sees volume.
const SEGMENT_REGIONS: usize = 6;

fn segment_region_range(
    regions: &SegmentRegions,
    pick: usize,
    rng: &mut Xorshift64,
) -> std::ops::Range<usize> {
    let r = match pick {
        0 => regions.header.clone(),
        1 => regions.doc_lens.clone(),
        2 => regions.term_headers[rng.below(regions.term_headers.len())].clone(),
        3 => regions.descriptors[rng.below(regions.descriptors.len())].clone(),
        4 => regions.payloads[rng.below(regions.payloads.len())].clone(),
        _ => regions.checksum.clone(),
    };
    r.start as usize..r.end as usize
}

/// One segment-format trial: mutate the on-disk byte image of a SPIMI
/// segment — a bit flip or byte overwrite aimed at a specific region
/// (header, doc-length array, a dictionary entry, a descriptor array, a
/// block payload, the checksum trailer), or a whole-file truncation or
/// garbage extension — then drain a [`SegmentReader`] over it. Require a
/// typed [`boss_index::io::IoError`] or a clean parse, never a panic;
/// and because every byte up to the trailer is checksummed, any flip
/// that actually changed a byte must be rejected by the time the reader
/// drains (accepting a *changed* image is a violation).
fn segment_trial(bytes: &[u8], regions: &SegmentRegions, seed: u64, tally: &mut Tally) {
    let mut rng = Xorshift64::new(seed ^ 0x5E6_0000);
    let mut mutated = bytes.to_vec();
    match rng.below(4) {
        0 => {
            let range = segment_region_range(regions, rng.below(SEGMENT_REGIONS), &mut rng);
            let i = range.start + rng.below(range.len().max(1));
            if let Some(b) = mutated.get_mut(i) {
                *b ^= 1 << rng.below(8);
            }
        }
        1 => {
            let range = segment_region_range(regions, rng.below(SEGMENT_REGIONS), &mut rng);
            let i = range.start + rng.below(range.len().max(1));
            if let Some(b) = mutated.get_mut(i) {
                *b = rng.next_u64() as u8;
            }
        }
        2 => mutated.truncate(rng.below(mutated.len() + 1)),
        _ => {
            for _ in 0..1 + rng.below(16) {
                mutated.push(rng.next_u64() as u8);
            }
        }
    }
    let changed = mutated != bytes;

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let len = mutated.len() as u64;
        let mut reader = SegmentReader::new(&mutated[..], len)?;
        let mut n_terms = 0usize;
        while let Some((_term, list)) = reader.next_term()? {
            n_terms += 1;
            // Touch the decoded structure so lazily-validated fields run.
            let _ = list.n_blocks();
        }
        Ok::<usize, boss_index::io::IoError>(n_terms)
    }));
    match outcome {
        Err(_) => tally
            .violations
            .push(format!("segment: PANIC at seed {seed}")),
        Ok(res) => {
            tally.record(res.is_ok());
            if changed && res.is_ok() {
                tally.violations.push(format!(
                    "segment: checksum accepted a changed byte image at seed {seed}"
                ));
            }
        }
    }
}

/// Builds one multi-block [`EncodedList`] per stock scheme for the
/// metadata trials, via a small deterministic synthetic corpus.
///
/// # Panics
///
/// Panics if the synthetic corpus fails to build — impossible by
/// construction, and a harness that cannot set up must fail loudly.
fn lists_per_scheme() -> Vec<(Scheme, EncodedList)> {
    ALL_SCHEMES
        .iter()
        .map(|&scheme| {
            let index = harness_index(SchemeChoice::Fixed(scheme));
            let tid = index.term_id("probe").expect("probe term present");
            let list = index.list(tid).clone();
            assert!(list.n_blocks() > 1, "need a multi-block list");
            (scheme, list)
        })
        .collect()
}

/// Runs `trials_per_scheme` seeded mutations of every category against
/// every stock scheme plus the netlist engine, starting at `base_seed`.
/// This is the whole harness; the binary just picks the counts and
/// prints the tally. Every netlist-data trial that the scheme's codec
/// also accepts must decode to the codec's values.
///
/// # Panics
///
/// Panics only if harness *setup* fails (corpus build, stock netlist
/// parse) — trial panics are caught and reported as violations.
pub fn run(base_seed: u64, trials_per_scheme: u64) -> Tally {
    let mut tally = Tally::default();
    // Codec + netlist-data trials split the budget; config and metadata
    // trials add a quarter each so every surface sees real volume.
    let data_trials = trials_per_scheme / 2;
    let side_trials = trials_per_scheme / 4;
    let lists = lists_per_scheme();
    for &scheme in &ALL_SCHEMES {
        let engine = DecompEngine::for_scheme(scheme).expect("stock netlist parses");
        for t in 0..data_trials {
            codec_trial(scheme, base_seed + t, &mut tally);
            netlist_data_trial(&engine, scheme, base_seed + t, &mut tally);
        }
        for t in 0..side_trials {
            netlist_config_trial(scheme, base_seed + t, &mut tally);
        }
    }
    for (_, list) in &lists {
        for t in 0..side_trials {
            meta_trial(list, base_seed + t, &mut tally);
        }
    }
    for base in &sharded_fixtures() {
        for t in 0..side_trials {
            sharded_trial(base, base_seed + t, &mut tally);
        }
    }
    let (segment_bytes, segment_regions) = segment_fixture();
    for t in 0..side_trials {
        segment_trial(&segment_bytes, &segment_regions, base_seed + t, &mut tally);
    }
    tally
}
