//! Golden record of what the write path *produces*: for one fixed
//! streamed corpus, under hybrid and each fixed scheme, with spills
//! driven by the byte budget and by the per-segment document cap, every
//! segment file's length and FNV-1a and the builder's `SpimiStats`, and —
//! once per scheme, the two segmentations must merge to `==` indexes —
//! for every list of the merged index its scheme, block count, data hash,
//! block-metadata hash and list-max score bits. The checked-in file was
//! recorded before the accumulator and the list encoder were rewritten,
//! so this test is the executable form of "a faster write path wrote the
//! same bytes": a moved spill boundary, a different hybrid tie-break or a
//! changed score bit shows up as a differing line. (The `*/budget` cells
//! and the six `peak_inmem_bytes` fields were re-recorded when the
//! accumulator went compressed: what the budget is charged for changed,
//! and with it where budget-driven spills fall. Every segment-file line
//! and `segment_bytes` field were re-recorded again when spills became
//! BP transport and the segment checksum a word fold, format version 2.
//! Every merged list is the original record.)
//!
//! After a change that is *meant* to move the on-disk identity, copy the
//! file the failure message names over `tests/golden/write_path.txt`.

use boss_compress::ALL_SCHEMES;
use boss_index::{InvertedIndex, SchemeChoice, SpimiBuilder, SpimiConfig};
use boss_workload::corpus::StreamingCorpusSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/write_path.txt";

/// Small enough for a sub-second test, large enough that the head terms
/// span several 128-posting blocks and the byte budget spills mid-stream.
const SPEC: StreamingCorpusSpec = StreamingCorpusSpec {
    n_docs: 1_200,
    vocab_size: 250,
    zipf_s: 1.1,
    terms_per_doc: 24,
    seed: 0x60_1D,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Ingests [`SPEC`] under `cfg`, records the stats and the segment files,
/// and returns the merged index.
fn record_segments(out: &mut String, label: &str, cfg: SpimiConfig) -> InvertedIndex {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("write-path-{}", label.replace('/', "-")));
    std::fs::remove_dir_all(&dir).ok();
    let mut builder = SpimiBuilder::create(&dir, cfg).expect("create");
    let streamer = SPEC.streamer();
    let mut terms = Vec::new();
    for doc in 0..SPEC.n_docs {
        let len = streamer.doc_terms(doc, &mut terms);
        let id = builder
            .add_document(terms.iter().map(|(t, tf)| (t.as_str(), *tf)), len)
            .expect("add document");
        assert_eq!(id, doc);
    }
    let set = builder.finish().expect("finish");
    let s = set.stats();
    writeln!(
        out,
        "{label} stats docs={} postings={} spills={} peak_inmem_bytes={} segment_bytes={}",
        s.docs, s.postings, s.spills, s.peak_inmem_bytes, s.segment_bytes
    )
    .expect("write to string");
    for e in set.entries() {
        let bytes = std::fs::read(dir.join(&e.file)).expect("read segment");
        writeln!(
            out,
            "{label} {} doc_base={} n_docs={} n_terms={} len={} fnv={:016x}",
            e.file,
            e.doc_base,
            e.n_docs,
            e.n_terms,
            bytes.len(),
            fnv1a(FNV_OFFSET, &bytes)
        )
        .expect("write to string");
    }
    let index = set.merge().expect("merge");
    std::fs::remove_dir_all(&dir).ok();
    index
}

fn record_lists(out: &mut String, label: &str, index: &InvertedIndex) {
    for id in index.term_ids() {
        let list = index.list(id);
        let mut meta = FNV_OFFSET;
        for b in list.blocks() {
            for word in [
                b.first_doc,
                b.last_doc,
                b.max_score.to_bits(),
                b.offset,
                b.len,
                b.tf_offset,
                u32::from(b.delta_info.count),
                u32::from(b.delta_info.bit_width),
                u32::from(b.delta_info.exception_offset),
                u32::from(b.tf_info.count),
                u32::from(b.tf_info.bit_width),
                u32::from(b.tf_info.exception_offset),
            ] {
                meta = fnv1a(meta, &word.to_le_bytes());
            }
        }
        writeln!(
            out,
            "{label} list {} {} df={} blocks={} data={}:{:016x} meta={:016x} max={:08x}",
            index.term_info(id).text,
            list.scheme().label(),
            list.df(),
            list.n_blocks(),
            list.data_bytes(),
            fnv1a(FNV_OFFSET, list.data()),
            meta,
            list.max_score().to_bits()
        )
        .expect("write to string");
    }
}

fn regenerate() -> String {
    let mut out = String::new();
    let choices = std::iter::once(SchemeChoice::Hybrid)
        .chain(ALL_SCHEMES.into_iter().map(SchemeChoice::Fixed));
    for scheme in choices {
        // Spills wherever the accounting crosses 24 KiB (four times) …
        let by_budget = record_segments(
            &mut out,
            &format!("{scheme}/budget"),
            SpimiConfig {
                budget_bytes: 24 << 10,
                scheme,
                ..SpimiConfig::default()
            },
        );
        // … and at fixed document counts, with the budget out of reach.
        let by_doccap = record_segments(
            &mut out,
            &format!("{scheme}/doccap"),
            SpimiConfig {
                max_docs_per_segment: 500,
                scheme,
                ..SpimiConfig::default()
            },
        );
        assert_eq!(
            by_budget, by_doccap,
            "{scheme}: the merge depends on where spills fell"
        );
        record_lists(&mut out, &format!("{scheme}/merged"), &by_budget);
    }
    out
}

#[test]
fn written_bytes_match_the_golden_record() {
    let actual = regenerate();
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("write_path.actual.txt");
    std::fs::write(&dump, &actual).expect("write regenerated record");
    let (line, (got, want)) = actual
        .lines()
        .zip(golden.lines().chain(std::iter::repeat("<missing>")))
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .unwrap_or((
            golden.lines().count(),
            ("<missing>", "<extra golden lines>"),
        ));
    panic!(
        "the write path's output moved at line {} of {GOLDEN}\n  golden: {want}\n  actual: {got}\nfull regenerated record: {}",
        line + 1,
        dump.display()
    );
}
