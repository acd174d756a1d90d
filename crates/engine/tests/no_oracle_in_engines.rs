//! The `reference` modules are test oracles: `boss_index::reference::evaluate`
//! (a HashMap-of-HashMaps evaluator every engine is *compared against*)
//! and its unscored `reference::candidates`, and `boss_compress::reference`
//! (the seed per-value decoders).
//! Production code that calls one measures the oracle, not itself (the
//! Lucene-like engine's multi-term path did, and spent two thirds of its
//! host time there). This test reads every library crate's sources and
//! fails if a non-test line outside a `reference` module names one — and
//! reads each oracle's source and fails if it names the kernels it
//! judges, since an oracle built on what it judges makes every
//! comparison circular.

use std::path::{Path, PathBuf};

/// Every library crate (`bench` is the harness that drives the oracles
/// and is exempt).
const LIBRARY_CRATES: [&str; 9] = [
    "compress",
    "decomp",
    "index",
    "scm-sim",
    "workload",
    "core",
    "iiu",
    "luceneish",
    "engine",
];

/// What no production line outside a `reference.rs` may contain: the
/// oracles' entry points, by cross-crate path and by in-crate path.
const ORACLE_NAMES: [&str; 5] = [
    "reference::evaluate",
    "reference::candidates",
    "compress::reference",
    "reference::decode",
    "reference::unpack",
];

/// Each oracle's file, a line proving it is the right file, and the
/// production kernels it must not be built on.
const ORACLES: [(&str, &str, &[&str]); 2] = [
    (
        "index/src/reference.rs",
        "pub fn evaluate",
        &["matches::", "union_scored", "GroupMatches"],
    ),
    (
        "compress/src/reference.rs",
        "pub fn decode",
        &["unpack::unpack", "unpack_w", "decode_word", "decode_packed"],
    ),
];

/// The non-test lines of one source file, with their 1-based numbers,
/// plus the sibling modules it declares test-only (`#[cfg(test)] mod x;`).
/// By this workspace's convention an inline `#[cfg(test)] mod … {` closes
/// the file, so everything after it is test code.
fn production_lines(text: &str) -> (Vec<(usize, &str)>, Vec<String>) {
    let mut kept = Vec::new();
    let mut test_only_files = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, line)) = lines.next() {
        if line == "#[cfg(test)]" {
            let next = lines.peek().map_or("", |&(_, l)| l);
            if let Some(name) = next.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                test_only_files.push(format!("{name}.rs"));
                lines.next();
                continue;
            }
            if next.starts_with("mod ") {
                break;
            }
        }
        if !line.trim_start().starts_with("//") {
            kept.push((n + 1, line));
        }
    }
    (kept, test_only_files)
}

#[test]
fn engine_sources_never_call_the_reference_evaluator() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for krate in LIBRARY_CRATES {
        let src = crates_dir.join(krate).join("src");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", src.display()))
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        let texts: Vec<String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f).expect("readable source"))
            .collect();
        let parsed: Vec<_> = texts.iter().map(|t| production_lines(t)).collect();
        for (file, (lines, _)) in files.iter().zip(&parsed) {
            let name = file.file_name().and_then(|n| n.to_str()).expect("utf-8");
            if name == "reference.rs"
                || parsed
                    .iter()
                    .any(|(_, test_only)| test_only.iter().any(|t| t == name))
            {
                continue;
            }
            scanned += 1;
            for &(n, line) in lines {
                if ORACLE_NAMES.iter().any(|name| line.contains(name)) {
                    offenders.push(format!("{}:{n}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    assert!(
        scanned >= 60,
        "scanned only {scanned} files — wrong directory?"
    );
    assert!(
        offenders.is_empty(),
        "production code calls a test oracle:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_reference_evaluator_never_uses_the_engines_kernels() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    for (file, proof, kernels) in ORACLES {
        let path = crates_dir.join(file);
        let text = std::fs::read_to_string(&path).expect("readable source");
        let (lines, _) = production_lines(&text);
        assert!(
            lines.iter().any(|(_, l)| l.contains(proof)),
            "{} does not define the oracle — wrong file?",
            path.display()
        );
        let offenders: Vec<String> = lines
            .iter()
            .filter(|(_, l)| kernels.iter().any(|name| l.contains(name)))
            .map(|(n, l)| format!("{}:{n}: {}", path.display(), l.trim()))
            .collect();
        assert!(
            offenders.is_empty(),
            "the test oracle is built on the code it judges:\n{}",
            offenders.join("\n")
        );
    }
}

#[test]
fn the_scanner_sees_production_code_and_skips_test_code() {
    let text = "use x;\n#[cfg(test)]\nmod fault_tests;\nfn f() { reference::evaluate(); }\n// reference::evaluate\n#[cfg(test)]\nmod tests {\n    reference::evaluate();\n}\n";
    let (kept, test_only) = production_lines(text);
    assert_eq!(test_only, ["fault_tests.rs"]);
    let hits: Vec<usize> = kept
        .iter()
        .filter(|(_, l)| l.contains("reference::evaluate"))
        .map(|&(n, _)| n)
        .collect();
    assert_eq!(hits, [4]);
}
