//! `boss_index::reference::evaluate` is the test oracle: a
//! HashMap-of-HashMaps evaluator every engine is *compared against*. An
//! engine that calls it in production measures the oracle, not itself
//! (the Lucene-like engine's multi-term path did, and spent two thirds of
//! its host time there). This test reads the engine crates' sources and
//! fails if any non-test line names it — and reads the oracle's source
//! and fails if it names the kernels the engines score with, since an
//! oracle built on what it judges makes every comparison circular.

use std::path::{Path, PathBuf};

const ENGINE_CRATES: [&str; 4] = ["core", "iiu", "luceneish", "engine"];

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
    for krate in ENGINE_CRATES {
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
            if parsed
                .iter()
                .any(|(_, test_only)| test_only.iter().any(|t| t == name))
            {
                continue;
            }
            scanned += 1;
            for &(n, line) in lines {
                if line.contains("reference::evaluate") {
                    offenders.push(format!("{}:{n}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    assert!(
        scanned >= 20,
        "scanned only {scanned} files — wrong directory?"
    );
    assert!(
        offenders.is_empty(),
        "production engine code calls the test oracle:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_reference_evaluator_never_uses_the_engines_kernels() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../index/src/reference.rs");
    let text = std::fs::read_to_string(&path).expect("readable source");
    let (lines, _) = production_lines(&text);
    assert!(
        lines.iter().any(|(_, l)| l.contains("pub fn evaluate")),
        "{} does not define the oracle — wrong file?",
        path.display()
    );
    let offenders: Vec<String> = lines
        .iter()
        .filter(|(_, l)| {
            ["matches::", "union_scored", "GroupMatches"]
                .iter()
                .any(|name| l.contains(name))
        })
        .map(|(n, l)| format!("{}:{n}: {}", path.display(), l.trim()))
        .collect();
    assert!(
        offenders.is_empty(),
        "the test oracle is built on the code it judges:\n{}",
        offenders.join("\n")
    );
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
