//! Golden record of every table and figure: each [`REGISTRY`] entry is
//! run in-process and its output — data rows and `#` comments, minus the
//! machine-dependent `# threads` line — byte-compared with a committed
//! file. Tier-1 checks `--scale smoke` against one concatenated golden
//! (`tests/golden/figures_smoke.txt`, `== name ==` sections); the
//! `#[ignore]`d twin checks the defaults against `results/<name>.tsv`
//! (`cargo test --release -p boss-bench --test golden_figures -- --ignored`).
//!
//! The goldens were recorded from the one-binary-per-figure harness
//! before the registry replaced it, so this is also the proof that the
//! move changed no byte. After a change that is *meant* to move a figure,
//! copy the file the failure message names over its golden.

use boss_bench::figures::{Corpora, FigureCtx, REGISTRY};
use boss_bench::BenchArgs;
use boss_workload::corpus::Scale;
use std::path::{Path, PathBuf};

/// Every registry entry's `(name, output)`, all run over one [`Corpora`]
/// so each corpus, suite and shard split is built once.
fn regenerate(scale: Scale) -> Vec<(&'static str, String)> {
    let mut corpora = Corpora::default();
    REGISTRY
        .iter()
        .map(|&(name, run)| {
            let args = BenchArgs {
                scale,
                ..BenchArgs::default()
            };
            let mut buf = Vec::new();
            run(&mut FigureCtx::new(args, &mut buf, &mut corpora))
                .unwrap_or_else(|e| panic!("figure {name} failed: {e}"));
            let text = String::from_utf8(buf).expect("figures print UTF-8");
            let kept = text.lines().filter(|l| !l.starts_with("# threads"));
            (name, kept.flat_map(|l| [l, "\n"]).collect())
        })
        .collect()
}

/// Compares each `(golden path, regenerated text)`; on the first
/// mismatch writes every regenerated file under `target/tmp/figures/`
/// and names the first differing line.
fn assert_matches_goldens(files: &[(PathBuf, String)]) {
    let mismatch = files.iter().find_map(|(path, actual)| {
        let golden = std::fs::read_to_string(path).unwrap_or_default();
        (*actual != golden).then_some((path, actual, golden))
    });
    let Some((path, actual, golden)) = mismatch else {
        return;
    };
    let dump_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures");
    std::fs::create_dir_all(&dump_dir).expect("create dump directory");
    for (path, actual) in files {
        let name = path.file_name().expect("golden paths name a file");
        std::fs::write(dump_dir.join(name), actual).expect("write regenerated figure");
    }
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
        "figure output moved at line {} of {}\n  golden: {want}\n  actual: {got}\nregenerated files: {}",
        line + 1,
        path.display(),
        dump_dir.display()
    );
}

#[test]
fn smoke_scale_figures_match_the_golden_record() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures_smoke.txt");
    let text = regenerate(Scale::Smoke)
        .into_iter()
        .map(|(name, section)| format!("== {name} ==\n{section}"))
        .collect();
    assert_matches_goldens(&[(golden, text)]);
}

#[test]
#[ignore = "default scale: seconds in release, minutes in debug"]
fn default_scale_figures_match_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let files: Vec<(PathBuf, String)> = regenerate(Scale::Small)
        .into_iter()
        .map(|(name, section)| (results.join(format!("{name}.tsv")), section))
        .collect();
    assert_matches_goldens(&files);
}
