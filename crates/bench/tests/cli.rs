//! The `figure` binary's command-line contract: a bad invocation prints
//! a diagnostic on stderr and exits with status 2 before any figure runs,
//! and `--help` lists exactly the flags the parser accepts.

use std::process::{Command, Output};

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .output()
        .expect("the figure binary runs")
}

#[test]
fn bad_invocations_exit_2_with_a_diagnostic() {
    let cases: &[&[&str]] = &[
        &["fig13_singlecore", "--scale", "smoke", "--k", "0"],
        &[
            "fig13_singlecore",
            "--scale",
            "smoke",
            "--queries-per-type",
            "0",
        ],
        &["fig13_singlecore", "--seed", "abc"],
        &["no_such_figure"],
        &["fig13_singlecore", "--fault-plan", "7"],
        &["fig13_singlecore", "--degrade", "skip"],
        &["fig13_singlecore", "--serve"],
    ];
    for args in cases {
        let out = figure(args);
        assert_eq!(out.status.code(), Some(2), "figure {args:?}");
        assert!(out.stdout.is_empty(), "figure {args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.trim().is_empty(), "figure {args:?}: no diagnostic");
    }
}

#[test]
fn help_lists_exactly_the_parsed_flags() {
    let out = figure(&["fig13_singlecore", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let flags: Vec<&str> = help
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .collect();
    assert_eq!(
        flags,
        [
            "--scale",
            "--seed",
            "--queries-per-type",
            "--k",
            "--threads",
            "--engines",
            "--algorithm",
        ]
    );
}
