//! The repo's benchmark harness. See `benchmark/README.md`.
//!
//! `boss-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out F]`
//! runs one workload in this process and prints every metric by name,
//! then one JSON result line. `boss-benchmark compare A B` applies the
//! bounds of `BENCHMARK.json` to two `--out` files.

mod calib;
mod compare;
mod layers;
mod report;
mod run;
mod setup;
mod stats;
mod trace;

use report::Report;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default seed; `0xB056` is held out for checking claims.
const DEFAULT_SEED: u64 = 0xB055;
/// Where traces and ingest segments go: inside the checkout, git-ignored.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: &'static setup::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = setup::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: boss-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n       boss-benchmark compare A.jsonl B.jsonl [BENCHMARK.json]",
        names.join("|")
    )
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(setup::workload(value).ok_or_else(bad)?),
            "--seed" => seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn run_workload(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::new(w.name, args.seed, args.seconds, args.trace);
    let out_dir = Path::new(OUT_DIR);
    let mut rec = trace::Recorder::new(w.name);
    let mut calib = calib::Calib::new();
    let outcome = run::measure(
        w,
        args.seed,
        args.seconds,
        args.trace,
        out_dir,
        &mut calib,
        &mut report,
    )
    .and_then(|(measured, serving, oracle_us)| {
        if args.trace {
            let window = args.seconds / 2.0;
            layers::run(
                &measured,
                w,
                &serving,
                oracle_us,
                window,
                &mut calib,
                &mut rec,
                &mut report,
            )?;
        }
        if let Some((_, dir)) = &measured.env.ingest {
            std::fs::remove_dir_all(dir).ok();
        }
        println!(
            "# {} reps, median rep {:.3} s, {} threads available, 1 used",
            measured.rep_walls.len(),
            stats::median(&measured.rep_walls),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        );
        println!(
            "# host times are at reference speed; the box ran {:.3}x slower than it (calib.rs)",
            calib.slowdown()
        );
        Ok(())
    });
    if let Err(e) = outcome {
        report.fail(1, e);
    }
    match stats::peak_rss_mb() {
        Some(mb) => report.set_value("peak_rss_mb", mb),
        None => report.fail(0, "VmHWM is not readable".into()),
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        match rec.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                rec.spans().len(),
                path.display()
            ),
            Err(e) => report.fail(0, format!("cannot write {}: {e}", path.display())),
        }
    }
    report.finalize();
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b, rest @ ..] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        let benchmark_json = rest.first().map_or("BENCHMARK.json", String::as_str);
        return match compare::compare(a, b, benchmark_json) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run_workload(&args);
    report.print_human();
    if let Some(path) = &args.out {
        let appended = (path.parent().map_or(Ok(()), std::fs::create_dir_all)).and_then(|()| {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(f, "{}", report.out_line())
        });
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
