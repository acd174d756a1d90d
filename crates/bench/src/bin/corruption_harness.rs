//! Deterministic corruption harness (CI smoke binary).
//!
//! Feeds seeded mutations — bit flips, byte overwrites, truncations,
//! extensions, descriptor corruption — to every stock codec's fast and
//! reference decode paths, the Fig. 8 decompression engine (encoded data
//! *and* configuration text), index-level `decode_block` with corrupted
//! `BlockMeta`, the on-disk SPIMI segment format (header, dictionary,
//! descriptor, payload, and checksum mutations plus whole-file
//! truncation/extension), and single shards of a sharded index run
//! through the BOSS engine under the `SkipBlock` degradation policy
//! (and through the IIU and Lucene-like engines, which must answer or
//! return a typed error).
//! Passes iff every mutated input produces a typed error or a
//! bit-correct decode: no panics, no fast/reference disagreement, no
//! out-of-bounds reserve, no segment checksum accepting a changed byte
//! image, and no degradation leaking past the shard that owns the
//! mutated bytes (sibling shards must stay byte-identical to a quiet
//! run).
//!
//! ```text
//! corruption_harness [--seed N] [--trials-per-scheme N]
//! ```
//!
//! Where a netlist trial and the scheme's `boss-compress` codec both
//! accept a mutated block, their values must agree (any divergence is a
//! violation).
//!
//! The default volume (2400 per scheme across the trial categories)
//! exceeds 10,000 total mutations; `--trials-per-scheme 400` is a fast
//! smoke. Exit status 1 on any violation, each printed with the seed
//! that reproduces it.

use boss_bench::corruption;

fn parsed_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map_or(default, |v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("invalid value {v:?} for {flag}: {e}");
                std::process::exit(2);
            })
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parsed_flag(&args, "--seed", 2026);
    let trials = parsed_flag(&args, "--trials-per-scheme", 2400);

    // Trial panics are caught and tallied; silence the default hook so a
    // caught panic does not spray a backtrace into the CI log.
    std::panic::set_hook(Box::new(|_| {}));
    let tally = corruption::run(seed, trials);
    let _ = std::panic::take_hook();

    println!("# corruption harness: seed {seed}, {trials} trials/scheme");
    println!("trials\taccepted\trejected\tviolations");
    println!(
        "{}\t{}\t{}\t{}",
        tally.trials,
        tally.accepted,
        tally.rejected,
        tally.violations.len()
    );
    if !tally.violations.is_empty() {
        for v in &tally.violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
