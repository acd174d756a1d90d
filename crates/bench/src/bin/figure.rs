//! `figure <name> [common flags]` regenerates one table or figure of the
//! evaluation on stdout; `figure --list` prints every name, one a line.
//!
//! The names and what each one prints are [`boss_bench::figures::REGISTRY`];
//! the flags are the ones [`BenchArgs`] parses (`figure <name> --help`).
//! Regenerating `results/` is
//!
//! ```sh
//! for n in $(figure --list); do figure $n | grep -v '^# threads' > results/$n.tsv; done
//! ```

use boss_bench::figures::{self, Corpora, FigureCtx, REGISTRY};
use boss_bench::BenchArgs;
use std::io::Write;

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprintln!("usage: figure <name>|--list [flags]; see figure <name> --help");
        std::process::exit(2);
    };
    if name == "--list" {
        for (name, _) in REGISTRY {
            println!("{name}");
        }
        return;
    }
    let Some(run) = figures::find(&name) else {
        eprintln!("unknown figure {name:?}; figure --list prints the names");
        std::process::exit(2);
    };
    let args = BenchArgs::parse(argv);
    let mut out = std::io::stdout().lock();
    let result = run(&mut FigureCtx::new(args, &mut out, &mut Corpora::default()))
        .and_then(|()| out.flush());
    if let Err(e) = result {
        eprintln!("figure {name}: {e}");
        std::process::exit(2);
    }
}
