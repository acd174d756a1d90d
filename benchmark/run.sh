#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Without --workload every workload runs, each in its own process. The
# exit code is non-zero if the build or any correctness check failed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/boss-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ] || [ "$arg" = "compare" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in scan_k1000 prune_k10 ingest_open serve_sharded; do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
