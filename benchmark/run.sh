#!/usr/bin/env sh
# Build the benchmark and print the full ledger: four workloads untraced
# (end-to-end metrics), then traced (per-layer metrics), correctness checked.
#
#   benchmark/run.sh                      full run, ~2.5 min after the build
#   benchmark/run.sh --smoke              one untraced pass per workload, < 15 s
#   benchmark/run.sh --out report.json    also write the report for `ledger compare`
#
# Exits non-zero if a correctness check fails.
set -eu
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- report "$@"
