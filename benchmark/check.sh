#!/usr/bin/env bash
# The hook a CI job calls: build offline, run the unit tests, run every
# workload twice at --quick size, and compare the two sets of reports.
# Quick runs use a tenth of the data and are not comparable with full
# runs; they show that the harness works, not how fast the program is.
# `ledger compare` judges their answer quality, memory and index size
# and leaves their set-up time (0.1 s at this size) alone; it fails this
# script when the two sets disagree.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline

out=out/check
rm -rf "$out"
for set in a b; do
    cargo run --release --offline --quiet --bin ledger -- all --quick --out "$out/$set"
done
cargo run --release --offline --quiet --bin ledger -- compare "$out/a" "$out/b"
