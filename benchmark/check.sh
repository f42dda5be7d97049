#!/usr/bin/env bash
# check.sh — this package's own gate (the repository's ci.sh does not know
# about it): format, lints, tests, and a smoke run of every workload with
# all output checks on.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
cargo build --offline --release -q
start=$(date +%s)
cargo run --offline --release -q -- --smoke --seed 1 >/dev/null
cargo run --offline --release -q -- --smoke --seed 1 --trace >/dev/null
echo "check.sh: smoke (untraced + traced) passed in $(( $(date +%s) - start )) s"
