#!/usr/bin/env bash
# The command of BENCHMARK.json: builds both binaries of the ledger from
# source, then runs the plain one with the arguments given. With
# `--trace 1` the plain binary hands over to the traced one beside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/lbp-benchmark" "$@"
