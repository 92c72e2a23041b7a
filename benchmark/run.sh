#!/usr/bin/env bash
# Builds the release `vlpp` binary and the benchmark harness from the
# checkout it is run in, then runs one workload:
#
#   bash benchmark/run.sh --workload paper-all --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a vlpp checkout. Build output goes to stderr;
# the last stdout line is the result object (see benchmark/README.md).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/sim ] || [ ! -f benchmark/Cargo.toml ]; then
    echo "error: run from the root of a vlpp checkout (crates/sim or benchmark/ is missing here)" >&2
    exit 2
fi

# Both packages build into one target directory; the repository's own
# default when the caller does not choose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p vlpp-sim --bin vlpp >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# The program and the harness's in-process probes use every core, no more.
export VLPP_THREADS="$(nproc)"
exec "$CARGO_TARGET_DIR/release/vlpp-benchmark" --vlpp "$CARGO_TARGET_DIR/release/vlpp" "$@"
