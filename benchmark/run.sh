#!/usr/bin/env bash
# Build the benchmark twice (plain, and with the `trace` feature), then run it.
#
#   bash benchmark/run.sh
#       every workload, their rounds interleaved: end-to-end metrics from
#       plain rounds, per-layer metrics from traced rounds (about 2.5 minutes
#       on 2 cores)
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of output is the JSON result
#   bash benchmark/run.sh compare BASE_DIR CUR_DIR
#       judge saved runs of a change against its parent (see README.md)
#
# It works from the repository root, so relative paths in its arguments and
# in $CARGO_TARGET_DIR are taken from there. Builds go to $CARGO_TARGET_DIR
# (default benchmark/target), in `plain/` and `trace/`.
set -euo pipefail
cd "$(dirname "$0")/.."

target=${CARGO_TARGET_DIR:-benchmark/target}
build() {
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir "$target/$1" "${@:2}" >&2
}
build plain
build trace --features trace
plain=$target/plain/release/sbu-benchmark
traced=$target/trace/release/sbu-benchmark

if [[ $# -eq 0 ]]; then
    exec "$traced" --workload all --trace 1 --plain-bin "$plain"
elif [[ $1 == compare ]]; then
    exec "$plain" "$@"
elif [[ " $* " == *" --trace 1 "* ]]; then
    exec "$traced" "$@" --plain-bin "$plain"
else
    exec "$plain" "$@"
fi
