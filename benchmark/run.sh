#!/usr/bin/env bash
# The benchmark's one command: build the package from source, then run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is its result
#   benchmark/run.sh [--seed <n>] [--quick] [--out <file>]
#       every workload untraced, then traced (see README.md)
#   benchmark/run.sh compare <parent.json> <change.json> [...]
#   benchmark/run.sh manifest > BENCHMARK.json
#   benchmark/run.sh dictionary          (the metric tables of README.md)
#
# Everything it writes stays under the build's target directory
# ($CARGO_TARGET_DIR, else benchmark/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo talks on stderr; stdout stays the benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "${1:-}" in compare | manifest | dictionary)
    exec "$target/release/benchmark" "$@" ;;
esac
exec "$target/release/benchmark" --scratch "$target/scratch" "$@"
