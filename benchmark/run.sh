#!/usr/bin/env bash
# Build the benchmark (release) and run it.  Everything after the script
# name goes to the binary; see README.md or `run.sh --help`.
#
#   benchmark/run.sh                      every workload, untraced + traced
#   benchmark/run.sh --quick              smoke of all four, reduced phases
#   benchmark/run.sh --repeat 3           three sets, spread against bounds
#   benchmark/run.sh --workload steady_1k --seed 7 --seconds 20 --trace 0
#                                         one run, as the driver calls it
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- \
    --commit "$commit" --history "$here/results/history.jsonl" "$@"
