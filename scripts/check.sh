#!/usr/bin/env bash
# The full local quality gate: formatting, clippy (deny warnings — the
# single lint entry point, including the panic-scope and checked-cast
# lints switched on in the sources), the workspace's own lexical lint
# pass + invariant verifier, then the test suite.  Run from anywhere
# inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --check
# `unsafe_code = "deny"` can be lifted by an `#[allow]` and `vendor/*`
# does not opt into the workspace lints: no unsafe block, fn, impl or
# trait in product code at all (tests/alloc_free_paths.rs's counting
# allocator is the one user, outside these directories).
echo "==> no unsafe in crates/ vendor/ src/ examples/"
if grep -rnE --include='*.rs' '\bunsafe[[:space:]]*(\{|fn|impl|extern|trait)' crates vendor src examples; then
    echo "unsafe code outside the test allocator shim"; exit 1
fi
run cargo clippy --workspace --all-targets -- -D warnings
run cargo xtask check
run cargo xtask model --smoke
run cargo run -q -p sdalloc-experiments -- chaos --smoke
# The chaos smoke must carry the recovery/admission rows: the digest
# reconciliation speedup and the storm-quota budget invariant are gate
# signals, not optional extras.
echo "==> chaos smoke gates: crash_restart_recon + storm_quota rows"
for row in crash_restart_recon storm_quota; do
    grep -q "\"$row\"" results_full/chaos_smoke.json \
        || { echo "missing $row row in results_full/chaos_smoke.json"; exit 1; }
done
# The threaded-runtime soak writes its own (wall-clock) sidecar; its
# invariants — no stalled readers, no torn rows — are enforced inside
# the chaos command, but the artifact must exist and record clean runs.
echo "==> runtime_soak sidecar: no stalls, no torn rows"
grep -q '"runtime_soak"' results_full/runtime_soak_smoke.json \
    || { echo "missing results_full/runtime_soak_smoke.json"; exit 1; }
grep -q '"stalled_readers": 0' results_full/runtime_soak_smoke.json \
    || { echo "runtime_soak smoke recorded stalled readers"; exit 1; }
grep -q '"integrity_failures": 0' results_full/runtime_soak_smoke.json \
    || { echo "runtime_soak smoke recorded torn rows"; exit 1; }
run cargo run -q -p sdalloc-bench --bin directory_scale -- --smoke
run cargo test -q --workspace
# The benchmark is a workspace of its own and the authority on which
# public calls are load-bearing (benchmark/src/sut.rs): build and test
# it here so an API removal that breaks it fails locally.
run cargo test -q --release --manifest-path benchmark/Cargo.toml
# …and smoke the benchmark itself, all four workloads with their output
# checks on, the way the driver runs it: a run that fails there must
# fail here first.
echo "==> benchmark/run.sh --quick"
smoke="$(mktemp)"
trap 'rm -f "$smoke"' EXIT
benchmark/run.sh --quick >"$smoke" 2>&1 \
    || { tail -n 40 "$smoke"; echo "benchmark/run.sh --quick exited non-zero"; exit 1; }
if grep 'OUTPUT CHECK FAILED' "$smoke"; then
    echo "benchmark smoke failed an output check"; exit 1
fi
grep '^== ' "$smoke"

echo "All checks passed."
