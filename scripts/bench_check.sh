#!/usr/bin/env bash
# Kernel-bench regression check against the committed baseline.
#
# Re-runs `bench-kernels` (quick mode) into a temporary file and compares
# it with BENCH_kernels.json at the repo root via `ledger-report
# bench-diff`. The gated figures are the `*_rel` ones: each kernel's
# throughput and the round time relative to a reference workload timed
# interleaved with it in the same run, which cancels drift in the host's
# speed between the baseline run and this one. They may worsen by at most
# 20%, or by the noise the two runs measured in them when that is larger;
# absolute GFLOP/s and milliseconds only warn. When the current host's
# parallelism differs from the baseline's, findings are warnings only
# (kernel numbers are not comparable across machines) and the script
# still exits 0.
#
# Usage: scripts/bench_check.sh [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_kernels.json}"
if [ ! -f "$baseline" ]; then
  echo "bench_check: baseline $baseline not found" >&2
  exit 2
fi

candidate=$(mktemp /tmp/apf_bench_candidate.XXXXXX.json)
trap 'rm -f "$candidate"' EXIT

echo "== bench-kernels (quick) -> $candidate =="
APF_BENCH_QUICK=1 cargo run -q --release --offline -p apf-bench \
  --bin bench-kernels -- --out "$candidate" --no-ledger

echo "== ledger-report bench-diff $baseline $candidate =="
cargo run -q --release --offline -p apf-bench --bin ledger-report -- \
  bench-diff "$baseline" "$candidate"
