#!/usr/bin/env bash
# Runs the online-service benchmark and writes BENCH_server.json at the repo root: loadgen
# spawns one rayflex-server per batching variant (batch1: every request its own fused run;
# dynamic: the real coalescing knobs), drives the same closed-loop small-request mix at both,
# and records wire latency/throughput (p50/p99/req/s) alongside the modeled device throughput
# ratio taken from the server's SIMD lane accounting, recorded as `speedup_vs_scalar` (see the
# loadgen module docs for why the two throughputs differ).
#
# Tunables (environment variables, all optional):
#   RAYFLEX_SERVER_CLIENTS     concurrent closed-loop clients        (default 64)
#   RAYFLEX_SERVER_REQUESTS    requests per client                   (default 25)
#   RAYFLEX_SERVER_MAX_BATCH   dynamic-variant batch-size flush      (default 32)
#   RAYFLEX_SERVER_FLUSH_US    dynamic-variant deadline flush, us    (default 200)
#   RAYFLEX_SERVER_MIN_RATIO   fail below this modeled device throughput ratio (default off)
#   RAYFLEX_SERVER_MAX_P99_US  fail if any variant's p99 exceeds this bound    (default off)
#   RAYFLEX_SERVER_JSON        output path (default BENCH_server.json at the repo root)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${RAYFLEX_SERVER_JSON:-$repo_root/BENCH_server.json}"

cargo build --release -q -p rayflex-server -p rayflex-workloads

extra=()
if [ -n "${RAYFLEX_SERVER_MIN_RATIO:-}" ]; then
  extra+=(--min-ratio "$RAYFLEX_SERVER_MIN_RATIO")
fi
if [ -n "${RAYFLEX_SERVER_MAX_P99_US:-}" ]; then
  extra+=(--max-p99-us "$RAYFLEX_SERVER_MAX_P99_US")
fi

"$repo_root/target/release/loadgen" \
  --server-bin "$repo_root/target/release/rayflex-server" \
  --clients "${RAYFLEX_SERVER_CLIENTS:-64}" \
  --requests "${RAYFLEX_SERVER_REQUESTS:-25}" \
  --max-batch "${RAYFLEX_SERVER_MAX_BATCH:-32}" \
  --flush-us "${RAYFLEX_SERVER_FLUSH_US:-200}" \
  --out "$out" \
  "${extra[@]+"${extra[@]}"}"

echo
echo "Server: $out"
