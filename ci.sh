#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, the tier-1 test suite and
# the parallel-sweep regression benchmark. Everything resolves offline
# — the workspace has no external dependencies (the criterion bench
# crate is excluded; build it separately on a machine with registry
# access).
#
# Tiers:
#   ./ci.sh                     tier 1 — fast suite (slow full-figure
#                               sweeps are #[ignore]d)
#   ORDERLIGHT_TIER2=1 ./ci.sh  also runs the ignored tier-2 tests
#                               (full Figure 10/12/13 sweeps and the
#                               large parallel-equivalence sweeps)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace, tier 1)"
cargo test --workspace -q

# The tier-1 suite must be green under BOTH simulation cores: the
# dense per-cycle loop and the event-driven time-skip core (see
# DESIGN.md, "Quiescence contract"). The default run above already
# covers the event core's default path; these pin each explicitly.
echo "==> cargo test (workspace, tier 1, ORDERLIGHT_CORE=cycle)"
ORDERLIGHT_CORE=cycle cargo test --workspace -q

echo "==> cargo test (workspace, tier 1, ORDERLIGHT_CORE=event)"
ORDERLIGHT_CORE=event cargo test --workspace -q

if [[ "${ORDERLIGHT_TIER2:-0}" != "0" ]]; then
    echo "==> cargo test (tier 2: ignored full-figure sweeps)"
    cargo test --workspace -q -- --ignored
fi

# Calendar-queue differential gauntlet (tests/horizon_fuzz.rs):
# SplitMix64-seeded configurations sweeping refresh, BMF, TS size and
# the legal fault layers, asserting the dense and event cores agree on
# RunStats, controller stats, final DRAM bytes and ProfileReport bytes
# — at jobs=1 and jobs=8. Release mode: the gauntlet is 4 full runs
# per case. Tier 1 runs the small prefix; tier 2 the full 64 cases.
echo "==> horizon fuzz gauntlet (tier 1: small prefix, release)"
cargo test --release --test horizon_fuzz -q

if [[ "${ORDERLIGHT_TIER2:-0}" != "0" ]]; then
    echo "==> horizon fuzz gauntlet (tier 2: full 64 cases, release)"
    cargo test --release --test horizon_fuzz -q -- --include-ignored
fi

# Repository benchmark (perfbench/, declared by BENCHMARK.json): its own
# tests, then one short traced pass per benchmarked workload. Every op
# of a pass is digest-checked against perfbench/expected/*.txt, so any
# change to a simulated statistic fails here with "failed" above 0.
echo "==> perfbench (self-tests and a digest-checked pass per workload)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
for workload in gpu-host serve-mixed; do
    result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 2>/dev/null | tail -n 1)"
    grep -q '"failed":0,' <<< "$result" \
        || { echo "perfbench $workload: ops failed: ${result:0:200}"; exit 1; }
done

# Ordering-violation oracle gate, per backend: every ordering backend
# (orderlight, fence, seqnum, louvre, bulk) must run clean under the
# oracle, and the seeded drop-edge mutation must make the check fire
# for each (the `check --mutate` self-test exits non-zero if the
# deliberately broken schedule stays clean). The adversarial scheduler
# rides along on the mutation leg so the opened window is actually hit.
echo "==> orderlight check (oracle gate, per backend)"
./target/release/orderlight check --core cycle --data-kb 32
./target/release/orderlight check --core event --data-kb 32 --faults all --seed 1
for backend in orderlight fence seqnum louvre bulk; do
    ./target/release/orderlight check --core event --data-kb 32 --mode "$backend"
    ./target/release/orderlight check --core event --data-kb 32 --mode "$backend" \
        --faults sched --mutate 0:0
done

# Cross-primitive comparison smoke: one checked run per backend,
# recording speedup vs. the fence baseline, violation-freedom and
# in-band metadata cost. Exits non-zero if any backend's run is dirty;
# the grep then gates on the records actually landing in the v5 JSON.
echo "==> orderlight compare-ordering (cross-primitive smoke)"
tmpcmp="$(mktemp)"
./target/release/orderlight compare-ordering --data-kb 8 --out "$tmpcmp"
grep -q '"schema": "orderlight/bench-sweep/v5"' "$tmpcmp" \
    || { echo "compare-ordering did not write a v5 document"; exit 1; }
for backend in orderlight fence seqnum louvre bulk; do
    grep -q "\"ordering\": \"$backend\"" "$tmpcmp" \
        || { echo "compare-ordering is missing the $backend record"; exit 1; }
done
rm -f "$tmpcmp"

# Stall-attribution profiler gate, under the EVENT core: profile the
# Figure 5 scenario pair (fence baseline and OrderLight) on the
# time-skip core we ship. `profile` itself exits non-zero if a single
# stall cycle is attributed to no cause (the conservation invariant —
# which skip-boundary event synthesis must uphold bit-identically);
# `profile-verify` then re-reads the emitted JSON with the in-tree
# parser and re-checks the breakdown sums. A cycle-core leg of the
# fence scenario cross-checks that both cores serialize the same
# report bytes.
echo "==> orderlight profile (conservation gate, fig05 scenario, event core)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/orderlight profile Add --mode fence --core event --data-kb 32 \
    --out "$tmpdir/fig05_fence"
./target/release/orderlight profile Add --mode orderlight --core event --data-kb 32 \
    --out "$tmpdir/fig05_ol"
./target/release/orderlight profile-verify "$tmpdir/fig05_fence.profile.json" \
    "$tmpdir/fig05_ol.profile.json"
./target/release/orderlight profile Add --mode fence --core cycle --data-kb 32 \
    --out "$tmpdir/fig05_fence_cycle"
cmp "$tmpdir/fig05_fence.profile.json" "$tmpdir/fig05_fence_cycle.profile.json" \
    || { echo "profile JSON differs between cores"; exit 1; }

# Simulation-as-a-service smoke: start the daemon on an ephemeral
# loopback port, submit the fig05 OrderLight scenario from two
# concurrent clients, cmp both replies byte-for-byte against a direct
# in-process run (determinism makes a served reply exact), then assert
# a repeated request is answered from the scenario cache without
# re-simulating, and shut the daemon down cleanly.
echo "==> orderlight serve (service smoke: concurrency, cmp, cache)"
./target/release/orderlight serve --jobs 2 > "$tmpdir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
    grep -q "listening on" "$tmpdir/serve.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on \([0-9.:]*\).*/\1/p' "$tmpdir/serve.log")"
[[ -n "$addr" ]] || { echo "serve did not report a listening address"; exit 1; }
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    --out "$tmpdir/served_a.json" > /dev/null &
client_a=$!
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    --out "$tmpdir/served_b.json" > /dev/null &
client_b=$!
wait "$client_a" "$client_b" \
    || { echo "a concurrent submit failed"; exit 1; }
./target/release/orderlight submit --local --workload Add --data-kb 32 \
    --out "$tmpdir/direct.json"
cmp "$tmpdir/served_a.json" "$tmpdir/direct.json" \
    || { echo "served reply A differs from the direct run"; exit 1; }
cmp "$tmpdir/served_b.json" "$tmpdir/direct.json" \
    || { echo "served reply B differs from the direct run"; exit 1; }
./target/release/orderlight submit --addr "$addr" --workload Add --data-kb 32 \
    > "$tmpdir/cached.out"
grep -q '"cached":true' "$tmpdir/cached.out" \
    || { echo "repeated request was not answered from the cache"; exit 1; }

# Telemetry-plane scrape: after the two concurrent submits (plus the
# cached repeat above) the live metrics registry must attribute every
# request — at least two results, at least one cache hit — and the
# flight recorder must hold all three scenario requests. `top --once`
# must render the same snapshot as a one-screen summary.
echo "==> orderlight serve (telemetry scrape: metrics, flightrec, top)"
./target/release/orderlight submit --addr "$addr" --metrics-text > "$tmpdir/metrics.txt"
requests_result="$(awk '$1 == "orderlight_requests_result" {print $2}' "$tmpdir/metrics.txt")"
cache_hits="$(awk '$1 == "orderlight_cache_hits" {print $2}' "$tmpdir/metrics.txt")"
[[ -n "$requests_result" && "$requests_result" -ge 2 ]] \
    || { echo "metrics report requests_result=$requests_result, want >= 2"; exit 1; }
[[ -n "$cache_hits" && "$cache_hits" -ge 1 ]] \
    || { echo "metrics report cache_hits=$cache_hits, want >= 1"; exit 1; }
./target/release/orderlight submit --addr "$addr" --flightrec > "$tmpdir/flightrec.out"
recorded="$(grep -o '"outcome":"result-' "$tmpdir/flightrec.out" | wc -l)"
[[ "$recorded" -ge 3 ]] \
    || { echo "flight recorder holds $recorded requests, want >= 3"; exit 1; }
./target/release/orderlight top --addr "$addr" --once > "$tmpdir/top.out"
grep -q "^requests " "$tmpdir/top.out" && grep -q "^cache " "$tmpdir/top.out" \
    || { echo "orderlight top did not render the metrics snapshot"; exit 1; }

./target/release/orderlight submit --addr "$addr" --shutdown > /dev/null
wait "$serve_pid" || { echo "serve did not exit cleanly"; exit 1; }
trap 'rm -rf "$tmpdir"' EXIT

# Sweep regression benchmark: re-runs every figure sweep serial vs
# parallel AND cycle-core vs event-core in release mode, failing on
# any bit-level mismatch. `--profile` additionally re-runs each figure
# under the event core with the profiler attached (failing on any
# conservation violation) and records per-cause stall deltas plus the
# observability overhead in the schema-v5 JSON, alongside the
# per-backend ordering comparison records.
echo "==> orderlight bench --quick --profile (sweep + core + observability regression)"
./target/release/orderlight bench --quick --profile --out BENCH_sweep.json
echo "    wrote BENCH_sweep.json"
grep -q '"schema": "orderlight/bench-sweep/v5"' BENCH_sweep.json \
    || { echo "bench did not write a v5 document"; exit 1; }
grep -q '"ordering": "louvre"' BENCH_sweep.json \
    || { echo "bench JSON is missing the per-backend ordering records"; exit 1; }

# Observability overhead budget: the profiled event-core fig05 sweep
# must cost at most 1.5x its unprofiled wall time. The per-figure
# profile entries are single-line JSON objects, so grep + awk suffice.
echo "==> observability overhead budget (fig05 <= 1.5x)"
overhead="$(grep -o '"figure": "fig05"[^}]*"overhead": [0-9.]*' BENCH_sweep.json \
    | grep -o '"overhead": [0-9.]*' | awk '{print $2}')"
echo "    fig05 profiled/unprofiled overhead: ${overhead}x"
awk -v o="$overhead" 'BEGIN { exit !(o <= 1.5) }' \
    || { echo "fig05 observability overhead ${overhead}x exceeds the 1.5x budget"; exit 1; }

# Event-core speedup gate: the calendar-queue core must keep its edge
# over the dense core on the fence-heavy fence-ts16 sweep (~4x measured
# at merge; the 2.5x floor absorbs host noise and debug-adjacent
# slowdowns on shared runners).
echo "==> event-core speedup gate (fence-ts16 >= 2.5x)"
speedup="$(grep -o '"figure": "fence-ts16"[^}]*"event_speedup": [0-9.]*' BENCH_sweep.json \
    | grep -o '"event_speedup": [0-9.]*' | awk '{print $2}')"
echo "    fence-ts16 event-core speedup: ${speedup}x"
awk -v s="$speedup" 'BEGIN { exit !(s >= 2.5) }' \
    || { echo "fence-ts16 event speedup ${speedup}x below the 2.5x floor"; exit 1; }

echo "CI green."
