#!/usr/bin/env bash
# bench.sh — record the across-PR engine benchmark trajectory.
#
# Stages:
#   1. The standard single-core workload trio — the dense G(20000, 1/2)
#      and sparse G(100000, 0.05) used by every PR's engine comparison,
#      plus the large-sparse G(10^6, 10/n) that only the sparse engine
#      can hold — pinned to -shards 1 so the records' (engine, n, p,
#      shards, faults) keys are machine-independent.
#   2. The noisy-channel overhead pair (PR 5) under per-listener
#      loss=0.05 / spurious=0.01.
#   3. The shards × GOMAXPROCS sweep (PR 6): the columnar and sparse
#      engines on G(100000, 0.05) across the {1,2,4}×{1,2,4} grid, and
#      the sparse engine on G(10^6, 10/n) at its corners — the
#      multi-core scaling record EXPERIMENTS.md reads its table from.
#   4. The perf-gate grid: small pinned workloads CI re-runs with
#      `misbench -bench -compare <this file>` (see ci.yml perf-gate).
#   5. Construction throughput (PR 7): the direct-to-CSR pipeline on
#      RMAT, configmodel, and Batagelj–Brandes G(n,p) workloads — the
#      records' build_ns / edges_per_sec fields are the pipeline's own
#      trajectory, alongside a sparse-engine run over each built graph.
#   6. Service-level load (PR 10): misload against a live misd with an
#      autoscaling job pool — a closed-loop burst and an open-loop
#      Poisson run over the load-tiny scenario. These records carry
#      tool:"misload" with client p50/p95/p99, achieved throughput and
#      the folded server scrape, in the same array as the engine rows.
#
# Output is ONE top-level JSON array of records (the stable schema
# trajectory tooling parses). Records carry engine, auto_engine,
# shards, goversion/gomaxprocs/numcpu/timestamp and heap_mb — the
# numcpu stamp (runtime.NumCPU(), the hardware, vs gomaxprocs, the
# grant) plus a phase_ns breakdown of each record's round loop (PR 8) —
# so files from different machines remain interpretable side by side.
#
# The outfile argument is required: committed trajectory files
# (BENCH_pr3.json, …) are per-PR records, and a default would invite
# silently overwriting an earlier PR's committed baseline.
#
# Usage:
#   scripts/bench.sh BENCH_pr<N>.json
#   BENCH_RUNS=5 scripts/bench.sh my.json
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:?usage: scripts/bench.sh BENCH_pr<N>.json (outfile required)}"
runs="${BENCH_RUNS:-3}"

tmp="$(mktemp)"
bin="$(mktemp)"
misd_bin="$(mktemp)"
misload_bin="$(mktemp)"
misd_pid=""
trap '[ -n "$misd_pid" ] && kill "$misd_pid" 2>/dev/null; rm -f "$tmp" "$bin" "$misd_bin" "$misload_bin"' EXIT

go build -o "$bin" ./cmd/misbench

# --- Stage 1: single-core trio (shards pinned to 1) ------------------
"$bin" -bench -json -shards 1 -benchn 20000 -benchp 0.5 -benchruns "$runs" >"$tmp"
"$bin" -bench -json -shards 1 -benchn 100000 -benchp 0.05 -benchruns "$runs" >>"$tmp"
# Large-sparse: graph generation dominates, so one run; the auto
# enumeration measures only the engines whose representation fits the
# memory budget — sparse alone here (the dense matrix would need
# 125 GB).
"$bin" -bench -json -shards 1 -benchn 1000000 -benchp 0.00001 -benchruns 1 >>"$tmp"

# --- Stage 2: noisy-channel overhead ---------------------------------
# The same dense and large-sparse workloads under channel noise, so the
# fault layer's per-(node, round) stream derivations are priced against
# the clean baseline above. Records carry a "faults" field, so clean
# and noisy rows of one file stay distinguishable. Note rounds change
# too — noise alters the execution, so compare ns/round, not ns/run.
noisy='{"loss":0.05,"spurious":0.01}'
"$bin" -bench -json -shards 1 -benchn 20000 -benchp 0.5 -benchruns "$runs" -faults "$noisy" >>"$tmp"
"$bin" -bench -json -shards 1 -benchn 1000000 -benchp 0.00001 -benchruns 1 -faults "$noisy" >>"$tmp"

# --- Stage 3: shards × GOMAXPROCS sweep ------------------------------
# Engine pins keep the sweep to the two engines that shard. GOMAXPROCS
# is set explicitly per run, so the sweep means the same thing on any
# machine (a record's gomaxprocs field stamps what applied). Oversharding
# (shards > GOMAXPROCS) is part of the grid on purpose: it must cost
# little and never change results.
for gmp in 1 2 4; do
  for shards in 1 2 4; do
    GOMAXPROCS="$gmp" "$bin" -bench -json -engine columnar -shards "$shards" \
      -benchn 100000 -benchp 0.05 -benchruns "$runs" >>"$tmp"
    GOMAXPROCS="$gmp" "$bin" -bench -json -engine sparse -shards "$shards" \
      -benchn 100000 -benchp 0.05 -benchruns "$runs" >>"$tmp"
  done
done
# Large-sparse corners only: graph generation dominates repeated runs.
GOMAXPROCS=1 "$bin" -bench -json -engine sparse -shards 1 -benchn 1000000 -benchp 0.00001 -benchruns 1 >>"$tmp"
GOMAXPROCS=4 "$bin" -bench -json -engine sparse -shards 1 -benchn 1000000 -benchp 0.00001 -benchruns 1 >>"$tmp"
GOMAXPROCS=4 "$bin" -bench -json -engine sparse -shards 4 -benchn 1000000 -benchp 0.00001 -benchruns 1 >>"$tmp"

# --- Stage 4: perf-gate grid -----------------------------------------
# Small, fast, fully pinned workloads whose keys CI re-measures and
# compares against this committed file (generous tolerance — the gate
# exists to catch order-of-magnitude regressions, not machine drift).
# Both engines are recorded for the trajectory, and CI gates both keys.
# Keep in sync with the perf-gate job in .github/workflows/ci.yml.
for shards in 1 2; do
  GOMAXPROCS=2 "$bin" -bench -json -shards "$shards" -benchn 2000 -benchp 0.1 -benchruns "$runs" >>"$tmp"
  GOMAXPROCS=2 "$bin" -bench -json -shards "$shards" -benchn 5000 -benchp 0.004 -benchruns "$runs" >>"$tmp"
done

# --- Stage 5: construction throughput --------------------------------
# The direct-to-CSR pipeline at the scale it exists for: ~10^7-edge
# RMAT and configmodel graphs plus the Batagelj–Brandes G(n,p) fast
# path, generated once per record and timed (build_ns, edges_per_sec),
# then a single sparse-engine run over each. Shards are pinned to 1 so
# the keys are machine-independent; construction workers default to
# GOMAXPROCS, which the record's gomaxprocs field stamps.
GOMAXPROCS=1 "$bin" -bench -json -engine sparse -shards 1 -benchruns 1 \
  -graph rmat:n=1048576,edges=8388608 >>"$tmp"
GOMAXPROCS=1 "$bin" -bench -json -engine sparse -shards 1 -benchruns 1 \
  -graph configmodel:n=1048576,edges=8388608 >>"$tmp"
GOMAXPROCS=1 "$bin" -bench -json -engine sparse -shards 1 -benchruns 1 \
  -graph gnp:n=1048576,p=0.000016 >>"$tmp"

# --- Stage 6: service-level load -------------------------------------
# misload against a live misd: 1→4 autoscaling workers, the ~100ms
# load-tiny scenario. The closed-loop burst saturates the pool (its
# record's server fold shows the scale-ups); the open-loop run offers a
# fixed Poisson rate so achieved-vs-offered throughput is on record.
# The misload schedule is seeded, so the request streams are identical
# across machines; only the latencies differ.
go build -o "$misd_bin" ./cmd/misd
go build -o "$misload_bin" ./cmd/misload
"$misd_bin" -addr 127.0.0.1:18080 -jobs 1 -autoscale-max 4 -queue 64 >/dev/null 2>&1 &
misd_pid=$!
"$misload_bin" -url http://127.0.0.1:18080 -wait-ready 15s -json \
  -mode closed -c 8 -n 120 -hit 0.4 -subs 100 -seed 1 \
  -spec scenarios/load-tiny.json >>"$tmp"
"$misload_bin" -url http://127.0.0.1:18080 -json \
  -mode open -rate 12 -arrival poisson -n 120 -hit 0.4 -seed 2 \
  -spec scenarios/load-tiny.json >>"$tmp"
kill "$misd_pid" 2>/dev/null && wait "$misd_pid" 2>/dev/null || true
misd_pid=""

# Wrap the one-record-per-line stream into a single top-level JSON
# array (records are single lines by construction).
{
  echo '['
  sed '$!s/$/,/' "$tmp"
  echo ']'
} >"$out"

echo "wrote $(($(wc -l <"$out") - 2)) records to $out" >&2
