#!/usr/bin/env bash
# Campaign cache smoke and exact-output check.
#
# Runs every checked-in campaign spec twice: the second run must serve
# every cell from the content-addressed cache and emit byte-identical raw
# and aggregate CSVs. `outcomes-smoke` exercises a non-clairvoyant (trial
# counters) and a uniform-machine cell; `heterogeneous` sweeps real
# per-processor speeds; `large-scale` pushes 5k-job instances through
# 1024/2048-proc backfilling; `trace-100k` replays a 100k-job diurnal
# trace through the DES online executor; `heavy-traffic` drives open
# Poisson arrivals at ρ ∈ {0.7, 0.9, 0.95} through both backfill policies
# and lands per-class response-time distributions (with batch-means CIs)
# in the aggregate CSV. `volatile` sweeps the machine-failure axis
# (2 regimes × 2 recovery policies × EASY/conservative) and must land
# non-empty failure columns for every volatile group. `open-1m` drives a
# million-completion open stream through the online driver. `stale-finish`
# pins the online machine's stale completion: a run killed by a scripted
# outage is rerun elsewhere, and its dead completion is the last event of
# the instant a later job arrives at, so it must take that job's decision.
#
# Then it runs the six experiment binaries and checks every output against
# the digests pinned in examples/golden_csv.sha256.
#
# Usage, from anywhere inside the repository:
#   bash scripts/campaign_smoke.sh
# It deletes results/cache and rewrites the CSVs under results/.
set -e
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

rm -rf results/cache
for spec in small_campaign outcomes_campaign heterogeneous_campaign large_scale_campaign trace_100k_campaign heavy_traffic_campaign volatile_campaign open_1m_campaign stale_finish_campaign; do
  name=$(grep -o '"name": "[^"]*"' examples/$spec.json | head -1 | cut -d'"' -f4)
  rm -f "results/$name.csv" "results/${name}_agg.csv"
  cargo run --release -p lsps-scenario --bin lsps-campaign -- examples/$spec.json
  cp "results/$name.csv" "$tmp/cold.csv"
  cp "results/${name}_agg.csv" "$tmp/cold_agg.csv"
  cargo run --release -p lsps-scenario --bin lsps-campaign -- examples/$spec.json | tee "$tmp/warm.out"
  grep -q "cache-hit-rate: 100.0%" "$tmp/warm.out"
  cmp "results/$name.csv" "$tmp/cold.csv"
  cmp "results/${name}_agg.csv" "$tmp/cold_agg.csv"
done
# The FIG3 grid experiment: the only output that exercises CiGri's
# cluster-level placement of local jobs. The other experiment binaries pin
# the built-in campaign specs, the DLT policies and the platform presets
# (platforms.json).
for bin in ciment fig2 guarantees models_compare dlt_policies platforms; do
  cargo run --release -p lsps-bench --bin $bin
done
# Exact output: every raw and aggregate CSV above, plus the experiment
# binaries' CSVs and platforms.json, matches the sha256 digests pinned in
# examples/golden_csv.sha256. Warm reruns were just checked byte-identical
# to the cold pass, so this checks the cold output. A deliberate output
# change must update the digests in the same commit.
sha256sum -c examples/golden_csv.sha256
# The outcome axes actually landed in the output: trial cells aggregate
# non-empty trial-overhead columns (field 37 = trials; a suffix grep would
# false-negative on the trailing open-arrival response columns, empty for
# finite groups).
tail -n +2 results/outcomes-smoke_agg.csv | grep "nonclairvoyant-exp-trial" | awk -F, '$37 == "" {exit 1}'
# The open-arrival response columns landed: every heavy-traffic group
# emits one row per job class with a non-empty sample count.
tail -n +2 results/heavy-traffic_agg.csv | grep -q ",narrow,"
tail -n +2 results/heavy-traffic_agg.csv | grep -q ",wide,"
# The failure axis landed: the volatile aggregate carries the fail_* block,
# every volatile group (platform suffixed `+name`) fills it, and at least
# one volatile group exists.
grep '+' results/volatile-campaign_agg.csv | grep -q .
awk -F, 'NR==1 {for (i=1;i<=NF;i++) if ($i=="fail_goodput") g=i; if (!g) exit 1; next}
         $4 ~ /\+/ && $g == "" {exit 1}' results/volatile-campaign_agg.csv
