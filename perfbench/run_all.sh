#!/usr/bin/env bash
# Run every workload once and print its metrics by name and unit.
#
#   bash perfbench/run_all.sh [SEED] [TRACE]
#
# TRACE=1 adds a traced pass per workload and prints the per-layer metrics
# as well as the end-to-end ones.
set -euo pipefail
seed=${1:-0}
trace=${2:-0}
cd "$(dirname "$0")/.."
for workload in desk-sweep sparse-cli desk-mc; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 10 --trace "$trace"
done
