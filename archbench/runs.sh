#!/usr/bin/env bash
# Runs every workload once per seed and keeps each run's output in
# OUT_DIR/<workload>-seed<seed>.txt, a result set for compare:
#
#   bash archbench/runs.sh results/base 1 2 3 4 5 6 7 8 9 10
#   (cd archbench && go run ./compare -bench ../BENCHMARK.json ../results/base ../results/change)
#
# Each run measures the program's default seconds, BENCHMARK.json's
# run_seconds, so every result set has the same run length. Run it from
# the root of the repository.
set -euo pipefail
out=$1
shift
mkdir -p "$out"
for seed in "$@"; do
	for w in browse ingest; do
		bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --workload "$w" --seed "$seed" \
			--trace 0 > "$out/$w-seed$seed.txt"
	done
done
