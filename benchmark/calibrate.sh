#!/usr/bin/env bash
# Produces two calibration sets of the same commit, interleaved run by run:
#   benchmark/calibrate.sh <prefix> [runs-per-workload]
# writes <prefix>.a.json (seeds 1..n) and <prefix>.b.json (seeds 101..100+n),
# each holding n end-to-end reports and one traced report per workload.
# Compare them with: bash benchmark/run.sh -compare <prefix>.a.json <prefix>.b.json
set -euo pipefail
prefix="$1"
runs="${2:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
case "$prefix" in /*) ;; *) prefix="$PWD/$prefix" ;; esac
workloads=(heap-1r slfc-1r tcp-2r serve-mix)
rm -f "$prefix.a.json" "$prefix.b.json"
for i in $(seq 1 "$runs"); do
  for set in a b; do
    seed=$i
    [ "$set" = b ] && seed=$((100 + i))
    for w in "${workloads[@]}"; do
      bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 -append "$prefix.$set.json" >/dev/null
      if [ "$i" = 1 ]; then
        bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 1 -append "$prefix.$set.json" >/dev/null 2>&1
      fi
    done
  done
done
