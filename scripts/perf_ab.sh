#!/usr/bin/env bash
# Same-host A/B performance gate.
#
#   scripts/perf_ab.sh BASE HEAD
#
# BASE and HEAD are two checkouts of this repository: the reference
# (the parent commit) and the change.  Each tree runs its own perfbench
# Table-3 workloads, table3-l2perfect and table3-nuca, with a 10 s
# budget per run, in five pairs per workload.  Which tree runs first
# alternates from pair to pair, so a slow stretch of the host hits both
# sides alike.  HEAD's perfbench/compare.py then judges the two sets,
# and its exit status is the script's: 1 on a REGRESSION verdict, a
# changed pin or digest, or a rise in error_rate.  A run that fails
# outright also makes the script exit 1.
#
# Results go to .perfbench-ab/base and .perfbench-ab/head under the
# current directory, which are emptied first.  When perfbench/pins.json
# differs between the trees, the change re-pins the benchmark on
# purpose and the trees share no reference: the script says so and
# exits 0 without running anything.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE HEAD" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$PWD/.perfbench-ab
pairs=5

if ! cmp -s "$base/perfbench/pins.json" "$head/perfbench/pins.json"; then
    echo "perf A/B skipped: perfbench/pins.json differs between $base" \
         "and $head (or one has none), so the change re-pins the" \
         "benchmark and the two trees share no reference"
    exit 0
fi

rm -rf "$out/base" "$out/head"
mkdir -p "$out/base" "$out/head"
failed=0
for pair in $(seq 1 $pairs); do
    for workload in table3-l2perfect table3-nuca; do
        if [ $((pair % 2)) -eq 1 ]; then sides="base head"; else sides="head base"; fi
        echo "pair $pair/$pairs $workload: $sides"
        for side in $sides; do
            if [ "$side" = base ]; then tree=$base; else tree=$head; fi
            if ! python3 "$tree/perfbench/run.py" --workload "$workload" \
                    --seconds 10 --out "$out/$side" >> "$out/$side/run.log"; then
                echo "$side run of $workload failed (see $out/$side/run.log)" >&2
                failed=1
            fi
        done
    done
done

status=0
python3 "$head/perfbench/compare.py" "$out/base" "$out/head" || status=$?
if [ $failed -ne 0 ]; then
    status=1
fi
exit $status
