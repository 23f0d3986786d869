#!/usr/bin/env bash
# bench-pairs.sh PARENT-REV [-workload W] [-pairs N] [-seed S] [-seconds T]
#
# Measures this checkout (side B) against PARENT-REV (side A) the way a
# host-time claim has to be measured on a small, drifting host: N pairs of
# `benchmark/run.sh`, one run per side per pair, alternating which side goes
# first, pair i on seed S+i for both sides. The parent is checked out into a
# git worktree under .bench_build/ and removed again on exit; each side builds
# its own benchmark from its own source with its own run.sh. Reports go to
# .bench_out/pairs/{A,B}.
#
# Prints, per workload, the pairs each side won on run_wall_s, then the
# benchmark's own `-compare A B`: per side median and quartiles of every host
# metric, B/A, the regression verdicts, and whether sim_digest, ops and lost
# are identical seed by seed.
#
# Defaults: all four workloads, 10 pairs, seed 1, the benchmark's own run
# length. The script only measures and reports; it never fails on a slowdown.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT-REV [-workload W] [-pairs N] [-seed S] [-seconds T]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
workloads="tree-paper tree-overload city-10k mesh-churn"
pairs=10
seed=1
seconds=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    -workload) workloads=$2 ;;
    -pairs) pairs=$2 ;;
    -seed) seed=$2 ;;
    -seconds) seconds=(-seconds "$2") ;;
    *) usage ;;
    esac
    shift 2
done

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
parent=$root/.bench_build/pairs-parent
out=$root/.bench_out/pairs

cleanup() {
    git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
    git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
mkdir -p "$root/.bench_build"
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

# Build both sides before anything is timed: run.sh builds, then the binary
# rejects -h.
for side in "$parent" "$root"; do
    bash "$side/benchmark/run.sh" -h >/dev/null 2>&1 || true
    [ -x "$side/.bench_build/blemesh-benchmark" ] || {
        echo "bench-pairs: the benchmark of $side does not build" >&2
        exit 1
    }
done

rm -rf "$out"
mkdir -p "$out/A" "$out/B"

# run SIDE-DIR LABEL WORKLOAD SEED prints the run's run_wall_s. A run whose
# correctness checks fail still reports its timings (and exits 1): it is
# flagged and kept, -compare shows what differs. A run that prints no result
# line at all ends the script.
run() {
    local log=$out/$2/$3-seed$4.log
    bash "$1/benchmark/run.sh" -workload "$3" -seed "$4" ${seconds[@]+"${seconds[@]}"} -out "$out/$2" >"$log" 2>&1 ||
        echo "bench-pairs: side $2, $3 seed $4 reports problems, see $log" >&2
    tail -n 1 "$log" | sed -n 's/.*"run_wall_s":{"value":\([0-9.e+-]*\).*/\1/p'
}

results=$out/pairs.txt
: >"$results"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        s=$((seed + i))
        if ((i % 2 == 0)); then
            a=$(run "$parent" A "$w" "$s")
            b=$(run "$root" B "$w" "$s")
        else
            b=$(run "$root" B "$w" "$s")
            a=$(run "$parent" A "$w" "$s")
        fi
        [ -n "$a" ] && [ -n "$b" ] || {
            echo "bench-pairs: $w seed $s produced no result, see $out/{A,B}/$w-seed$s.log" >&2
            exit 1
        }
        echo "$w $s $a $b" | tee -a "$results" |
            awk '{ printf "%-14s seed %-4d A %8.3f s   B %8.3f s   B/A %.3f\n", $1, $2, $3, $4, $4 / $3 }'
    done
done

echo
echo "pairs won on run_wall_s (A = $rev, B = this checkout; a tie counts for neither)"
awk '
{ n[$1]++; if ($4 < $3) b[$1]++; else if ($3 < $4) a[$1]++ }
!($1 in seen) { seen[$1] = 1; order[++k] = $1 }
END {
    for (i = 1; i <= k; i++) {
        w = order[i]
        printf "  %-14s B won %d, A won %d, of %d pairs\n", w, b[w], a[w], n[w]
    }
}' "$results"
echo
"$root/.bench_build/blemesh-benchmark" -compare "$out/A" "$out/B"
