#!/usr/bin/env bash
# reach.sh — which statements of internal/ do the repository's programs run?
#
# Builds every program with coverage instrumentation of the whole module
# (cmd/*, examples/* and the benchmark module), runs them — all blemesh
# experiments at a small scale, the sweep over every topology, the topology
# and trace CLIs in their modes, the five examples, and the four benchmark
# workloads untraced and traced at their default length — and prints the
# statements no run reached: per package, per function, then the total.
# A program that fails fails the script.
#
# It is a report, not a gate. Sort each unreached block before acting on it:
#   error or backpressure path  a run only takes it when something is full,
#                               late or broken (l2cap scheduleKick): keep
#                               it; a test should name it.
#   oracle                      a reference implementation a test compares
#                               the shipped path against: keep it, listed as
#                               testdata/test-only-api.txt lists functions.
#   facade API                  blemesh.go or an example exports or calls it
#                               (CoAP CON, ICMP echo): keep it.
#   dead                        it can only run for an input no program can
#                               produce: delete it.
#
# Usage: scripts/reach.sh   (from anywhere in the repo; several minutes on two
# cores, most of it the benchmark workloads)
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/...
for d in examples/*/; do
	go build -cover -coverpkg=./... -o "$bin/ex-$(basename "$d")" "./$d"
done
go -C benchmark build -cover -coverpkg=blemesh/... -o "$bin/benchmark" .

# run executes one program, keeping its output out of the report; on failure
# it prints the command and the end of the output, and stops the script.
run() {
	if ! "$@" >"$tmp/out.log" 2>&1; then
		echo "reach: failed: $*" >&2
		tail -20 "$tmp/out.log" >&2
		exit 1
	fi
}

run "$bin/blemesh" list
for id in $("$bin/blemesh" list | awk 'NR > 1 { print $1 }'); do
	run "$bin/blemesh" run "$id" -scale 0.002 -values
done
for topo in tree line mesh forest geo city floors; do
	run "$bin/blemesh-sweep" -topo "$topo" -scale 0.002 -producers 100,1000 -intervals '25,[65:85]'
done
run "$bin/blemesh-sweep" -scale 0.002
for topo in both tree line mesh forest geo city floors; do
	run "$bin/blemesh-topo" -topo "$topo"
done
run "$bin/blemesh-trace" -minutes 1 -export ndjson
run "$bin/blemesh-trace" -minutes 1 -export csv -metrics text -waterfalls 3
run "$bin/blemesh-trace" -topo mesh -routing dynamic -minutes 1 -events -kind ll-tx,pkt-drop -metrics ndjson
run "$bin/blemesh-trace" -topo forest -minutes 1 -shards 2 -sample 0.5 -metrics csv \
	-stream "$tmp/stream.ndjson" -stream-every 10
run "$bin/blemesh-trace" -topo city -lean -minutes 1 -metrics text
for d in examples/*/; do
	run "$bin/ex-$(basename "$d")"
done
run "$bin/benchmark" -out "$tmp/bench"
run "$bin/benchmark" -trace 1 -out "$tmp/bench"

go tool covdata textfmt -i="$GOCOVERDIR" -pkg=blemesh/internal/... -o "$tmp/prof.txt"
go tool cover -func="$tmp/prof.txt" >"$tmp/funcs.txt"

# funcs.txt lines are "file:line:<tab>name<tab>pct"; each block is charged
# to the function with the last start line at or before the block's own
# (a closure's blocks to the function that encloses it). A block listed by
# several binaries counts as reached if any of them reached it.
awk '
FNR == NR {
	split($1, p, ":")
	nf[p[1]]++
	fl[p[1], nf[p[1]]] = p[2] + 0
	fn[p[1], nf[p[1]]] = $2
	next
}
FNR == 1 { next }
{
	key = $1
	stmts[key] = $2
	if ($3 > 0) hit[key] = 1
}
END {
	for (key in stmts) {
		split(key, p, ":")
		file = p[1]
		line = int(p[2])
		pkg = file
		sub(/\/[^\/]*$/, "", pkg)
		ptot[pkg] += stmts[key]
		total += stmts[key]
		if (key in hit) continue
		pun[pkg] += stmts[key]
		unreached += stmts[key]
		name = "?"
		start = 0
		for (i = 1; i <= nf[file]; i++) {
			if (fl[file, i] <= line && fl[file, i] >= start) {
				start = fl[file, i]
				name = fn[file, i]
			}
		}
		fid = file ":" start " " name
		fun[fid] += stmts[key]
	}
	for (pkg in ptot) printf "P %s %d %d\n", pkg, pun[pkg], ptot[pkg]
	for (fid in fun) printf "F %s %d\n", fid, fun[fid]
	printf "T %d %d\n", unreached, total
}' "$tmp/funcs.txt" "$tmp/prof.txt" >"$tmp/report.txt"

echo "unreached statements per package (unreached / statements)"
grep '^P ' "$tmp/report.txt" | sort -k2,2 | awk '{ printf "  %-32s %5d / %5d\n", $2, $3, $4 }'
echo
echo "unreached statements per function"
grep '^F ' "$tmp/report.txt" | sort -t' ' -k2,2 -V | awk '{ printf "  %-64s %4d\n", $2 " " $3, $4 }'
echo
awk '/^T / { printf "total: %d of %d statements unreached\n", $2, $3 }' "$tmp/report.txt"
