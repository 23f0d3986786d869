#!/bin/sh
# check-ci-runs.sh — every test a CI step names by pattern must exist.
#
# `go test -run '<pat>'` and `go test -fuzz '<pat>'` exit 0 when the pattern
# matches nothing, so a step whose test was renamed or deleted keeps passing
# while it checks nothing. For every such line of the workflow this script
# splits the pattern's top-level part (up to the first `/`; a subtest part is
# not checked) at each `|` and requires `go test -list <alternative>` over the
# line's packages to list at least one test, fuzz target, benchmark or
# example. Keep the top level of a CI pattern a flat alternation: a `|`
# inside parentheses would be split too.
#
# Usage: scripts/check-ci-runs.sh [workflow]   (from the repo root; default
# .github/workflows/ci.yml; exits 1 naming each alternative that matches
# nothing)
set -eu

WORKFLOW=${1:-.github/workflows/ci.yml}
set -f # the patterns are regexps, not globs
lines=$(grep -n "go test .*-\(run\|fuzz\) '" "$WORKFLOW" | grep -v '^[0-9]*:[[:space:]]*#' || true)
[ -n "$lines" ] || { echo "check-ci-runs: no go test -run/-fuzz line in $WORKFLOW" >&2; exit 1; }

echo "$lines" | {
	bad=0
	while IFS= read -r line; do
		n=${line%%:*}
		flag=$(echo "$line" | sed -E "s/.*-(run|fuzz) '.*/\1/")
		pat=$(echo "$line" | sed -E "s/.*-$flag '([^']*)'.*/\1/")
		rest=$(echo "$line" | sed -E "s/.*-$flag '[^']*'//")
		pkgs=$(for w in $rest; do case $w in ./*) printf '%s ' "$w" ;; esac; done)
		if [ -z "$pkgs" ]; then
			echo "$WORKFLOW:$n: no package after -$flag '$pat'" >&2
			bad=1
			continue
		fi
		for alt in $(echo "${pat%%/*}" | tr '|' ' '); do
			# $pkgs is a word list.
			if ! go test -list "$alt" $pkgs | grep -Eq '^(Test|Fuzz|Benchmark|Example)'; then
				echo "$WORKFLOW:$n: -$flag alternative '$alt' matches nothing in $pkgs" >&2
				bad=1
			fi
		done
	done
	exit $bad
}
echo "check-ci-runs: every -run/-fuzz pattern in $WORKFLOW names a test"
