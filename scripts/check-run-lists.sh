#!/usr/bin/env bash
# Every alternative of every `go test -run` pattern in the CI workflow
# must name at least one test in the packages its command lists. A test
# renamed or deleted without its guard otherwise turns a `-count=20`
# flake guard into a run of nothing that passes.
#
# Run from the repo root: ./scripts/check-run-lists.sh [workflow]
set -euo pipefail

cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

declare -A listed # package -> the names `go test -list` prints for it

status=0
checked=0
# Join continued lines, then take each go test command that selects tests.
while read -r cmd; do
	pattern=$(sed -nE "s/.*-run '([^']*)'.*/\1/p" <<<"$cmd")
	[ -n "$pattern" ] || pattern=$(sed -nE 's/.*-run ([^ ]+).*/\1/p' <<<"$cmd")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(grep -oE '\./[^ ]+' <<<"$cmd")
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		checked=$((checked + 1))
		found=
		for pkg in $pkgs; do
			if [ -z "${listed[$pkg]+set}" ]; then
				listed[$pkg]=$(go test -list '.' "$pkg" | grep -E '^(Test|Fuzz|Benchmark|Example)')
			fi
			if grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
				found=1
				break
			fi
		done
		if [ -z "$found" ]; then
			echo "$workflow: -run alternative '$alt' matches no test in" $pkgs >&2
			status=1
		fi
	done
done < <(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$workflow" | grep -E 'go test .*-run ')

echo "check-run-lists: $checked alternatives checked"
exit $status
