#!/usr/bin/env bash
# Fuzz every fuzz target in the module, one after another.
#
#   scripts/fuzz.sh [fuzztime]   fuzz each target for fuzztime (default 30s)
#   scripts/fuzz.sh -matrix      print the targets as a CI job matrix:
#                                {"include":[{"target":"FuzzX","pkg":"./internal/y/"},...]}
#
# The targets come from `go test -list '^Fuzz' ./...`, so a new one is
# fuzzed without editing this script, the Makefile or CI. Each runs under
# an anchored -fuzz='^Name$': go test refuses a pattern that matches two
# targets, and a bare name matches every target it is a prefix of.
set -euo pipefail
cd "$(dirname "$0")/.."

# targets prints "<pkg> <target>" for each fuzz target, pkg as ./dir/.
targets() {
	go test -list '^Fuzz' ./... | awk -v module="$(go list -m)" '
		/^Fuzz/ { names[n++] = $1; next }
		$1 == "ok" {
			dir = "."
			if ($2 != module) dir = "./" substr($2, length(module) + 2)
			for (i = 0; i < n; i++) print dir "/", names[i]
			n = 0
		}'
}

arg=${1:-30s}
case "$arg" in
-matrix) ;;
-*)
	echo "usage: scripts/fuzz.sh [fuzztime | -matrix]" >&2
	exit 2
	;;
esac

list=$(targets)
if [ -z "$list" ]; then
	echo "fuzz.sh: no fuzz targets found" >&2
	exit 1
fi

if [ "$arg" = -matrix ]; then
	awk 'BEGIN { printf "{\"include\":[" }
		{ printf "%s{\"target\":\"%s\",\"pkg\":\"%s\"}", (NR > 1 ? "," : ""), $2, $1 }
		END { print "]}" }' <<<"$list"
	exit 0
fi

n=0
while read -r pkg target; do
	echo "=== fuzz $target in $pkg for $arg"
	go test -fuzz="^$target\$" -fuzztime="$arg" "$pkg" </dev/null
	n=$((n + 1))
done <<<"$list"
echo "fuzzed $n targets for $arg each"
