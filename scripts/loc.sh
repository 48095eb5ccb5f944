#!/usr/bin/env bash
# Size of one Go package directory — the root package (the native
# runtime) by default, or the one named, e.g. internal/server (the
# serving layer) — the figures north-star aim 2 and every subtraction
# PR quote: for each non-test Go file of the directory, `wc -l` and its
# code lines (not blank, not a comment line), then the totals, then the
# lines of the package's _test.go files beside them (the tests line).
# Run it from anywhere in the repository; a relative DIR is taken from
# the current directory:
#
#   scripts/loc.sh [DIR=repository root]
set -euo pipefail

cd "${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}"
ls *.go | grep -v '_test\.go$' | xargs awk '
	FNR == 1 { files[++n] = FILENAME }
	{ lines[FILENAME]++ }
	!/^[ \t]*($|\/\/)/ { code[FILENAME]++ }
	END {
		printf "%-16s %6s %6s\n", "file", "lines", "code"
		for (i = 1; i <= n; i++) {
			f = files[i]
			printf "%-16s %6d %6d\n", f, lines[f], code[f]
			tl += lines[f]; tc += code[f]
		}
		printf "%-16s %6d %6d\n", "total", tl, tc
	}'
printf "%-16s %6d\n" tests "$(cat *_test.go | wc -l)"
