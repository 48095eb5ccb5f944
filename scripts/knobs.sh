#!/usr/bin/env bash
# Every independently settable value of the public configuration, one a
# line, then a count per struct and per command: the exported fields of
# spice.Config, spice.Options and spice.PoolConfig (the root package's
# count is their sum) and of server.Config, read from `go doc` (an
# embedded struct is counted once, under its own name), and the flags of
# cmd/spiced and cmd/spiceload, read from their -h. The figure ROADMAP
# north-star 2 wants to shrink: a PR that adds a knob shows here. Run it
# from anywhere in the repository:
#
#   scripts/knobs.sh
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# fields PKG TYPE LABEL: one line per exported, non-embedded field.
fields() {
	go doc "$1" "$2" | awk -v label="$3" '
		/^type [A-Za-z]+ struct \{$/ { body = 1; next }
		body && /^}/ { exit }
		body && /^\t[A-Z]/ {
			# "A, B T": every token ending in a comma names a field, and so
			# does the next one when a type follows it (else it is embedded).
			for (i = 1; i < NF && $i ~ /,$/; i++) print label "." substr($i, 1, length($i) - 1)
			if (i < NF) print label "." $i
		}' | tee "$tmp/$3"
}

# flags DIR: one line per flag of the command built from DIR.
flags() {
	go build -o "$tmp/cmd" "./$1"
	{ "$tmp/cmd" -h 2>&1 || true; } | awk -v label="$1" '/^  -/ { print label " " $1 }' | tee "$tmp/${1//\//_}"
}

fields . Config spice.Config
fields . Options spice.Options
fields . PoolConfig spice.PoolConfig
fields ./internal/server Config server.Config
flags cmd/spiced
flags cmd/spiceload

echo
for f in spice.Config spice.Options spice.PoolConfig; do
	printf '%-22s %3d\n' "$f" "$(wc -l < "$tmp/$f")"
done
printf '%-22s %3d\n' "spice (root package)" "$(cat "$tmp"/spice.* | wc -l)"
printf '%-22s %3d\n' server.Config "$(wc -l < "$tmp/server.Config")"
printf '%-22s %3d\n' cmd/spiced "$(wc -l < "$tmp/cmd_spiced")"
printf '%-22s %3d\n' cmd/spiceload "$(wc -l < "$tmp/cmd_spiceload")"
