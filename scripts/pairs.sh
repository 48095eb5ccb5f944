#!/usr/bin/env bash
# Alternated parent/change pairs of the benchmark of record, the loop
# every performance claim in CHANGES.md rests on. Run it from the
# repository root:
#
#   scripts/pairs.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [BASE=HEAD~1]
#
# The change is the working tree, snapshotted once at start: every file
# git tracks or would add (git ls-files -co --exclude-standard) is
# copied to .bench_build/pairs_change/, and the change side runs from
# there, so an edit made while the pairs run reaches none of them. Each
# workload's header names the snapshot by its `git stash create` hash
# (HEAD on a clean tree). BASE is unpacked once under .bench_build/
# (git archive, so nothing is registered in .git). The workloads run
# one after another, each with its own summary. Pair i runs both sides
# on seed PAIRS_SEED+i (default 20; another value checks a claim on
# seeds it was not built on), BASE first in odd pairs and the change
# first in even ones, each for PAIRS_SECONDS seconds (default:
# run_seconds of BENCHMARK.json). Every run's last JSON line is kept;
# the summary gives, per end-to-end metric, each side's median and
# quartiles, the pairs the change won, and a verdict against the
# metric's bound. A last line gives the same for wN_vs_w1, derived per
# run as speedup_vs_seq x w1_overhead (= w1/wN, in which host noise
# common to both widths cancels): informational, with no bound, and not
# a metric CLAIM can name.
#
# The bound is the rule for a metric nobody claimed. A claimed gain is
# held to a stricter one, and CLAIM names the metric to hold to it:
#
#   CLAIM=w1_overhead scripts/pairs.sh circuit_transient 10
#
# adds one line per workload for that metric: the pairs the change won
# (it needs nine tenths of all pairs run, ties counting for neither
# side), both medians, the distance between the parent's quartiles, the
# A/A floor (below), and "claim met" only when it won that many and the
# medians differ, in the better direction, by more than both that
# distance and the floor. CLAIM implies AA=1.
#
# The A/A floor. With AA=1 each workload first runs BASE against itself,
# pair for pair on the same seeds, pads and order as the pairs proper,
# and keeps those runs in
# .bench_build/pairs_aa_WORKLOAD_REV_SECONDSs.jsonl, which a later run
# with the same BASE, seconds, pairs and seeds reuses instead of running
# them again. The A/A's own summary is printed first. Then each metric's
# line gives its floor, the wider of the A/A's two interquartile
# distances (what one tree reads against itself under the layout pads on
# this host today), and "resolved" only when the change's median differs
# from the base's by more than the floor; "unresolved" means the pairs
# cannot tell the two trees apart. Read against its own floor, an A/A
# reads unresolved. BASE=HEAD on a clean tree runs one tree under two
# labels, an A/A of the pairs proper.
#
# Layout pads: before both runs of pair i, the same generated
# bench/aaa_pad.go is written into both copies (never into the
# repository's bench/). It holds one //go:noinline function of 1, 44, 84
# or 124 bytes of code, called from an init, which the linker places
# ahead of the benchmark's own code, so it shifts everything after it by
# one to four 32-byte blocks: on amd64 that puts the hot closures of the
# cell loop at 0, 32, 0 and 32 mod 64. The size cycles through the four,
# one step further every four pairs, so in eight pairs each pad runs
# once with either side first. Each JSONL line records its pad, and the
# summary gives each side's median per pad on a line of its own.
set -euo pipefail

workloads=${1:?usage: scripts/pairs.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [BASE=HEAD~1]}
pairs=${2:-10}
base=${3:-HEAD~1}

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=${PAIRS_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
claim=${CLAIM:-}
aa=${AA:-}
[[ -n $claim ]] && aa=1
first_seed=${PAIRS_SEED:-20}
if [[ -n $claim ]] && ! python3 -c 'import json, sys; sys.exit(sys.argv[1] not in [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]])' "$claim"; then
	echo "CLAIM=$claim is not an end-to-end metric of BENCHMARK.json" >&2
	exit 2
fi
rev=$(git rev-parse --short "$base")
basedir="$root/.bench_build/pairs_base"
rm -rf "$basedir"
mkdir -p "$basedir"
git archive "$base" | tar -x -C "$basedir"
snap=$(git stash create)
snap=$(git rev-parse --short "${snap:-HEAD}")
changedir="$root/.bench_build/pairs_change"
rm -rf "$changedir"
mkdir -p "$changedir"
# Tracked files deleted in the working tree are still listed; skip them.
git ls-files -z -co --exclude-standard --deduplicate |
	while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$changedir"

# padfile SIZE: the Go source of a pad whose function is SIZE bytes of
# amd64 code: one RET and SIZE-1 bytes of constant stores, 7 bytes to a
# byte and 11 to a word, each into its own cache line.
padfile() {
	python3 - "$1" <<'PY'
import sys
rest = int(sys.argv[1]) - 1
words = next(w for w in range(rest // 11 + 1) if (rest - 11 * w) % 7 == 0)
stores = [f"\taaaPadBytes[{64 * i}] = 1" for i in range((rest - 11 * words) // 7)]
stores += [f"\taaaPadWords[{8 * i}] = 1" for i in range(words)]
print(f"""// Code generated by scripts/pairs.sh: a layout pad of {sys.argv[1]} bytes. DO NOT EDIT.

package main

var (
	aaaPadBytes [64 * 32]byte
	aaaPadWords [8 * 32]uint64
)

//go:noinline
func aaaPad() {{
{chr(10).join(stores)}
}}

func init() {{ aaaPad() }}""")
PY
}
pads=(1 44 84 124)

# one SIDE DIR SEED PAD OUT: a timed run of $workload in DIR, its last
# line appended to OUT.
one() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$workload" --seconds "$seconds" --trace 0 --seed "$3" | tail -n 1)
	printf '{"side":"%s","seed":%d,"pad":%d,"run":%s}\n' "$1" "$3" "$4" "$line" >> "$5"
	echo "$1 seed=$3 pad=$4 $line"
}

# pairs_into OUT CHANGEDIR: the pairs of $workload, BASE against
# CHANGEDIR (BASE itself for the A/A), into OUT.
pairs_into() {
	local i seed pad
	: > "$1"
	for ((i = 1; i <= pairs; i++)); do
		seed=$((first_seed + i))
		pad=${pads[(i - 1 + (i - 1) / 4) % 4]}
		padfile "$pad" > "$basedir/bench/aaa_pad.go"
		[[ $2 == "$basedir" ]] || cp "$basedir/bench/aaa_pad.go" "$2/bench/aaa_pad.go"
		if ((i % 2)); then
			one base "$basedir" "$seed" "$pad" "$1"
			one change "$2" "$seed" "$pad" "$1"
		else
			one change "$2" "$seed" "$pad" "$1"
			one base "$basedir" "$seed" "$pad" "$1"
		fi
	done
}

# aa_matches FILE: whether FILE holds exactly this run's pairs (both
# sides of seeds PAIRS_SEED+1..PAIRS_SEED+pairs).
aa_matches() {
	python3 - "$1" "$first_seed" "$pairs" <<'PY'
import json, sys
want = sorted((side, int(sys.argv[2]) + i) for side in ("base", "change") for i in range(1, int(sys.argv[3]) + 1))
try:
    got = sorted((r["side"], r["seed"]) for r in map(json.loads, open(sys.argv[1])))
except (OSError, ValueError, KeyError):
    sys.exit(1)
sys.exit(got != want)
PY
}

# summarize RUNS [AA]: both sides' medians and quartiles per end-to-end
# metric, and with AA, each metric's A/A floor from that file.
summarize() {
	python3 - "$1" "$claim" "${2:-}" <<'PY'
import json, sys

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        p = q * (len(xs) - 1)
        lo = int(p)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (p - lo)
    return at(0.25), at(0.5), at(0.75)

def load(path):
    sides = {"base": [], "change": []}
    for line in open(path):
        rec = json.loads(line)
        sides[rec["side"]].append(rec)
    return sides

def values(recs, name):
    return [r["run"]["metrics"][name]["value"] for r in recs]

sides = load(sys.argv[1])
aa = load(sys.argv[3]) if sys.argv[3] else None

def floor(name):
    # The wider of the A/A's two interquartile distances.
    qs = [quartiles(values(aa[side], name)) for side in ("base", "change")]
    return max(q3 - q1 for q1, _, q3 in qs)

for side, recs in sides.items():
    rs = [r["run"] for r in recs]
    print(f"# {side}: attempted {sum(r['attempted'] for r in rs)}, failed {sum(r['failed'] for r in rs)},"
          f" wrong output in {sum(not r['correct'] for r in rs)} runs")
for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b, c = values(sides["base"], name), values(sides["change"], name)
    worse = (lambda x, y: x > y) if lower else (lambda x, y: x < y)
    wins = sum(worse(x, y) for x, y in zip(b, c))
    losses = sum(worse(y, x) for x, y in zip(b, c))
    (b1, b2, b3), (c1, c2, c3) = quartiles(b), quartiles(c)
    rel = (c2 - b2) / b2 if b2 else 0.0
    regress = rel if lower else -rel
    spread = max(b3 - b1, c3 - c1) / abs(b2) if b2 else 0.0
    if regress > bound:
        verdict = "WORSE beyond the bound"
    elif spread > bound and not all(worse(x, y) for x in b for y in c):
        verdict = "unresolved: spread over the bound"
    else:
        verdict = "within the bound"
    print(f"{name:16s} base {b2:.4f} ({b1:.4f}-{b3:.4f})  change {c2:.4f} ({c1:.4f}-{c3:.4f})"
          f"  change better in {wins}/{len(b)}, worse in {losses}  median {rel:+.1%} (bound {bound:.0%}): {verdict}")
    if aa:
        fl = floor(name)
        print(f"{'':16s} A/A floor {fl:.4f}, medians apart by {abs(c2 - b2):.4f}:"
              f" {'resolved' if abs(c2 - b2) > fl else 'unresolved'}")
    pads = sorted({r["pad"] for r in sides["base"] + sides["change"]})
    print(f"{'':16s} median by pad: " + ", ".join(
        f"{p}: base {quartiles([r['run']['metrics'][name]['value'] for r in sides['base'] if r['pad'] == p])[1]:.4f}"
        f" change {quartiles([r['run']['metrics'][name]['value'] for r in sides['change'] if r['pad'] == p])[1]:.4f}"
        for p in pads))
    if name == sys.argv[2]:
        need = -(-9 * len(b) // 10)
        gain = b2 - c2 if lower else c2 - b2
        fl = floor(name)
        met = wins >= need and gain > b3 - b1 and gain > fl
        print(f"claim {name}: change won {wins}/{len(b)} pairs (needs {need}; {len(b) - wins - losses} tied),"
              f" medians {b2:.4f} -> {c2:.4f} ({'lower' if lower else 'higher'} is better),"
              f" base interquartile distance {b3 - b1:.4f}, A/A floor {fl:.4f},"
              f" medians apart by {gain:+.4f} in the better direction:"
              f" {'claim met' if met else 'claim NOT met'}")
# Derived, informational only (no bound, not a CLAIM): speedup_vs_seq x
# w1_overhead = w1/wN per run, the speedup of width N over width 1 within
# one run, in which common-mode host noise cancels. Higher is better.
def derived(recs):
    return [r["run"]["metrics"]["speedup_vs_seq"]["value"] * r["run"]["metrics"]["w1_overhead"]["value"] for r in recs]
b, c = derived(sides["base"]), derived(sides["change"])
(b1, b2, b3), (c1, c2, c3) = quartiles(b), quartiles(c)
print(f"{'wN_vs_w1':16s} base {b2:.4f} ({b1:.4f}-{b3:.4f})  change {c2:.4f} ({c1:.4f}-{c3:.4f})"
      f"  change better in {sum(y > x for x, y in zip(b, c))}/{len(b)}  (derived: speedup_vs_seq x w1_overhead, no bound)")
PY
}

for workload in ${workloads//,/ }; do
	aafile=
	if [[ -n $aa ]]; then
		aafile="$root/.bench_build/pairs_aa_${workload}_${rev}_${seconds}s.jsonl"
		if aa_matches "$aafile"; then
			echo "# $workload: A/A of base $rev reused from $aafile"
		else
			echo "# $workload: A/A, $pairs pairs of ${seconds}s runs of base $rev against itself"
			pairs_into "$aafile.part" "$basedir"
			mv "$aafile.part" "$aafile"
		fi
		echo "# $workload: the A/A read against its own floor"
		summarize "$aafile" "$aafile" | grep -v '^claim '
	fi
	runs="$root/.bench_build/pairs_${workload}.jsonl"
	echo "# $workload: $pairs pairs of ${seconds}s runs, base $rev against the working tree as snapshot $snap"
	pairs_into "$runs" "$changedir"
	summarize "$runs" "$aafile"
done
