#!/usr/bin/env bash
# Alternated parent/change pairs of the benchmark of record, the loop
# every performance claim in CHANGES.md rests on. Run it from the
# repository root:
#
#   scripts/pairs.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [BASE=HEAD~1]
#
# The change is the working tree; BASE is unpacked once under
# .bench_build/ (git archive, so nothing is registered in .git). The
# workloads run one after another, each with its own summary. Pair i
# runs both sides on seed PAIRS_SEED+i (default 20; another value checks
# a claim on seeds it was not built on), BASE first in odd pairs and the
# change first in even ones, each for PAIRS_SECONDS seconds (default:
# run_seconds of BENCHMARK.json). Every run's last JSON line is kept;
# the summary gives, per end-to-end metric, each side's median and
# quartiles, the pairs the change won, and a verdict against the
# metric's bound.
#
# The bound is the rule for a metric nobody claimed. A claimed gain is
# held to a stricter one, and CLAIM names the metric to hold to it:
#
#   CLAIM=w1_overhead scripts/pairs.sh circuit_transient 10
#
# adds one line per workload for that metric: the pairs the change won
# (it needs nine tenths of all pairs run, ties counting for neither
# side), both medians, the distance between the parent's quartiles, and
# "claim met" only when it won that many and the medians differ, in the
# better direction, by more than that distance.
#
# BASE=HEAD on a clean tree runs one tree under two labels: the A/A
# floor, what each metric's spread and win count read under no change
# on this host today.
set -euo pipefail

workloads=${1:?usage: scripts/pairs.sh WORKLOAD[,WORKLOAD...] [PAIRS=10] [BASE=HEAD~1]}
pairs=${2:-10}
base=${3:-HEAD~1}

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=${PAIRS_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
claim=${CLAIM:-}
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

# one SIDE DIR SEED: a timed run of $workload in DIR, its last line kept.
one() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$workload" --seconds "$seconds" --trace 0 --seed "$3" | tail -n 1)
	printf '{"side":"%s","seed":%d,"run":%s}\n' "$1" "$3" "$line" >> "$runs"
	echo "$1 seed=$3 $line"
}

# summarize RUNS: both sides' medians and quartiles per end-to-end metric.
summarize() {
	python3 - "$1" "$claim" <<'PY'
import json, sys

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        p = q * (len(xs) - 1)
        lo = int(p)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (p - lo)
    return at(0.25), at(0.5), at(0.75)

sides = {"base": [], "change": []}
for line in open(sys.argv[1]):
    rec = json.loads(line)
    sides[rec["side"]].append(rec["run"])
for side, rs in sides.items():
    print(f"# {side}: attempted {sum(r['attempted'] for r in rs)}, failed {sum(r['failed'] for r in rs)},"
          f" wrong output in {sum(not r['correct'] for r in rs)} runs")
for m in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b = [r["metrics"][name]["value"] for r in sides["base"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
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
    if name == sys.argv[2]:
        need = -(-9 * len(b) // 10)
        gain = b2 - c2 if lower else c2 - b2
        met = wins >= need and gain > b3 - b1
        print(f"claim {name}: change won {wins}/{len(b)} pairs (needs {need}; {len(b) - wins - losses} tied),"
              f" medians {b2:.4f} -> {c2:.4f} ({'lower' if lower else 'higher'} is better),"
              f" base interquartile distance {b3 - b1:.4f}, medians apart by {gain:+.4f} in the better direction:"
              f" {'claim met' if met else 'claim NOT met'}")
PY
}

for workload in ${workloads//,/ }; do
	runs="$root/.bench_build/pairs_${workload}.jsonl"
	: > "$runs"
	echo "# $workload: $pairs pairs of ${seconds}s runs, base $rev against the working tree"
	for ((i = 1; i <= pairs; i++)); do
		seed=$((first_seed + i))
		if ((i % 2)); then
			one base "$basedir" "$seed"
			one change "$root" "$seed"
		else
			one change "$root" "$seed"
			one base "$basedir" "$seed"
		fi
	done
	summarize "$runs"
done
