#!/usr/bin/env bash
# A/B check: the benchmark on a base commit against this checkout.
#
#   bash scripts/ab.sh [--seconds S] <base-ref> <workloads> <pairs>
#
# <workloads> is one workload, a comma-separated list, or `all` (every
# workload of BENCHMARK.json). Exports <base-ref> with `git archive` into
# .bench_build/ab/base (no worktree to unregister afterwards), builds both
# sides once with their own benchmark/run.sh, and runs each workload in turn:
# <pairs> pairs of `--workload W --trace 0`, pair i on seed 1 + (i-1) mod 4
# for both sides, the base first in odd pairs and the change first in even
# ones. S defaults to BENCHMARK.json's run_seconds. For every workload and
# end-to-end metric it prints each side's quartiles and median, the pairs the
# change won (ties count for neither side) and a verdict by the rules of the
# choosing-metrics guide, sections 6 and 8:
#   gain        the change won >= 9/10 of the pairs and the medians are
#               further apart than the base's own inter-quartile distance;
#   WORSE       the change's median is worse than the base's by more than
#               the metric's bound in BENCHMARK.json;
#   unresolved  it is, but the runs spread (either side's inter-quartile
#               distance) wider than that bound, or there is one pair and so
#               no spread to read: not a regression shown, not one excluded;
#   -           none of these.
# It ends with one table, workload x metric x verdict, and exits non-zero
# when a run failed or reported correct=false, when a pair's two sim_digest
# values differ (a host-only change must repeat every simulated number
# exactly), or on any WORSE; a change that means to move a number reads the
# report and ignores the status.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
if [[ ${1:-} == --seconds ]]; then
	seconds=$2
	shift 2
fi
if [[ $# -ne 3 || ! $3 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: ab.sh [--seconds S] <base-ref> <workload>[,<workload>...]|all <pairs>" >&2
	exit 2
fi
ref=$1 pairs=$3
if [[ $2 == all ]]; then
	workloads="$(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$root/BENCHMARK.json")"
else
	workloads="${2//,/ }"
fi

out="$root/.bench_build/ab"
rm -rf "$out"
mkdir -p "$out/base"
commit="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
git -C "$root" archive "$commit" | tar -x -C "$out/base"

# Build each side once; every run below uses these two binaries.
bash "$out/base/benchmark/run.sh" -manifest >/dev/null
bash "$root/benchmark/run.sh" -manifest >/dev/null
declare -A bin=([base]="$out/base/.bench_build/svmbenchmark" [change]="$root/.bench_build/svmbenchmark")

for workload in $workloads; do
	for ((i = 1; i <= pairs; i++)); do
		seed=$((1 + (i - 1) % 4))
		order=(base change)
		((i % 2 == 0)) && order=(change base)
		for side in "${order[@]}"; do
			echo "ab: $workload pair $i/$pairs seed $seed $side" >&2
			if ! "${bin[$side]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
				>"$out/$workload.$side.$i.txt"; then
				echo "ab: run failed: $workload pair $i $side (see $out/$workload.$side.$i.txt)" >&2
				exit 1
			fi
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$commit" "$seconds" $workloads <<'EOF'
import json, statistics, sys

manifest, out, pairs, commit, seconds, *workloads = sys.argv[1:]
pairs = int(pairs)
spec = {m["name"]: m for m in json.load(open(manifest))["end_to_end"]}
bad = 0
table = {}  # (workload, metric) -> "+1.2% verdict"

def load(workload, side, i):
    lines = open(f"{out}/{workload}.{side}.{i}.txt").read().splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")][0]
    return json.loads(lines[-1]), digest

def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3

for workload in workloads:
    runs = {side: [load(workload, side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
    for i in range(pairs):
        for side in runs:
            r, _ = runs[side][i]
            if not r["correct"] or r["failed"]:
                print(f"FAIL {workload} pair {i + 1} {side}: correct={r['correct']} failed={r['failed']} of {r['attempted']}")
                bad += 1
        if runs["base"][i][1] != runs["change"][i][1]:
            print(f"FAIL {workload} pair {i + 1} (seed {1 + i % 4}): sim_digest base {runs['base'][i][1]} change {runs['change'][i][1]}")
            bad += 1

    print(f"\n{workload}: {pairs} pairs of --seconds {seconds}, base {commit[:12]} vs this checkout, seeds 1-4 in turn")
    if pairs < 10:
        print("  fewer than ten pairs: the verdicts are indicative, a claim needs ten")
    print(f"  {'metric':22s} {'side':6s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'change':>8s} {'won':>6s}  verdict")
    for name, m in spec.items():
        vals = {side: [r["metrics"][name]["value"] for r, _ in runs[side]] for side in runs}
        better = (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b)
        won = sum(better(c, b) for b, c in zip(vals["base"], vals["change"]))
        lost = sum(better(b, c) for b, c in zip(vals["base"], vals["change"]))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(vals["base"]), quartiles(vals["change"])
        rel = (cmed - bmed) / bmed if bmed else 0.0
        verdict = "-"
        if better(cmed, bmed) and won >= 0.9 * pairs and abs(cmed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif better(bmed, cmed) and abs(rel) > m["bound"]:
            if pairs < 2 or max(bq3 - bq1, cq3 - cq1) > m["bound"] * abs(bmed):
                verdict = f"unresolved (bound {m['bound']:.2f})"
            else:
                verdict = f"WORSE (bound {m['bound']:.2f})"
                bad += 1
        table[workload, name] = f"{100 * rel:+.1f}% {verdict.split()[0]}"
        print(f"  {name:22s} {'base':6s} {bq1:11.6g} {bmed:11.6g} {bq3:11.6g}")
        print(f"  {'':22s} {'change':6s} {cq1:11.6g} {cmed:11.6g} {cq3:11.6g} {100 * rel:+7.1f}% {won:3d}/{pairs:<2d}  {verdict}"
              + (f"  (lost {lost})" if lost else ""))
        print(f"  {'':22s} every pair, base/change: " + "  ".join(f"{b:.6g}/{c:.6g}" for b, c in zip(vals["base"], vals["change"])))

width = max(18, *(len(w) + 1 for w in workloads))
print(f"\nchange of the median against base {commit[:12]}, {pairs} pairs of --seconds {seconds}, and verdict:")
print(f"  {'metric':22s}" + "".join(f"{w:>{width}s}" for w in workloads))
for name in spec:
    print(f"  {name:22s}" + "".join(f"{table[w, name]:>{width}s}" for w in workloads))

print("\nA/B:", "FAILED (a failed run, a sim_digest mismatch or a WORSE above)" if bad
      else "ok (runs correct, sim_digest identical in every pair, nothing WORSE)")
sys.exit(1 if bad else 0)
EOF
