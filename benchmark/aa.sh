#!/usr/bin/env bash
# A/A check: the benchmark against itself.
#
#   bash benchmark/aa.sh [N] [workload ...]
#
# Runs two interleaved sets (A, B) of N >= 5 runs per workload on one
# binary, run i of both sets with seed i. For every end-to-end metric it
# prints each set's quartiles, its spread (q3 - q1 over the median, as
# statistics.quantiles(values, n=4) gives them) and how far the two
# medians are apart. It exits non-zero when
#   - two medians differ by more than the metric's bound in BENCHMARK.json,
#   - a run failed or reported correct=false, or
#   - the two runs with the same seed printed different sim_digest values:
#     every simulated number must repeat exactly, not statistically.
# A spread above a third of the bound is flagged but does not fail.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n=5
if [[ $# -gt 0 && $1 =~ ^[0-9]+$ ]]; then
	n=$1
	shift
fi
if ((n < 5)); then
	echo "aa.sh: need N >= 5 runs per set, got $n" >&2
	exit 2
fi
if [[ $# -gt 0 ]]; then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

# Build once; every run below uses this one binary.
bash "$here/run.sh" -manifest >/dev/null
bin="$root/.bench_build/svmbenchmark"
out="$root/.bench_build/aa"
rm -rf "$out"
mkdir -p "$out"

for w in "${workloads[@]}"; do
	for ((seed = 1; seed <= n; seed++)); do
		for set in A B; do
			echo "aa: $w seed $seed set $set" >&2
			if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				>"$out/$w.$set.$seed.txt"; then
				echo "aa: run failed: $w seed $seed set $set" >&2
				exit 1
			fi
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out" "$n" "${workloads[@]}" <<'EOF'
import json, statistics, sys

manifest, out, n, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bounds = {m["name"]: m["bound"] for m in json.load(open(manifest))["end_to_end"]}
bad = 0

def load(w, s, seed):
    lines = open(f"{out}/{w}.{s}.{seed}.txt").read().splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")][0]
    return json.loads(lines[-1]), digest

for w in workloads:
    runs = {s: [load(w, s, seed) for seed in range(1, n + 1)] for s in "AB"}
    for seed in range(n):
        (ra, da), (rb, db) = runs["A"][seed], runs["B"][seed]
        for r in (ra, rb):
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w} seed {seed + 1}: correct={r['correct']} failed={r['failed']}")
                bad += 1
        if da != db:
            print(f"FAIL {w} seed {seed + 1}: sim_digest {da} != {db}")
            bad += 1
    print(f"\n{w}: {n} runs per set, seeds 1..{n}, sim_digest identical per seed")
    print(f"  {'metric':24s} {'set':3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'A/B':>8s}")
    for name, bound in bounds.items():
        med = {}
        for s in "AB":
            vals = [r["metrics"][name]["value"] for r, _ in runs[s]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med[s] = statistics.median(vals)
            spread = (q3 - q1) / med[s]
            flag = "  spread > bound/3" if name != "setup_s" and spread > bound / 3 else ""
            diff = f"{abs(med['A'] - med['B']) / med['A']:8.4f}" if s == "B" else ""
            print(f"  {name:24s} {s:3s} {q1:12.6g} {med[s]:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f} {diff}{flag}")
        if abs(med["A"] - med["B"]) / med["A"] > bound:
            print(f"FAIL {w} {name}: medians {med['A']:.6g} and {med['B']:.6g} differ by more than {bound}")
            bad += 1

print("\nA/A:", "FAILED" if bad else "ok")
sys.exit(1 if bad else 0)
EOF
