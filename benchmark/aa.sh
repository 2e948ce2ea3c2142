#!/usr/bin/env bash
# A/A check: the full untraced suite twice on the same build with the
# default seed, and a third time with --seed 7. Prints, per metric x
# workload, the three values and their spread, max / min - 1 (markdown, as
# committed in AA.md), and exits non-zero if any spread exceeds the
# metric's bound in BENCHMARK.json. The spread is symmetric: between runs
# of the same code the direction of a difference is noise, so a pair that
# differs by more than the bound fails whichever way round it was drawn.
#
# The traced probes are left out: they have no bound. ~6 minutes.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
WORKLOADS="mem-scan mem-mw svc abd-sim wire wire-durable wire-degraded"
RESULTS="${CARGO_TARGET_DIR:-$ROOT/target/benchmark}/aa-results.txt"
mkdir -p "$(dirname "$RESULTS")"
: >"$RESULTS"
trap 'rm -f "$RESULTS"' EXIT

for set in A:1990 B:1990 C:7; do
    for w in $WORKLOADS; do
        line="$("$HERE/run.sh" --workload "$w" --seed "${set#*:}" --trace 0 | tail -n 1)"
        printf '%s %s %s\n' "${set%%:*}" "$w" "$line" >>"$RESULTS"
    done
done

python3 - "$ROOT/BENCHMARK.json" "$RESULTS" <<'PY'
import json, sys

spec = json.load(open(sys.argv[1]))
runs = {}
for line in open(sys.argv[2]):
    which, workload, result = line.split(" ", 2)
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0, (which, workload, result)
    runs[which, workload] = {k: v["value"] for k, v in result["metrics"].items()}

print("# A/A: two sets of runs of the same build, and a third with `--seed 7`")
print()
print(f"`run_seconds` = {spec['run_seconds']}; sets A and B use `--seed 1990`, set C `--seed 7`.")
print("**spread** is max(A, B, C) / min(A, B, C) - 1, which the metric's bound limits.")
print()
print("| workload | metric | A | B | C | spread | bound | within |")
print("|---|---|---|---|---|---|---|---|")
failed = []
for workload in [w["name"] for w in spec["workloads"]]:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b, c = (runs[s, workload][name] for s in "ABC")
        spread = max(a, b, c) / min(a, b, c) - 1
        ok = spread <= bound
        if not ok:
            failed.append((workload, name))
        print(f"| {workload} | {name} | {a:.6g} | {b:.6g} | {c:.6g} | {spread:.1%} | {bound:.0%} | {'yes' if ok else '**NO**'} |")
print()
if failed:
    print(f"{len(failed)} end-to-end cell(s) beyond their bound: {failed}")
    sys.exit(1)
print("Every end-to-end cell is within its bound.")
PY
