#!/usr/bin/env bash
# repeat.sh [N] [PREVIOUS.json] — how the bounds in BENCHMARK.json are derived
# and checked.
#
# Runs the full untraced set N times (default 5), exactly as the benchmark
# driver does: BENCHMARK.json's command, every workload, run_seconds each,
# a different --seed per repetition. Prints median / quartiles / spread per
# (metric, workload), where spread = (Q3 - Q1) / median with Python's
# statistics.quantiles(n=4), and checks each spread against the metric's
# bound (setup_s excepted, as in the driver). With PREVIOUS.json (an earlier
# output of this script) it also checks that no median got worse than the
# previous one by more than the bound.
#
# The raw values and the summary go to benchmark/out/repeat-<unix time>.json.
# Exit status 1 when a bound does not hold.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
n="${1:-5}"
previous="${2:-}"
mkdir -p "$here/out"
raw="$(mktemp "$here/out/repeat-raw.XXXXXX")"
trap 'rm -f "$raw"' EXIT

cd "$root"
mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

for seed in $(seq 1 "$n"); do
  for w in "${workloads[@]}"; do
    echo "repeat: seed $seed workload $w" >&2
    line="$("${command[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$w" "$seed" "$line" >>"$raw"
  done
done

out="$here/out/repeat-$(date +%s).json"
python3 - "$raw" "$out" "$previous" <<'EOF'
import json, statistics, sys

raw, out, previous = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(raw)]
prev = json.load(open(previous))["summary"] if previous else {}
ok = True
summary = {}
print(f"{'workload':<20}{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'max-min/med':>12}{'bound':>7}  verdict")
for w in [x["name"] for x in bench["workloads"]]:
    mine = [r["result"] for r in runs if r["workload"] == w]
    if any(not r["correct"] or r["failed"] for r in mine):
        ok = False
        print(f"{w}: a run reported failed operations or wrong outputs")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in mine]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        span = (max(values) - min(values)) / med
        verdict = []
        if m["name"] != "setup_s" and spread > m["bound"]:
            verdict.append("SPREAD OVER BOUND")
        elif m["name"] != "setup_s" and spread > m["bound"] / 3:
            verdict.append("spread over bound/3")
        before = prev.get(w, {}).get(m["name"], {}).get("median")
        if before:
            worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
            verdict.append(f"median {'worse' if worse > 0 else 'better'} by {abs(worse):.1%}")
            if worse > m["bound"]:
                verdict.append("MEDIAN OVER BOUND")
        if any(v.isupper() for v in verdict):
            ok = False
        summary.setdefault(w, {})[m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": spread, "span_over_median": span, "values": values,
        }
        print(f"{w:<20}{m['name']:<24}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{span:>12.3f}{m['bound']:>7.2f}  {'; '.join(verdict) or 'ok'}")
json.dump({"runs_per_workload": len(runs) // len(bench["workloads"]),
           "run_seconds": bench["run_seconds"], "summary": summary}, open(out, "w"), indent=1)
print(f"wrote {out}")
sys.exit(0 if ok else 1)
EOF
