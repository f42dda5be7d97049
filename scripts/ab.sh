#!/usr/bin/env bash
# ab.sh PARENT --workload W --pairs N [--seconds S] [--trace] [--change REV]
#
# Paired A/B of iwbench: the committed tree at PARENT (any git revision)
# against the working tree, or against the committed tree at REV with
# --change (`ab.sh X --change X` is an A/A run: it shows the host's
# paired noise). A revision is exported with `git archive` into a
# temporary directory (under $TMPDIR) and built there with its own
# target directory; the working tree's benchmark package is built in
# place. Then N pairs run in ABBA order (pair i runs parent first when i
# is odd, change first when it is even), both sides of pair i with
# --seed i, each run --seconds S long (default 20, BENCHMARK.json's run
# length). With --trace the per-layer metrics are compared instead of
# the end-to-end ones.
#
# Before each run the per-CPU idle time is read from /proc/stat over one
# second; if any CPU was more than 50 % busy the script stops, since a
# run beside a busy process measures that process, not the change.
#
# Prints one JSON object on stdout: every pair's metric values, and per
# metric the parent and change medians, the parent's quartiles, the
# median of the paired relative deltas ((change - parent) / parent) and
# how many pairs the change won (better in BENCHMARK.json's direction).
# Progress goes to stderr. The temporary directory is removed on exit.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT --workload W --pairs N [--seconds S] [--trace] [--change REV]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent="$1"
shift
workload=""
pairs=""
seconds=20
trace=0
change=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace=1; shift ;;
    --change) change="${2:?}"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage

root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Unpacks the committed tree at revision $1 into directory $2.
export_rev() {
  echo "ab: exporting $1 into $2" >&2
  mkdir "$2"
  git -C "$root" archive "$1" | tar -x -C "$2"
}
export_rev "$rev" "$tmp/parent"
change_dir="$root"
change_rev="working tree"
if [ -n "$change" ]; then
  change_rev="$(git -C "$root" rev-parse --verify "$change^{commit}")"
  change_dir="$tmp/change"
  export_rev "$change_rev" "$change_dir"
fi

build() {
  cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "ab: building the parent" >&2
build "$tmp/parent"
echo "ab: building the change ($change_rev)" >&2
build "$change_dir"

# Stops the script if any CPU was more than 50 % busy over one second
# (idle and iowait ticks from /proc/stat against all ticks).
require_idle() {
  python3 -c '
import sys, time
def sample():
    out = {}
    for line in open("/proc/stat"):
        f = line.split()
        if f[0].startswith("cpu") and f[0] != "cpu":
            ticks = [int(x) for x in f[1:]]
            out[f[0]] = (ticks[3] + ticks[4], sum(ticks))
    return out
a = sample()
time.sleep(1)
b = sample()
for cpu in sorted(a):
    total = b[cpu][1] - a[cpu][1]
    busy = 1 - (b[cpu][0] - a[cpu][0]) / total if total else 0.0
    if busy > 0.5:
        sys.exit(f"ab: {cpu} was {busy:.0%} busy over 1 s; refusing to measure beside it")
'
}

# One run of side $1 ("parent" or "change") at seed $2; its JSON result
# line is appended to $tmp/runs as {"side", "pair", "result"}.
run() {
  local dir
  if [ "$1" = parent ]; then dir="$tmp/parent"; else dir="$change_dir"; fi
  require_idle
  echo "ab: pair $2: $1" >&2
  local line
  # iwbench exits non-zero when an output check fails; its result line
  # still says so (`correct`, `failed`), so the run is kept.
  line="$(cd "$dir/benchmark" && target/release/iwbench --workload "$workload" \
    --seed "$2" --seconds "$seconds" --trace "$trace" | tail -n 1)" || true
  if [ -z "$line" ]; then
    echo "ab: pair $2: $1 printed no result" >&2
    exit 1
  fi
  printf '{"side": "%s", "pair": %s, "result": %s}\n' "$1" "$2" "$line" >>"$tmp/runs"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
done

python3 - "$tmp/runs" "$root/BENCHMARK.json" "$rev" "$change_rev" "$workload" "$seconds" "$trace" <<'EOF'
import json, statistics, sys

runs_path, bench_path, rev, change_rev, workload, seconds, trace = sys.argv[1:]
bench = json.load(open(bench_path))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
runs = [json.loads(l) for l in open(runs_path)]
by_pair = {}
for r in runs:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
pairs = [by_pair[p] for p in sorted(by_pair)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3

metrics = {}
names = sorted({n for p in pairs for side in p.values() for n in side["metrics"]})
for name in names:
    both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
    both = [(a["value"], b["value"]) for a, b in both if a and b]
    if not both:
        continue
    a = [x for x, _ in both]
    b = [y for _, y in both]
    deltas = [(y - x) / x for x, y in both if x]
    direction = better.get(name)
    wins = None
    if direction:
        wins = sum(1 for x, y in both if (y < x if direction == "lower" else y > x))
    q1, q3 = quartiles(a)
    metrics[name] = {
        "better": direction,
        "parent_median": statistics.median(a),
        "change_median": statistics.median(b),
        "parent_q1": q1,
        "parent_q3": q3,
        "delta_median": statistics.median(deltas) if deltas else None,
        "change_wins": wins,
        "pairs": len(both),
    }

print(json.dumps({
    "parent": rev,
    "change": change_rev,
    "workload": workload,
    "seconds": int(seconds),
    "trace": trace == "1",
    "order": "ABBA",
    "pairs": [
        {
            "pair": p,
            "seed": p,
            "first": "parent" if p % 2 == 1 else "change",
            **{side: {"correct": res["correct"], "failed": res["failed"],
                      "metrics": {n: m["value"] for n, m in res["metrics"].items()}}
               for side, res in by_pair[p].items()},
        }
        for p in sorted(by_pair)
    ],
    "metrics": metrics,
}, indent=1))
EOF
