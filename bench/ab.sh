#!/usr/bin/env bash
# Same-session A/B of the ocdxbench end-to-end metrics: BASE_REV vs HEAD.
#
#   bench/ab.sh BASE_REV [WORKLOAD] [PAIRS]
#
# WORKLOAD is ingest_batch, exchange_cold, exchange_warm (the default) or
# all; PAIRS defaults to 10. Environment: AB_SEED (default 1), AB_SECONDS
# (default 30), AB_DIR (scratch directory, default ${TMPDIR:-/tmp}/ocdx-ab.PID).
#
# BASE_REV and HEAD (the committed tree; uncommitted edits are not
# measured) are checked out as two detached git worktrees under AB_DIR.
# Each pair runs
#   python3 ocdxbench/run.py --workload W --seed S --seconds T --trace 0
# once in each checkout, and the side that goes first alternates from pair
# to pair, so slow drift of the host hits both sides alike. Each checkout
# builds its own release binaries under its .bench_build/ on its first
# run, before any timed window. The script only runs ocdxbench/; it never
# edits it.
#
# The last stdout line of every run (one JSON object) is kept in
# AB_DIR/results/W.SIDE.PAIR.json. The summary prints, per workload and
# metric, each side's median and quartiles, the head/base ratio of the
# medians, and how many pairs each side won (direction from the
# end_to_end entries of BENCHMARK.json; lower is better otherwise). The
# worktrees are removed on exit; the results stay.

set -euo pipefail

usage() {
  sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 1 && $# -le 3 ]] || usage
base_rev=$1
workload=${2:-exchange_warm}
pairs=${3:-10}
seed=${AB_SEED:-1}
seconds=${AB_SECONDS:-30}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
case $workload in
  all) workloads="ingest_batch exchange_cold exchange_warm" ;;
  ingest_batch | exchange_cold | exchange_warm) workloads=$workload ;;
  *) usage ;;
esac

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
head_sha=$(git -C "$root" rev-parse --verify HEAD)
ab_dir=${AB_DIR:-${TMPDIR:-/tmp}/ocdx-ab.$$}
results=$ab_dir/results
mkdir -p "$results"

cleanup() {
  for side in base head; do
    if [[ -d $ab_dir/$side ]]; then
      git -C "$root" worktree remove --force "$ab_dir/$side" || true
    fi
  done
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$ab_dir/base" "$base_sha" >/dev/null
git -C "$root" worktree add --detach "$ab_dir/head" "$head_sha" >/dev/null
echo "ab: base $base_sha, head $head_sha, seed $seed, ${seconds}s per run," \
  "$pairs pairs, results in $results" >&2

run_side() {  # SIDE WORKLOAD PAIR
  local stem=$results/$2.$1.$3
  if ! (cd "$ab_dir/$1" && python3 ocdxbench/run.py --workload "$2" \
      --seed "$seed" --seconds "$seconds" --trace 0) \
      >"$stem.out" 2>"$stem.err"; then
    echo "ab: the $1 run failed; see $stem.err" >&2
    exit 1
  fi
  tail -n 1 "$stem.out" >"$stem.json"
}

for ((pair = 0; pair < pairs; ++pair)); do
  if ((pair % 2 == 0)); then order="base head"; else order="head base"; fi
  for w in $workloads; do
    for side in $order; do
      echo "ab: pair $((pair + 1))/$pairs $w: $side" >&2
      run_side "$side" "$w" "$pair"
    done
  done
done

python3 - "$results" "$root/BENCHMARK.json" "$pairs" $workloads <<'EOF'
import json
import statistics
import sys

results, benchmark, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
workloads = sys.argv[4:]
try:
    with open(benchmark) as f:
        higher = {m["name"] for m in json.load(f).get("end_to_end", [])
                  if m.get("better") == "higher"}
except (OSError, ValueError):
    higher = {"ops_per_s"}


def load(w, side, pair):
    with open("%s/%s.%s.%d.json" % (results, w, side, pair)) as f:
        return json.load(f)


def value(run, metric):  # {"value": V, "unit": U}, or a bare number
    v = run["metrics"][metric]
    return v["value"] if isinstance(v, dict) else v


def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


print("%-14s %-15s %28s %28s %9s %9s" % (
    "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
    "head/base", "wins b:h"))
for w in workloads:
    runs = {s: [load(w, s, p) for p in range(pairs)] for s in ("base", "head")}
    for side, rs in runs.items():
        bad = [r for r in rs if not r.get("correct") or r.get("failed")]
        if bad:
            print("%-14s %s: %d run(s) incorrect or with failed ops"
                  % (w, side, len(bad)))
    metrics = sorted(set(runs["base"][0]["metrics"]) &
                     set(runs["head"][0]["metrics"]))
    for m in metrics:
        b = [value(r, m) for r in runs["base"]]
        h = [value(r, m) for r in runs["head"]]
        up = m in higher
        head_wins = sum(1 for x, y in zip(b, h) if (y > x if up else y < x))
        base_wins = sum(1 for x, y in zip(b, h) if (x > y if up else x < y))
        bm, bq1, bq3 = spread(b)
        hm, hq1, hq3 = spread(h)
        ratio = hm / bm if bm else float("nan")
        print("%-14s %-15s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%9.3f %4d:%-4d" % (w, m, bm, bq1, bq3, hm, hq1, hq3, ratio,
                                  base_wins, head_wins))
EOF
