#!/usr/bin/env bash
# Builds the benchmarks in Release mode, runs every bench_* binary with
# --benchmark_format=json, and merges the results into BENCH_<tag>.json at
# the repo root so the perf trajectory is tracked PR over PR.
#
# bench_batch_throughput is part of the sweep: it drives the whole .dx
# corpus through the parallel batch runner (src/exec) at -j 1/2/4/8, so
# BENCH_<tag>.json records corpus jobs/second per worker count alongside
# the engine microbenchmarks. Note the scaling columns only spread on
# multi-core hosts; a single-core container records ~1x (queue overhead).
#
# Usage: bench/run_benchmarks.sh [--check BASELINE.json] [tag] [benchmark-filter]
#   --check FILE  after the run, compare against the recorded baseline and
#                 exit non-zero if any benchmark regressed by more than 20%
#                 (real_time, matched by merged benchmark name)
#   tag           suffix of the output file (default: pr1 -> BENCH_pr1.json)
#   filter        optional --benchmark_filter regex forwarded to every binary
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

CHECK_BASELINE=""
POSITIONAL=()
while [ $# -gt 0 ]; do
  case "$1" in
    --check)
      CHECK_BASELINE="$2"
      shift 2
      ;;
    *)
      POSITIONAL+=("$1")
      shift
      ;;
  esac
done
TAG="${POSITIONAL[0]:-pr1}"
FILTER="${POSITIONAL[1]:-}"
BUILD_DIR="$REPO_ROOT/build-release"
OUT="$REPO_ROOT/BENCH_${TAG}.json"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" >/dev/null

RESULTS_DIR="$BUILD_DIR/bench-results"
mkdir -p "$RESULTS_DIR"

for bin in "$BUILD_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "== $name"
  args=(--benchmark_format=json --benchmark_out="$RESULTS_DIR/$name.json"
        --benchmark_out_format=json --benchmark_repetitions=3)
  if [ -n "$FILTER" ]; then
    args+=(--benchmark_filter="$FILTER")
  fi
  "$bin" "${args[@]}" >/dev/null
done

# One instrumented corpus sweep alongside the microbenchmarks: the final
# EngineStats aggregate (plan table traffic, shard fan-out, phase ns) is
# embedded into BENCH_<tag>.json so counter drift is tracked PR over PR
# with the timings. Exit 3 = governed corpus files (cyclic_chase trips
# its chase budget by design) — the stats are still complete.
echo "== corpus engine stats"
"$BUILD_DIR/ocdx" batch --command=all \
  --stats-json="$RESULTS_DIR/engine_stats.json" \
  "$REPO_ROOT"/tests/corpus/*.dx >/dev/null 2>&1 || true

python3 - "$OUT" "$RESULTS_DIR" <<'EOF'
import json, os, sys

out_path, results_dir = sys.argv[1], sys.argv[2]
merged = {"benchmarks": {}, "context": None}
for fname in sorted(os.listdir(results_dir)):
    if not fname.endswith(".json") or fname == "engine_stats.json":
        continue
    with open(os.path.join(results_dir, fname)) as f:
        data = json.load(f)
    if merged["context"] is None:
        merged["context"] = data.get("context")
    merged["benchmarks"][fname[: -len(".json")]] = data.get("benchmarks", [])
# Engine-counter aggregate from the corpus sweep above. Kept under its
# own key: --check reads only "benchmarks", so baselines predating this
# field stay comparable.
stats_path = os.path.join(results_dir, "engine_stats.json")
if os.path.exists(stats_path):
    with open(stats_path) as f:
        merged["engine_stats"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out_path}")
EOF

if [ -n "$CHECK_BASELINE" ]; then
  python3 - "$CHECK_BASELINE" "$OUT" <<'EOF'
import json, sys

THRESHOLD = 1.20  # fail on >20% regression

base_path, new_path = sys.argv[1], sys.argv[2]
with open(base_path) as f:
    base = json.load(f)
with open(new_path) as f:
    new = json.load(f)

def flatten(doc):
    """Benchmark name -> median real_time over repetitions (microsecond
    benchmarks are noisy on shared machines; medians keep the gate from
    tripping on one bad run)."""
    samples = {}
    for group, entries in doc.get("benchmarks", {}).items():
        for e in entries:
            if e.get("run_type", "iteration") != "iteration":
                continue
            samples.setdefault(f"{group}/{e['name']}", []).append(
                float(e["real_time"]))
    return {k: sorted(v)[len(v) // 2] for k, v in samples.items()}

base_times, new_times = flatten(base), flatten(new)
regressions, improvements = [], 0
for name, old in sorted(base_times.items()):
    if name not in new_times:
        continue  # benchmark removed or renamed; not a regression
    ratio = new_times[name] / old if old > 0 else 1.0
    if ratio > THRESHOLD:
        regressions.append((name, old, new_times[name], ratio))
    elif ratio < 1.0:
        improvements += 1

print(f"-- checked {len(base_times)} baseline benchmarks against "
      f"{base_path}: {improvements} faster, {len(regressions)} regressed "
      f">{int((THRESHOLD - 1) * 100)}%")
for name, old, cur, ratio in regressions:
    print(f"   REGRESSION {name}: {old:.4f} -> {cur:.4f} ms "
          f"({ratio:.2f}x)")
sys.exit(1 if regressions else 0)
EOF
fi
