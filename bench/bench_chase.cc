// E12: the chase substrate. Canonical solutions are computable in
// polynomial time for every annotation (the engine behind Theorem 1.4 and
// Corollary 2); this bench shows the scaling of CSolA construction on the
// conference scenario and on copying mappings.

#include <benchmark/benchmark.h>

#include "chase/canonical.h"
#include "logic/engine_context.h"
#include "mapping/rule_parser.h"
#include "util/rng.h"
#include "workloads/scenarios.h"

namespace ocdx {
namespace {

void RunChaseConference(benchmark::State& state, JoinEngineMode mode) {
  // Production configuration: a job-scoped plan table carried across
  // iterations, as the driver/CLI attach per command run (the uncached
  // path is CI's OCDX_PLAN_CACHE=off job).
  const EngineContext ctx = EngineContext::CachedForMode(mode);
  const size_t papers = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ConferenceScenario> sc =
      BuildConferenceScenario(papers, papers / 2, &u);
  if (!sc.ok()) {
    state.SkipWithError(sc.status().ToString().c_str());
    return;
  }
  size_t tuples = 0;
  for (auto _ : state) {
    Result<CanonicalSolution> csol = Chase(sc.value().mapping,
                                           sc.value().source, &u, ctx);
    if (!csol.ok()) {
      state.SkipWithError(csol.status().ToString().c_str());
      return;
    }
    tuples = csol.value().annotated.TotalTuples();
    benchmark::DoNotOptimize(csol);
  }
  state.counters["target_tuples"] = static_cast<double>(tuples);
  state.counters["papers"] = static_cast<double>(papers);
}

void BM_ChaseConference(benchmark::State& state) {
  RunChaseConference(state, JoinEngineMode::kIndexed);
  state.SetLabel("E12 chase: conference scenario (PTIME, Thm 1.4)");
}
BENCHMARK(BM_ChaseConference)->Arg(10)->Arg(50)->Arg(250)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Naive-path baseline (original nested-loop scans), benched side-by-side
// at the largest arg so the indexed speedup is tracked in BENCH_*.json.
void BM_ChaseConferenceNaive(benchmark::State& state) {
  RunChaseConference(state, JoinEngineMode::kNaive);
  state.SetLabel("E12 chase baseline: naive nested-loop joins");
}
BENCHMARK(BM_ChaseConferenceNaive)->Arg(1000)->Unit(benchmark::kMillisecond);

void RunChaseCopy(benchmark::State& state, JoinEngineMode mode) {
  // Production configuration: a job-scoped plan table carried across
  // iterations, as the driver/CLI attach per command run (the uncached
  // path is CI's OCDX_PLAN_CACHE=off job).
  const EngineContext ctx = EngineContext::CachedForMode(mode);
  const size_t edges = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src;
  src.Add("E", 2);
  Result<Mapping> copy = BuildCopyMapping(src, Ann::kClosed, &u);
  Instance s;
  Rng rng(7);
  for (size_t i = 0; i < edges; ++i) {
    s.Add("E", {u.IntConst(static_cast<int64_t>(rng.Below(edges))),
                u.IntConst(static_cast<int64_t>(rng.Below(edges)))});
  }
  for (auto _ : state) {
    Result<CanonicalSolution> csol = Chase(copy.value(), s, &u, ctx);
    if (!csol.ok()) {
      state.SkipWithError(csol.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(csol);
  }
  state.counters["edges"] = static_cast<double>(edges);
}

void BM_ChaseCopy(benchmark::State& state) {
  RunChaseCopy(state, JoinEngineMode::kIndexed);
  state.SetLabel("E12 chase: copying mapping");
}
BENCHMARK(BM_ChaseCopy)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_ChaseCopyNaive(benchmark::State& state) {
  RunChaseCopy(state, JoinEngineMode::kNaive);
  state.SetLabel("E12 chase baseline: naive copying mapping");
}
BENCHMARK(BM_ChaseCopyNaive)->Arg(1000)->Unit(benchmark::kMillisecond);

// Chase with an FO body (negation): the third conference rule needs a
// subquery per paper.
void RunChaseNegatedBody(benchmark::State& state, JoinEngineMode mode) {
  // Production configuration: a job-scoped plan table carried across
  // iterations, as the driver/CLI attach per command run (the uncached
  // path is CI's OCDX_PLAN_CACHE=off job).
  const EngineContext ctx = EngineContext::CachedForMode(mode);
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src, tgt;
  src.Add("Papers", 2);
  src.Add("Assignments", 2);
  tgt.Add("Reviews", 2);
  Result<Mapping> m = ParseMapping(
      "Reviews(x^cl, z^op) :- Papers(x, y) & !exists r. Assignments(x, r);",
      src, tgt, &u);
  Instance s;
  for (size_t i = 0; i < n; ++i) {
    s.Add("Papers", {u.IntConst(static_cast<int64_t>(i)), u.Const("t")});
    if (i % 2 == 0) {
      s.Add("Assignments",
            {u.IntConst(static_cast<int64_t>(i)), u.Const("r")});
    }
  }
  for (auto _ : state) {
    Result<CanonicalSolution> csol = Chase(m.value(), s, &u, ctx);
    if (!csol.ok()) {
      state.SkipWithError(csol.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(csol);
  }
}

void BM_ChaseNegatedBody(benchmark::State& state) {
  RunChaseNegatedBody(state, JoinEngineMode::kIndexed);
  state.SetLabel("E12 chase: FO body with negation (anti-join guard)");
}
BENCHMARK(BM_ChaseNegatedBody)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The negated body is not a pure CQ, so the pre-index engine fell back to
// active-domain enumeration; bench that path side-by-side too.
void BM_ChaseNegatedBodyGeneric(benchmark::State& state) {
  RunChaseNegatedBody(state, JoinEngineMode::kGeneric);
  state.SetLabel("E12 chase baseline: negated body via generic evaluator");
}
BENCHMARK(BM_ChaseNegatedBodyGeneric)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
