// E7/E8 (Theorem 4, Table 1): the composition-problem trichotomy in
// #op(Sigma_alpha), plus the NP column for monotone all-open Delta.
//
//   Table 1 of the paper:
//                      arbitrary Delta     all-open+monotone Delta
//     #op = 0          NP-complete         NP-complete
//     #op = 1          NEXPTIME-complete   NP-complete
//     #op > 1          undecidable         NP-complete
//
// Series: (row 1) the all-closed NP path on the 3-colorability reduction;
// (column 2) the Lemma 3 collapse for monotone all-open Delta under mixed
// Sigma; (row 2) the bounded general path for #op = 1.

#include <benchmark/benchmark.h>

#include "compose/compose.h"
#include "logic/engine_context.h"
#include "mapping/rule_parser.h"
#include "workloads/coloring.h"

namespace ocdx {
namespace {

void BM_Table1ClosedSigma(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Rng rng(3 * n + 1);
  Graph g = RandomThreeColorableGraph(n, 3, 4, &rng);
  Result<ColoringReduction> red = BuildColoringReduction(g, &u);
  uint64_t intermediates = 0;
  bool member = false;
  // Production configuration: a job-scoped plan table carried across
  // iterations (the driver/CLI attach one per command run).
  const EngineContext ctx =
      EngineContext::CachedForMode(JoinEngineMode::kIndexed);
  for (auto _ : state) {
    Result<ComposeVerdict> v =
        InComposition(red.value().sigma, red.value().delta,
                      red.value().source, red.value().target, &u, {}, ctx);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    intermediates = v.value().intermediates_checked;
    member = v.value().member;
  }
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["intermediates"] = static_cast<double>(intermediates);
  state.counters["member"] = member ? 1 : 0;
  state.SetLabel("E7 Table1 #op=0: NP (3-colorability reduction, accept)");
}
BENCHMARK(BM_Table1ClosedSigma)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Table1ClosedSigmaReject(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ColoringReduction> red =
      BuildColoringReduction(CompleteGraph(n), &u);
  uint64_t intermediates = 0;
  // Production configuration: a job-scoped plan table carried across
  // iterations (the driver/CLI attach one per command run).
  const EngineContext ctx =
      EngineContext::CachedForMode(JoinEngineMode::kIndexed);
  for (auto _ : state) {
    Result<ComposeVerdict> v =
        InComposition(red.value().sigma, red.value().delta,
                      red.value().source, red.value().target, &u, {}, ctx);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    intermediates = v.value().intermediates_checked;
  }
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["intermediates"] = static_cast<double>(intermediates);
  state.SetLabel(
      "E7 Table1 #op=0: NP (K_n non-colorable, exhaustive reject)");
}
BENCHMARK(BM_Table1ClosedSigmaReject)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Table1MonotoneOpenDelta(benchmark::State& state) {
  // E8 (Lemma 3 / Cor 4): mixed Sigma composed with monotone all-open
  // Delta stays NP — here with #op(Sigma) = 1.
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src, tau, omega;
  src.Add("E", 2);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x, y);", src, tau, &u);
  Result<Mapping> delta = ParseMapping(
      "P(x^op, y^op) :- exists z. F(x, z) & F(z, y);", tau, omega, &u);
  Instance s, w;
  for (size_t i = 0; i < n; ++i) {
    s.Add("E", {u.IntConst(static_cast<int64_t>(i)),
                u.IntConst(static_cast<int64_t>(i + 1))});
  }
  w.Add("P", {u.IntConst(0), u.IntConst(0)});
  uint64_t intermediates = 0;
  // Production configuration: a job-scoped plan table carried across
  // iterations (the driver/CLI attach one per command run).
  const EngineContext ctx =
      EngineContext::CachedForMode(JoinEngineMode::kIndexed);
  for (auto _ : state) {
    Result<ComposeVerdict> v =
        InComposition(sigma.value(), delta.value(), s, w, &u, {}, ctx);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    intermediates = v.value().intermediates_checked;
  }
  state.counters["intermediates"] = static_cast<double>(intermediates);
  state.SetLabel("E8 Table1 column 2: monotone all-open Delta is NP "
                 "for every Sigma (Lemma 3 / Cor 4)");
}
BENCHMARK(BM_Table1MonotoneOpenDelta)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Table1OpenOneGeneral(benchmark::State& state) {
  // Row 2 with arbitrary Delta: the bounded NEXPTIME-style J-search.
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src, tau, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x);", src, tau, &u);
  Result<Mapping> delta = ParseMapping(
      "P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);", tau, omega, &u);
  Instance s, w;
  for (size_t i = 0; i < n; ++i) {
    s.Add("E", {u.IntConst(static_cast<int64_t>(i))});
  }
  w.Add("P", {u.Const("a"), u.Const("b")});
  w.Add("P", {u.Const("b"), u.Const("a")});
  ComposeOptions opts;
  opts.enum_options.fresh_pool = 2;
  opts.enum_options.max_universe = 16;
  uint64_t intermediates = 0;
  bool member = false;
  // Production configuration: a job-scoped plan table carried across
  // iterations (the driver/CLI attach one per command run).
  const EngineContext ctx =
      EngineContext::CachedForMode(JoinEngineMode::kIndexed);
  for (auto _ : state) {
    Result<ComposeVerdict> v =
        InComposition(sigma.value(), delta.value(), s, w, &u, opts, ctx);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    intermediates = v.value().intermediates_checked;
    member = v.value().member;
  }
  state.counters["intermediates"] = static_cast<double>(intermediates);
  state.counters["member"] = member ? 1 : 0;
  state.SetLabel("E7 Table1 #op=1: bounded J-search (NEXPTIME, Thm 4.2)");
}
BENCHMARK(BM_Table1OpenOneGeneral)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
