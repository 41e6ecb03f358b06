// Batch-runner throughput: the whole `.dx` corpus driven end to end
// (`ocdx batch --command=all`) at increasing worker counts, plus the
// arena-allocated trigger-storage chase this PR lands.
//
// The scaling story is jobs/second at -j1 vs -j4/-j8: on a multi-core
// host the work-queue fans the corpus's independent jobs across cores
// (the jobs share no mutable state, so the speedup is bounded only by
// job-size imbalance); on a single-core host the numbers document the
// queue's overhead instead (expect ~1x — the container this repo is
// developed in has one core, see BENCH_pr4.json context).
//
// Repeating the corpus (`repeat` counter) amplifies the workload so the
// pool's scheduling cost stays amortized and per-repetition noise drops.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "exec/batch_runner.h"

namespace ocdx {
namespace {

// The enumeration-heavy scenarios added in PR 5. They do one to two
// orders of magnitude more evaluation work per job than the PR 3
// corpus, so BM_BatchCorpus pins the original file set (keeping its
// jobs/second comparable across BENCH_*.json baselines) and
// BM_BatchEnumCorpus tracks the heavy set separately.
bool IsEnumHeavy(const std::string& path) {
  namespace fs = std::filesystem;
  const std::string stem = fs::path(path).stem().string();
  return stem == "valuation_enum" || stem == "member_search" ||
         stem == "membership_sweep";
}

std::vector<std::string> CorpusFiles(size_t repeat, bool enum_heavy) {
  namespace fs = std::filesystem;
  std::vector<std::string> base;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() != ".dx") continue;
    if (IsEnumHeavy(entry.path()) != enum_heavy) continue;
    base.push_back(entry.path());
  }
  std::sort(base.begin(), base.end());
  std::vector<std::string> out;
  out.reserve(base.size() * repeat);
  for (size_t r = 0; r < repeat; ++r) {
    out.insert(out.end(), base.begin(), base.end());
  }
  return out;
}

void RunBatchCorpus(benchmark::State& state, JoinEngineMode mode,
                    bool enum_heavy = false) {
  const size_t workers = static_cast<size_t>(state.range(0));
  const size_t repeat = 4;
  std::vector<std::string> files = CorpusFiles(repeat, enum_heavy);
  if (files.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  BatchOptions options;
  options.workers = workers;
  options.engine = EngineContext::ForMode(mode);

  size_t jobs = 0;
  for (auto _ : state) {
    Result<BatchReport> report = RunDxBatch(files, options);
    if (!report.ok() || !report.value().ok()) {
      state.SkipWithError("batch run failed");
      return;
    }
    jobs = report.value().total_jobs;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * state.iterations());
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["files"] = static_cast<double>(files.size());
}

void BM_BatchCorpus(benchmark::State& state) {
  RunBatchCorpus(state, JoinEngineMode::kIndexed);
  state.SetLabel("batch: full corpus, command=all, indexed engine");
}
BENCHMARK(BM_BatchCorpus)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchCorpusNaive(benchmark::State& state) {
  RunBatchCorpus(state, JoinEngineMode::kNaive);
  state.SetLabel("batch: full corpus, command=all, naive engine");
}
BENCHMARK(BM_BatchCorpusNaive)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The enumeration-heavy PR 5 scenarios (valuation enumeration, bounded
// member search, membership fan-out): the workload the compile-once
// plan table exists for.
void BM_BatchEnumCorpus(benchmark::State& state) {
  RunBatchCorpus(state, JoinEngineMode::kIndexed, /*enum_heavy=*/true);
  state.SetLabel("batch: enumeration-heavy corpus, command=all, indexed");
}
BENCHMARK(BM_BatchEnumCorpus)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// One file, split into per-mapping slices: the within-scenario fan-out.
void BM_BatchSingleFileSplit(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  std::string file = std::string(OCDX_CORPUS_DIR) + "/membership.dx";
  BatchOptions options;
  options.workers = workers;
  for (auto _ : state) {
    Result<BatchReport> report = RunDxBatch({file}, options);
    if (!report.ok() || !report.value().ok()) {
      state.SkipWithError("batch run failed");
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.SetLabel("batch: one scenario fanned per-mapping");
}
BENCHMARK(BM_BatchSingleFileSplit)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
