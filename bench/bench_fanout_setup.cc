// Fan-out setup economics: what does a shard (or a preload request)
// pay before it can do any work?
//
//   BM_OverlaySetup_*  Universe::NewOverlay per shard over the parsed
//                      largest corpus scenario (a view; nothing copied)
//   BM_WarmRequest_*   one warm `ocdxd --preload` request against a
//                      snapshot bundle of the largest corpus scenario,
//                      the bundle's plan table lent — the steady-state
//                      serving cost
//
// The largest corpus scenario is tests/corpus/bulk_import.dx (~24k
// facts): an overlay never touches its constant table, so per-shard
// setup stays flat as the scenario grows.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/value.h"
#include "plan/shared_plan_table.h"
#include "snap/snapshot.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string LargestCorpusFile() {
  std::string best;
  uintmax_t best_size = 0;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() != ".dx") continue;
    uintmax_t size = fs::file_size(entry.path());
    if (size > best_size) {
      best_size = size;
      best = entry.path();
    }
  }
  return best;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Parses the largest corpus scenario into `universe` (the caller-side
// state a fan-out starts from). Returns false on failure.
bool ParseLargest(Universe* universe) {
  const std::string file = LargestCorpusFile();
  if (file.empty()) return false;
  Result<DxScenario> scenario = ParseDxScenario(ReadFile(file), universe);
  return scenario.ok();
}

// Per-shard setup: one copy-on-write overlay.
void BM_OverlaySetup_BulkImport(benchmark::State& state) {
  Universe base;
  if (!ParseLargest(&base)) {
    state.SkipWithError("cannot parse the largest corpus scenario");
    return;
  }
  for (auto _ : state) {
    std::unique_ptr<Universe> shard = base.NewOverlay();
    benchmark::DoNotOptimize(shard);
  }
  state.SetLabel("per-shard setup, copy-on-write overlay");
}
BENCHMARK(BM_OverlaySetup_BulkImport)->Unit(benchmark::kMicrosecond);

// An 8-wide fan-out's whole setup bill — the number a user sees between
// `--shards=8` arriving and the workers starting.
void BM_OverlaySetup_8Shards(benchmark::State& state) {
  Universe base;
  if (!ParseLargest(&base)) {
    state.SkipWithError("cannot parse the largest corpus scenario");
    return;
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<Universe>> shards;
    for (int s = 0; s < 8; ++s) shards.push_back(base.NewOverlay());
    benchmark::DoNotOptimize(shards);
  }
  state.SetLabel("8-shard fan-out setup via overlays");
}
BENCHMARK(BM_OverlaySetup_8Shards)->Unit(benchmark::kMicrosecond);

// One warm request against a preloaded snapshot bundle of the largest
// corpus scenario, with the bundle's shared plan table attached —
// exactly what `ocdxd --preload` does per request in steady state
// (overlay mint + evaluate; no parse, no chase, plans compiled once per
// bundle lifetime).
void BM_WarmRequest_BulkImport(benchmark::State& state) {
  const std::string file = LargestCorpusFile();
  if (file.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file, ReadFile(file));
  if (!bundle.ok()) {
    state.SkipWithError(bundle.status().ToString().c_str());
    return;
  }
  plan::SharedPlanTable plans;
  DxDriverOptions options;
  if (plan::SharedPlanTable::EnabledByEnv()) {
    options.engine.shared_plans = &plans;
  }
  EngineStats stats;
  options.engine.stats = &stats;
  for (auto _ : state) {
    Result<std::string> out =
        snap::RunSnapshotCommand(bundle.value(), "all", options);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.counters["overlay_mints"] = static_cast<double>(stats.overlay_mints);
  state.counters["shared_plan_hits"] =
      static_cast<double>(stats.shared_plan_hits);
  state.SetLabel("warm preload request: overlay + evaluate, shared plans");
}
BENCHMARK(BM_WarmRequest_BulkImport)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
