// Tests for the observability layer (src/obs): the EngineStats merge-
// completeness pin, ScopedSpan/TraceSink semantics, trace-structure
// determinism, the Chrome render, the ocdxd stats registry — and the
// property everything else rests on: attaching stats or trace sinks
// NEVER changes canonical output (whole-corpus byte-identity, both
// engines, 1 and 4 workers).

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch_runner.h"
#include "logic/engine_context.h"
#include "obs/report.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "plan/shared_plan_table.h"
#include "snap/snapshot.h"
#include "text/dx_driver.h"
#include "util/str.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// EngineStats merge completeness (the field-manifest pin)
// ---------------------------------------------------------------------------

// The header pins sizeof(EngineStats) == kU64Fields words and report.cc
// pins the field table's length; this test pins the third leg — that
// operator+= actually merges EVERY word. Both operands are filled with
// distinct word patterns through memcpy (legal: the struct is all
// uint64_t), so a forgotten `x += o.x;` line shows up as exactly one
// unsummed word, named via the report manifest.
TEST(EngineStatsManifest, MergeCoversEveryField) {
  static_assert(std::is_trivially_copyable_v<EngineStats>,
                "the word-pattern pin below reads the struct via memcpy");
  std::array<uint64_t, EngineStats::kU64Fields> a_words, b_words;
  for (size_t i = 0; i < EngineStats::kU64Fields; ++i) {
    a_words[i] = i + 1;
    b_words[i] = 1000 * (i + 1);
  }
  EngineStats a, b;
  std::memcpy(static_cast<void*>(&a), a_words.data(), sizeof(a));
  std::memcpy(static_cast<void*>(&b), b_words.data(), sizeof(b));
  a += b;
  std::array<uint64_t, EngineStats::kU64Fields> merged;
  std::memcpy(merged.data(), static_cast<const void*>(&a), sizeof(a));
  for (size_t i = 0; i < EngineStats::kU64Fields; ++i) {
    EXPECT_EQ(merged[i], (i + 1) + 1000 * (i + 1))
        << "operator+= dropped field '" << obs::StatsFields()[i].name << "'";
  }
}

// The report manifest must list the fields in declaration order (its
// renderings and the bench JSON depend on stable ordering), which also
// proves it names each field exactly once.
TEST(EngineStatsManifest, ReportTableIsInDeclarationOrder) {
  EngineStats s;
  const char* base = reinterpret_cast<const char*>(&s);
  for (size_t i = 0; i < EngineStats::kU64Fields; ++i) {
    const obs::StatsField& f = obs::StatsFields()[i];
    size_t offset = static_cast<size_t>(
        reinterpret_cast<const char*>(&(s.*(f.field))) - base);
    EXPECT_EQ(offset, i * sizeof(uint64_t))
        << "field '" << f.name << "' is out of order in the report table";
  }
}

TEST(EngineStatsManifest, RenderedSurfacesNameEveryField) {
  EngineStats s;
  std::string table = obs::RenderStatsTable(s);
  std::string json = obs::RenderStatsJson(s);
  for (size_t i = 0; i < EngineStats::kU64Fields; ++i) {
    const char* name = obs::StatsFields()[i].name;
    EXPECT_NE(table.find(name), std::string::npos) << name;
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
}

// ---------------------------------------------------------------------------
// ScopedSpan / TraceSink
// ---------------------------------------------------------------------------

TEST(ScopedSpan, DetachedSpanRecordsNothing) {
  EngineContext ctx;  // no stats, no trace
  {
    obs::ScopedSpan span(ctx, obs::kPhaseChase);
  }
  // Nothing observable to assert beyond "did not crash" — the contract
  // (no clock read) is structural; the bench --check gate pins the cost.
  SUCCEED();
}

TEST(ScopedSpan, FeedsStatsTimerAndSinkEvent) {
  EngineStats stats;
  obs::TraceSink sink;
  {
    obs::ScopedSpan outer(&stats, &sink, obs::kPhaseJob);
    obs::ScopedSpan inner(&stats, &sink, obs::kPhaseParse);
  }
  ASSERT_EQ(sink.events().size(), 2u);
  // Exit order: inner completes first, at depth 1 under the job span.
  EXPECT_STREQ(sink.events()[0].name, "dx-parse");
  EXPECT_EQ(sink.events()[0].depth, 1u);
  EXPECT_STREQ(sink.events()[1].name, "job");
  EXPECT_EQ(sink.events()[1].depth, 0u);
  // Both timers ticked (monotonic end >= start, so >= 0 always; the job
  // span encloses the parse span).
  EXPECT_GE(stats.job_ns, stats.parse_ns);
}

TEST(ScopedSpan, StatsOnlySpanNeedsNoSink) {
  EngineStats stats;
  {
    obs::ScopedSpan span(&stats, nullptr, obs::kPhaseSnapLoad);
  }
  // Duration may legitimately render as 0ns on a coarse clock; the field
  // must simply be the one the phase names.
  EXPECT_EQ(stats.parse_ns, 0u);
}

TEST(TraceSink, CapsEventsAndCountsDrops) {
  obs::TraceSink sink;
  for (size_t i = 0; i < obs::TraceSink::kMaxEvents + 7; ++i) {
    uint32_t depth = sink.Enter();
    sink.Exit("chase", 0, 1, depth);
  }
  EXPECT_EQ(sink.events().size(), obs::TraceSink::kMaxEvents);
  EXPECT_EQ(sink.dropped(), 7u);
}

TEST(TraceSink, AbsorbKeepsShardTracksAndOrder) {
  obs::TraceSink parent;
  obs::TraceSink shard1(1), shard2(2);
  {
    obs::ScopedSpan s2(nullptr, &shard2, obs::kPhaseEnumShard);
  }
  {
    obs::ScopedSpan s1(nullptr, &shard1, obs::kPhaseEnumShard);
  }
  parent.Absorb(shard1);
  parent.Absorb(shard2);
  ASSERT_EQ(parent.events().size(), 2u);
  EXPECT_EQ(parent.events()[0].track, 1u);
  EXPECT_EQ(parent.events()[1].track, 2u);
  std::vector<std::string> lines = parent.StructureLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "1/0 enum-shard");
  EXPECT_EQ(lines[1], "2/0 enum-shard");
}

TEST(ChromeTrace, RenderEscapesNamesAndEmitsMetadata) {
  obs::TraceSink sink;
  {
    obs::ScopedSpan span(nullptr, &sink, obs::kPhaseJob);
  }
  std::string json = obs::RenderChromeTrace(
      {obs::TraceJob{"job-0 weird\"path\\x.dx", &sink}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("weird\\\"path\\\\x.dx"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"job\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":\"0\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace determinism: same scenario, same command => same span structure
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, SpanStructureStableAcrossRuns) {
  std::vector<std::vector<std::string>> structures;
  const std::string path = std::string(OCDX_CORPUS_DIR) + "/membership.dx";
  Result<std::string> source = ReadDxFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  for (int run = 0; run < 2; ++run) {
    EngineStats stats;
    obs::TraceSink sink;
    DxDriverOptions options;
    options.engine.stats = &stats;
    options.engine.trace = &sink;
    Status governed;
    Result<std::string> out =
        RunDxFile(path, source.value(), "all", options, &governed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    structures.push_back(sink.StructureLines());
  }
  EXPECT_FALSE(structures[0].empty());
  EXPECT_EQ(structures[0], structures[1])
      << "span tree changed between identical runs";
}

// ---------------------------------------------------------------------------
// Non-interference: observability never changes canonical output
// ---------------------------------------------------------------------------

TEST(NonInterference, CorpusByteIdenticalWithSinksAttached) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kNaive}) {
    // Reference: no sinks, sequential.
    BatchOptions plain;
    plain.command = "all";
    plain.engine = EngineContext::ForMode(mode);
    plain.workers = 1;
    Result<BatchReport> reference = RunDxBatch(files, plain);
    ASSERT_TRUE(reference.ok());
    std::string want = RenderBatchOutput(reference.value());

    for (size_t workers : {size_t{1}, size_t{4}}) {
      BatchOptions observed = plain;
      observed.workers = workers;
      observed.collect_traces = true;  // per-job sinks + stats everywhere
      Result<BatchReport> got = RunDxBatch(files, observed);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(RenderBatchOutput(got.value()), want)
          << "engine mode " << static_cast<int>(mode) << ", -j " << workers;
      EXPECT_EQ(got.value().traces.size(), got.value().total_jobs);
      // The aggregate must show the instrumentation actually ran.
      EXPECT_GT(got.value().stats.job_ns, 0u);
      EXPECT_GT(got.value().stats.parse_ns, 0u);
    }
  }
}

// Sharded enumeration must not multiply plan compiles: every shard
// copies the run's context and so looks up the run's own plan table
// (plan::SharedPlanTable), which compiles each query exactly once
// regardless of how many shards probe it. The shard lookups count on
// the owned-table counters; no table is lent here. Also pins the overlay
// wiring: each fan-out reuses the caller's universe as a base
// (frozen_base_reuses) and mints one overlay per shard (overlay_mints).
TEST(SharedPlanCompileOnce, ShardCountDoesNotChangeCompileCount) {
  const char* kScenarios[] = {"valuation_enum.dx", "member_search.dx",
                              "membership_sweep.dx"};
  auto run = [&](size_t shards) {
    EngineStats total;
    for (const char* name : kScenarios) {
      const std::string path = std::string(OCDX_CORPUS_DIR) + "/" + name;
      Result<std::string> source = ReadDxFile(path);
      EXPECT_TRUE(source.ok()) << source.status().ToString();
      EngineStats stats;
      DxDriverOptions options;
      options.engine.stats = &stats;
      options.engine.shards = shards;
      // Attached explicitly, not via EnsureCache, so the pin also holds
      // under OCDX_PLAN_CACHE=off.
      options.engine.plan_cache = std::make_shared<plan::SharedPlanTable>();
      Status governed;
      Result<std::string> out =
          RunDxFile(path, source.value(), "all", options, &governed);
      EXPECT_TRUE(out.ok()) << name << ": " << out.status().ToString();
      total += stats;
    }
    return total;
  };

  const EngineStats base = run(1);
  ASSERT_GT(base.plan_compiles, 0u);
  for (size_t shards : {size_t{4}, size_t{8}}) {
    const EngineStats sharded = run(shards);
    EXPECT_EQ(sharded.plan_compiles, base.plan_compiles)
        << "shards=" << shards << " changed the compile count";
    EXPECT_GT(sharded.enum_shard_runs, 0u) << "shards=" << shards;
    EXPECT_EQ(sharded.plan_cache_misses, sharded.plan_compiles)
        << "shards=" << shards;
    EXPECT_GT(sharded.plan_cache_hits, 0u) << "shards=" << shards;
    EXPECT_EQ(sharded.shared_plan_hits + sharded.shared_plan_misses, 0u)
        << "shards=" << shards;
    EXPECT_GT(sharded.frozen_base_reuses, 0u) << "shards=" << shards;
    EXPECT_GE(sharded.overlay_mints, shards) << "shards=" << shards;
  }
}

// The batch summary surfaces the derived hit rate and the phase line.
TEST(BatchSummary, SurfacesHitRateAndPhases) {
  std::vector<std::string> files = CorpusFiles();
  BatchOptions options;
  options.command = "all";
  Result<BatchReport> report = RunDxBatch(files, options);
  ASSERT_TRUE(report.ok());
  std::string summary = RenderBatchSummary(report.value(), options);
  EXPECT_NE(summary.find("plan cache hit rate:"), std::string::npos);
  EXPECT_NE(summary.find("guard_depth_fallbacks="), std::string::npos);
  EXPECT_NE(summary.find("batch: phase ms:"), std::string::npos);
}

// The summary's engine-stats line reads the field table, so every counter
// (generic_steps and mapping_compiles included) reaches `ocdx batch`.
TEST(BatchSummary, NamesEveryCounter) {
  std::vector<std::string> files = CorpusFiles();
  BatchOptions options;
  options.command = "all";
  Result<BatchReport> report = RunDxBatch(files, options);
  ASSERT_TRUE(report.ok());
  std::string summary = RenderBatchSummary(report.value(), options);
  size_t line = summary.find("batch: engine stats:");
  ASSERT_NE(line, std::string::npos) << summary;
  std::string stats_line =
      summary.substr(line, summary.find('\n', line) - line);
  size_t counters = 0;
  for (size_t i = 0; i < EngineStats::kU64Fields; ++i) {
    const obs::StatsField& f = obs::StatsFields()[i];
    if (f.is_ns) continue;
    ++counters;
    const std::string item =
        StrCat(f.name, "=", report.value().stats.*(f.field));
    EXPECT_NE(stats_line.find(" " + item), std::string::npos)
        << item << " missing from: " << stats_line;
  }
  EXPECT_GT(counters, 0u);
  EXPECT_GT(report.value().stats.mapping_compiles, 0u);
}

// ---------------------------------------------------------------------------
// StatsRegistry (the ocdxd `stats` verb's backing store)
// ---------------------------------------------------------------------------

TEST(StatsRegistry, AggregatesRequestsByOutcome) {
  obs::StatsRegistry registry;
  EngineStats s;
  s.chase_triggers = 5;
  registry.Record(s, Status::OK(), /*failed=*/false);
  registry.Record(s, Status::ResourceExhausted("cap"), /*failed=*/false);
  registry.Record(s, Status::DeadlineExceeded("late"), /*failed=*/false);
  registry.Record(s, Status::Cancelled("bye"), /*failed=*/false);
  registry.Record(s, Status::OK(), /*failed=*/true);

  EXPECT_EQ(registry.Snapshot().chase_triggers, 25u);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"requests\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"governed\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"resource_exhausted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chase_triggers\":25"), std::string::npos) << json;
}

// The hit rate counts lookups on every plan table, lent ones included:
// two warm runs that share one lent table (the ocdxd --preload shape)
// look up nothing else, and the second run's lookups are all hits.
TEST(StatsRegistry, HitRateCountsLentTables) {
  const std::string path =
      std::string(OCDX_CORPUS_DIR) + "/valuation_enum.dx";
  Result<std::string> source = ReadDxFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(path, source.value());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  plan::SharedPlanTable plans;
  obs::StatsRegistry registry;
  EngineStats runs[2];
  for (EngineStats& stats : runs) {
    DxDriverOptions options;
    options.engine.stats = &stats;
    options.engine.shared_plans = &plans;
    Status governed;
    Result<std::string> out =
        snap::RunSnapshotCommand(bundle.value(), "certain", options, &governed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    registry.Record(stats, governed, /*failed=*/false);
  }
  ASSERT_GT(runs[0].shared_plan_misses, 0u);
  EXPECT_EQ(runs[1].shared_plan_misses, 0u) << "the table kept every plan";
  EXPECT_GT(runs[1].shared_plan_hits, 0u);

  const EngineStats total = registry.Snapshot();
  EXPECT_EQ(total.plan_cache_hits + total.plan_cache_misses, 0u)
      << "a lent table is the only table a warm run looks in";
  const double hits = static_cast<double>(total.shared_plan_hits);
  const double rate =
      hits / (hits + static_cast<double>(total.shared_plan_misses));
  char expected[64];
  std::snprintf(expected, sizeof(expected), "\"plan_cache_hit_rate\":%.4f",
                rate);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find(expected), std::string::npos) << json;
  EXPECT_GT(rate, 0.5);
}

}  // namespace
}  // namespace ocdx
