// Tests for the parallel execution subsystem (src/exec) and the
// EngineContext reentrancy contract it rests on.
//
// The headline property is *determinism*: `ocdx batch -j 8` must be
// byte-identical to `-j 1` over the whole corpus under every engine mode
// — no synchronization makes that true, only the absence of shared
// mutable state across workers (one parse and one plan cache per file,
// one overlay and one EngineContext per job, canonical rendering). The
// second property is *one parse per file*: a file's jobs all run on
// overlays of a single parse. CI additionally runs this file under
// ThreadSanitizer
// (the `tsan` preset), which turns any violation of that contract into a
// hard failure instead of a flaky diff.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/instance.h"
#include "exec/batch_runner.h"
#include "exec/pool.h"
#include "logic/engine_config.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "plan/shared_plan_table.h"
#include "semantics/homomorphism.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

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

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, DrainsEveryTaskOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // Destructor must run all 200 tasks before joining.
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  // Rely on the drain guarantee via a second scoped pool-free check:
  // destruction happens at end of test; poll briefly instead.
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// Batch determinism: the acceptance criterion of the subsystem.
// ---------------------------------------------------------------------------

TEST(BatchExec, ParallelOutputIsByteIdenticalToSequential) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kNaive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    BatchOptions seq;
    seq.workers = 1;
    seq.engine = EngineContext::ForMode(mode);
    BatchOptions par = seq;
    par.workers = 8;

    Result<BatchReport> a = RunDxBatch(files, seq);
    Result<BatchReport> b = RunDxBatch(files, par);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(a.value().ok());
    EXPECT_TRUE(b.value().ok());
    EXPECT_EQ(a.value().total_jobs, b.value().total_jobs);
    EXPECT_EQ(RenderBatchOutput(a.value()), RenderBatchOutput(b.value()))
        << "batch output depends on the worker count";
    // Per-job engine work is deterministic too, not just the text: the
    // aggregated stats must agree exactly.
    EXPECT_EQ(a.value().stats.cq_plans, b.value().stats.cq_plans);
    EXPECT_EQ(a.value().stats.chase_triggers, b.value().stats.chase_triggers);
    EXPECT_EQ(a.value().stats.repa_steps, b.value().stats.repa_steps);
  }
}

// The slice-concatenation invariant of PlanDxJobs: batch output per file
// (any -j) equals running the command directly on that file. Covers the
// null-declaring files (nulls_and_ineq.dx, valuation_enum.dx), whose
// jobs mint past the nulls of the shared parse.
TEST(BatchExec, SlicedOutputMatchesDirectDriverRun) {
  for (const std::string& file : CorpusFiles()) {
    SCOPED_TRACE(file);
    const std::string src = ReadFileOrDie(file);

    Universe u;
    Result<DxScenario> scenario = ParseDxScenario(src, &u);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    Result<std::string> direct = RunDxCommand(scenario.value(), "all", &u);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(workers);
      BatchOptions options;
      options.workers = workers;
      Result<BatchReport> report = RunDxBatch({file}, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(report.value().files.size(), 1u);
      EXPECT_EQ(report.value().files[0].output, direct.value());
    }
  }
}

// Each file runs exactly the jobs PlanDxJobs plans for it, and the
// batch numbers them in plan order across files: the trace labels
// "job-<i> <file>" follow input order, then plan order.
TEST(BatchExec, JobsFollowThePlanInOrder) {
  std::vector<std::string> files = CorpusFiles();
  BatchOptions options;
  options.workers = 4;
  options.collect_traces = true;
  Result<BatchReport> report = RunDxBatch(files, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().traces.size(), report.value().total_jobs);
  size_t index = 0;
  for (size_t f = 0; f < files.size(); ++f) {
    SCOPED_TRACE(files[f]);
    Universe u;
    Result<DxScenario> scenario =
        ParseDxScenario(ReadFileOrDie(files[f]), &u);
    ASSERT_TRUE(scenario.ok());
    Result<std::vector<DxJobSpec>> plan =
        PlanDxJobs(scenario.value(), "all");
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(report.value().files[f].jobs, plan.value().size());
    for (size_t j = 0; j < plan.value().size(); ++j, ++index) {
      EXPECT_EQ(report.value().traces[index].label,
                "job-" + std::to_string(index) + " " + files[f]);
    }
  }
  EXPECT_EQ(index, report.value().total_jobs);
  EXPECT_GT(report.value().total_jobs, files.size());
}

// One parse per file, whatever the worker count: across a file's job
// traces there is exactly one `dx-parse` span, and it sits in the
// file's first job.
TEST(BatchExec, OneParseSpanPerFile) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_NE(std::find_if(files.begin(), files.end(),
                         [](const std::string& f) {
                           return f.ends_with("/bulk_import.dx");
                         }),
            files.end());
  for (size_t workers : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(workers);
    BatchOptions options;
    options.workers = workers;
    options.collect_traces = true;
    Result<BatchReport> report = RunDxBatch(files, options);
    ASSERT_TRUE(report.ok());
    size_t index = 0;
    for (const BatchFileReport& file : report.value().files) {
      SCOPED_TRACE(file.file);
      ASSERT_GT(file.jobs, 0u);
      size_t parses = 0;
      for (size_t j = 0; j < file.jobs; ++j, ++index) {
        size_t here = 0;
        for (const obs::TraceEvent& e :
             report.value().traces[index].sink->events()) {
          if (std::string_view(e.name) == obs::kPhaseParse.name) ++here;
        }
        if (j == 0) {
          EXPECT_EQ(here, 1u) << "the first job carries the parse";
        }
        parses += here;
      }
      EXPECT_EQ(parses, 1u);
    }
  }
}

TEST(BatchExec, FailuresAreDeterministicAndReported) {
  // A missing file and a real file: the report keeps input order, the
  // missing file renders a deterministic error block, and ok() is false.
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  std::vector<std::string> inputs = {"/nonexistent/nope.dx", files[0]};
  for (size_t workers : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(workers);
    BatchOptions options;
    options.workers = workers;
    Result<BatchReport> report = RunDxBatch(inputs, options);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().ok());
    ASSERT_EQ(report.value().files.size(), 2u);
    EXPECT_FALSE(report.value().files[0].status.ok());
    EXPECT_TRUE(report.value().files[1].status.ok());
    std::string out = RenderBatchOutput(report.value());
    EXPECT_NE(out.find("ocdx: error:"), std::string::npos);
    // Input order is preserved regardless of completion order.
    EXPECT_LT(out.find("/nonexistent/nope.dx"), out.find(files[0]));
  }
}

TEST(BatchExec, EmptyInputIsAnError) {
  EXPECT_FALSE(RunDxBatch({}, BatchOptions{}).ok());
}

// ---------------------------------------------------------------------------
// EngineContext plumbing
// ---------------------------------------------------------------------------

TEST(EngineContext, PlanCachesAreJobLocal) {
  // Default contexts carry no cache (per-call compilation, the engine's
  // conservative baseline); EnsureCache attaches one and is idempotent.
  EngineContext ctx;
  EXPECT_EQ(ctx.plan_cache, nullptr);
  ctx.EnsureCache();
  auto first = ctx.plan_cache;
  ctx.EnsureCache();
  EXPECT_EQ(ctx.plan_cache, first);  // Idempotent.
  // Copies of one context share its cache: that is the intra-job contract.
  EngineContext copy = ctx;
  EXPECT_EQ(copy.plan_cache, ctx.plan_cache);
  // A context lent a table (a snapshot bundle's) gets none of its own:
  // plan::GetOrCompile consults exactly one table.
  plan::SharedPlanTable lent;
  EngineContext borrowing;
  borrowing.shared_plans = &lent;
  borrowing.EnsureCache();
  EXPECT_EQ(borrowing.plan_cache, nullptr);
}

TEST(EngineContext, ContextBudgetCapsHomSearch) {
  // A tripartite-ish instance with several nulls, searched under a
  // 1-step context budget: the per-call default (50M) must be capped by
  // the context and the search must exhaust.
  Universe u;
  AnnotatedInstance from, to;
  for (int i = 0; i < 4; ++i) {
    from.Add("R", {u.FreshNull(), u.FreshNull()}, {Ann::kOpen, Ann::kOpen});
    to.Add("R", {u.FreshNull(), u.FreshNull()}, {Ann::kOpen, Ann::kOpen});
  }
  EngineContext tight;
  tight.budget.hom_max_steps = 1;
  Result<std::optional<NullMap>> r = FindHomomorphism(from, to, {}, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineContext, StatsSinkCountsWork) {
  Universe u;
  std::string src = ReadFileOrDie(
      std::string(OCDX_CORPUS_DIR) + "/conference.dx");
  Result<DxScenario> scenario = ParseDxScenario(src, &u);
  ASSERT_TRUE(scenario.ok());
  EngineStats stats;
  DxDriverOptions options;
  options.engine.stats = &stats;
  Result<std::string> out =
      RunDxCommand(scenario.value(), "all", &u, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(stats.cq_plans, 0u);
  EXPECT_GT(stats.chase_triggers, 0u);
}

// ---------------------------------------------------------------------------
// One-owner Universe rule (debug builds only)
// ---------------------------------------------------------------------------

#ifndef NDEBUG

using UniverseOwnershipDeathTest = testing::Test;

TEST(UniverseOwnershipDeathTest, CrossThreadUseAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Universe u;
  u.Const("claimed-by-main");  // First touch pins ownership here.
  // The assert stringifies adjacent literals with their quotes, so match
  // the contiguous first clause of the message.
  EXPECT_DEATH(
      {
        std::thread t([&u] { u.Const("other-thread"); });
        t.join();
      },
      "Universe shared across threads");
}

#endif  // NDEBUG

}  // namespace
}  // namespace ocdx
