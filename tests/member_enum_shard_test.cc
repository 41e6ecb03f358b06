// Intra-job fan-out tests for the RepA member enumerator
// (certain/member_enum.cc): the determinism contract (byte-identical
// canonical output for every shard count), first-success and caller
// cancellation across shard threads, the fresh-pool aliasing and
// early-stop outcome regressions, and the ThreadPool shutdown assert.
//
// CI runs this suite under ThreadSanitizer (the tsan preset builds the
// whole test tree), so the overlay isolation of the sharded paths and
// the plan table the shards share are race-checked here, not just
// argued.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "certain/member_enum.h"
#include "exec/pool.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/shared_plan_table.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Runs `all` over `src` with the given engine mode and shard count and
// returns the canonical output (the governed status renders inline, so
// it is part of the bytes being compared).
std::string RunAll(const std::string& src, JoinEngineMode mode,
                   size_t shards) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(src, &universe);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return "";
  DxDriverOptions options;
  options.engine = EngineContext::ForMode(mode);
  options.engine.shards = shards;
  Status governed;
  Result<std::string> out =
      RunDxCommand(scenario.value(), "all", &universe, options, &governed);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value() : "";
}

// The tentpole acceptance gate: `ocdx` output over the enumeration
// corpus is byte-identical for shard counts 1, 4 and 8 under both join
// engines. These three scenarios exercise every sharded path — CWA
// valuation enumeration, the Prop 5 small-witness search, the Lemma-2
// member search, and RepA membership.
TEST(MemberEnumShardTest, CorpusByteIdentityAcrossShardCounts) {
  const char* kScenarios[] = {"valuation_enum.dx", "member_search.dx",
                              "membership_sweep.dx"};
  for (const char* name : kScenarios) {
    const fs::path file = fs::path(OCDX_CORPUS_DIR) / name;
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    for (JoinEngineMode mode :
         {JoinEngineMode::kIndexed, JoinEngineMode::kNaive}) {
      const std::string baseline = RunAll(src, mode, 1);
      ASSERT_FALSE(baseline.empty());
      for (size_t shards : {size_t{4}, size_t{8}}) {
        EXPECT_EQ(baseline, RunAll(src, mode, shards))
            << name << " diverges at shards=" << shards;
      }
    }
  }
}

// A small annotated instance whose member space is big enough to spread
// over several shards: `nulls` nulls in closed positions (driving the
// valuation fan-out) and one open position licensing extra tuples.
AnnotatedInstance MakeSpreadInstance(Universe* u, size_t nulls) {
  AnnotatedInstance t;
  for (size_t i = 0; i < nulls; ++i) {
    t.Add("R", {u->FreshNull(), u->Const("c")}, {Ann::kClosed, Ann::kOpen});
  }
  return t;
}

TEST(MemberEnumShardTest, SequentialAndShardedAgreeOnFullEnumeration) {
  // The 1-to-2 replication limit keeps the space a few thousand members
  // (an unbounded open universe here blows past the soft member cap and
  // every run reads kTruncated instead of kExhausted).
  MemberEnumOptions options;
  options.open_replication_limit = 2;

  Universe u;
  AnnotatedInstance t = MakeSpreadInstance(&u, 3);
  const std::vector<Value> fixed = {u.Const("a"), u.Const("b")};

  uint64_t members_seq = 0;
  {
    RepAMemberEnumerator en(t, fixed, &u, options);
    Status st = en.ForEachMember([&](const Instance&) { return true; });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);
    members_seq = en.members_visited();
    EXPECT_GT(members_seq, 100u);
  }

  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    Universe u2;
    AnnotatedInstance t2 = MakeSpreadInstance(&u2, 3);
    const std::vector<Value> fixed2 = {u2.Const("a"), u2.Const("b")};
    EngineStats stats;
    EngineContext ctx;
    ctx.shards = shards;
    ctx.stats = &stats;
    RepAMemberEnumerator en(t2, fixed2, &u2, options, &ctx);
    Status st = en.ForEachMember(
        [](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
          return [](const Instance&) -> Result<bool> { return true; };
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted) << "shards=" << shards;
    EXPECT_EQ(en.members_visited(), members_seq) << "shards=" << shards;
    EXPECT_EQ(stats.enum_shard_runs, 1u);
    EXPECT_EQ(stats.enum_shard_tasks, shards);
  }
}

// Shards copy the caller's context, plan table included, so every shard
// of every fan-out in one context looks up the same thread-safe table:
// two sharded enumerations compile each query exactly once between them,
// the same count as the sequential run. Under the tsan preset this also
// race-checks concurrent lookups and the compile-once publish.
TEST(MemberEnumShardTest, ShardsCompileOncePerContext) {
  MemberEnumOptions options;
  options.open_replication_limit = 2;
  auto compiles = [&](size_t shards) {
    Universe u;
    AnnotatedInstance t = MakeSpreadInstance(&u, 3);
    const std::vector<Value> fixed = {u.Const("a"), u.Const("b")};
    std::vector<FormulaPtr> queries;
    for (const char* text :
         {"exists x. R(x, 'c')", "exists x y. R(x, y) & R(y, x)"}) {
      Result<FormulaPtr> q = ParseFormula(text, &u);
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      if (!q.ok()) return uint64_t{0};
      queries.push_back(q.value());
    }
    EngineStats stats;
    EngineContext ctx;
    ctx.shards = shards;
    ctx.stats = &stats;
    // Attached explicitly, not via EnsureCache, so the pin also holds
    // under OCDX_PLAN_CACHE=off.
    ctx.plan_cache = std::make_shared<plan::SharedPlanTable>();
    for (int run = 0; run < 2; ++run) {
      RepAMemberEnumerator en(t, fixed, &u, options, &ctx);
      Status st = en.ForEachMember(
          [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
            return [&queries, shard](const Instance& member) -> Result<bool> {
              Evaluator ev(member, *shard.universe, *shard.ctx);
              for (const FormulaPtr& q : queries) {
                Result<bool> held = ev.Holds(q);
                if (!held.ok()) return held.status();
              }
              return true;
            };
          });
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted) << "shards=" << shards;
    }
    EXPECT_EQ(stats.enum_shard_runs, shards > 1 ? 2u : 0u);
    EXPECT_EQ(stats.shared_plan_hits + stats.shared_plan_misses, 0u)
        << "the context's own table counts as plan_cache_*";
    EXPECT_EQ(stats.plan_cache_misses, stats.plan_compiles);
    EXPECT_GT(stats.plan_cache_hits, stats.plan_compiles);
    EXPECT_EQ(ctx.plan_cache->size(), stats.plan_compiles);
    return stats.plan_compiles;
  };
  const uint64_t sequential = compiles(1);
  EXPECT_EQ(sequential, 2u) << "two queries, one compile each";
  EXPECT_EQ(compiles(4), sequential);
}

TEST(MemberEnumShardTest, FirstSuccessStopsEveryShard) {
  Universe u;
  AnnotatedInstance t = MakeSpreadInstance(&u, 4);
  const std::vector<Value> fixed = {u.Const("a")};
  EngineStats stats;
  EngineContext ctx;
  ctx.shards = 4;
  ctx.stats = &stats;
  RepAMemberEnumerator en(t, fixed, &u, MemberEnumOptions{}, &ctx);

  // Every shard's visitor "succeeds" on its first member: whichever
  // lands first raises the shared stop flag, and the run must come back
  // as a deliberate early stop, not an exhausted pass.
  Status st = en.ForEachMember(
      [](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
        return [](const Instance&) -> Result<bool> { return false; };
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kEarlyStopped);
  EXPECT_FALSE(en.exhausted());
  EXPECT_EQ(stats.enum_shard_stops, 1u);
}

TEST(MemberEnumShardTest, CrossThreadCancellationSurfacesAsCancelled) {
  Universe u;
  // Big valuation space: the run cannot finish before the canceller
  // fires (and if cancellation broke, the soft member cap — not a hang —
  // would end the test with the wrong outcome).
  AnnotatedInstance t = MakeSpreadInstance(&u, 7);
  const std::vector<Value> fixed = {u.Const("a"), u.Const("b")};

  std::atomic<bool> cancel{false};
  std::atomic<uint64_t> visited{0};
  EngineContext ctx;
  ctx.shards = 4;
  ctx.budget.cancel = &cancel;
  // Bound the no-cancellation failure mode: if the flag were ignored,
  // the soft cap ends the run in seconds as kTruncated + OK, which the
  // assertions below still reject.
  MemberEnumOptions options;
  options.max_members = 50'000;

  // The canceller raises the *caller's* flag from a foreign thread once
  // enumeration is demonstrably in flight — the exact situation ocdxd's
  // SIGTERM handler creates.
  std::thread canceller([&] {
    while (visited.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    cancel.store(true, std::memory_order_release);
  });

  RepAMemberEnumerator en(t, fixed, &u, options, &ctx);
  Status st = en.ForEachMember(
      [&visited](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
        return [&visited](const Instance&) -> Result<bool> {
          visited.fetch_add(1, std::memory_order_acq_rel);
          // Slow the members down so the cancel lands mid-run.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return true;
        };
      });
  canceller.join();

  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kTruncated);
  EXPECT_FALSE(en.exhausted());
}

// Regression (fresh-constant pool): a scenario constant literally named
// '#e0' — the first name the pool used to mint — must not alias into
// the fresh pool. With a pool of one, the buggy enumerator produced no
// genuinely fresh value at all and the open position could only ever be
// filled with the instance's own constants.
TEST(MemberEnumShardTest, AdversarialConstantNameCannotAliasIntoFreshPool) {
  Universe u;
  AnnotatedInstance t;
  t.Add("R", {u.Const("#e0")}, {Ann::kOpen});
  MemberEnumOptions options;
  options.fresh_pool = 1;
  RepAMemberEnumerator en(t, {}, &u, options);

  std::set<Value> seen;
  Status st = en.ForEachMember([&](const Instance& member) {
    const Relation* r = member.Find("R");
    if (r != nullptr) {
      for (TupleRef row : r->tuples()) seen.insert(row[0]);
    }
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(en.exhausted());
  // Some member must feature a value beyond the scenario's '#e0': the
  // one genuinely fresh pool constant.
  seen.erase(u.Const("#e0"));
  EXPECT_FALSE(seen.empty())
      << "the fresh pool aliased into the scenario constant '#e0'";
}

// Regression (outcome tri-state): an early-stopped run deliberately
// skips the rest of the space, so it must not read as exhausted; a
// later full pass over the same enumerator resets the outcome.
TEST(MemberEnumShardTest, EarlyStopIsNotExhausted) {
  Universe u;
  AnnotatedInstance t;
  t.Add("R", {u.Const("a")}, {Ann::kOpen});
  RepAMemberEnumerator en(t, {}, &u);

  Status st = en.ForEachMember([](const Instance&) { return false; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kEarlyStopped);
  EXPECT_FALSE(en.exhausted());
  EXPECT_EQ(en.members_visited(), 1u);

  st = en.ForEachMember([](const Instance&) { return true; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);
  EXPECT_TRUE(en.exhausted());
}

// The ThreadPool shutdown contract (exec/pool.h): Submit once the
// destructor's drain has begun would be a silent task drop, so debug
// builds assert. The assert only exists without NDEBUG (in CI that is
// the asan preset); the forking death-test harness is skipped under
// TSan, whose runtime does not survive fork-with-threads.
#if !defined(NDEBUG) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(thread_sanitizer)
#define OCDX_RUN_POOL_DEATH_TEST 1
#endif
#else
#define OCDX_RUN_POOL_DEATH_TEST 1
#endif
#endif

#ifdef OCDX_RUN_POOL_DEATH_TEST
TEST(ThreadPoolDeathTest, SubmitAfterShutdownAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool* escaped = nullptr;
        {
          ThreadPool pool(1);
          escaped = &pool;
          pool.Submit([&escaped] {
            // Let the destructor begin its drain, then break the rule.
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            escaped->Submit([] {});
          });
        }
      },
      "Submit after shutdown");
}
#endif

}  // namespace
}  // namespace ocdx
