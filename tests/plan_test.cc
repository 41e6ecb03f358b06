// Tests for the src/plan subsystem: compile-once / bind-per-instance
// semantics, the context-owned plan table, and the guard-depth
// diagnostic. The engine-level parity triangles live in
// engine_parity_test.cc; this file pins the plan layer's own contracts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/compile.h"
#include "plan/shared_plan_table.h"

namespace ocdx {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  FormulaPtr Parse(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }
  EngineContext Cached() {
    EngineContext ctx;
    ctx.plan_cache = std::make_shared<plan::SharedPlanTable>();
    ctx.stats = &stats_;
    return ctx;
  }
  Universe u_;
  EngineStats stats_;
};

TEST_F(PlanTest, CompiledPlanRebindsAcrossInstances) {
  // One compiled plan, executed against instances with different
  // contents (the member-enumeration shape). Results must match fresh
  // per-instance compilation, and the compile must happen exactly once.
  Instance a, b;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  a.Add("E", {u_.Const("b"), u_.Const("c")});
  b.Add("E", {u_.Const("x"), u_.Const("x")});
  b.Add("E", {u_.Const("x"), u_.Const("y")});

  FormulaPtr f = Parse("exists z. E(x, z) & E(z, y)");
  EngineContext ctx = Cached();

  std::optional<Relation> ra = TryEvalCQ(f, {"x", "y"}, a, ctx);
  std::optional<Relation> rb = TryEvalCQ(f, {"x", "y"}, b, ctx);
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  // Same-shape instances share one table entry: one compile, one hit.
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(stats_.shared_plan_hits + stats_.shared_plan_misses, 0u)
      << "the context's own table counts as plan_cache_*";
  EXPECT_EQ(ctx.plan_cache->size(), 1u);

  std::optional<Relation> fresh_a = TryEvalCQ(f, {"x", "y"}, a);
  std::optional<Relation> fresh_b = TryEvalCQ(f, {"x", "y"}, b);
  ASSERT_TRUE(fresh_a.has_value() && fresh_b.has_value());
  EXPECT_TRUE(*ra == *fresh_a);
  EXPECT_TRUE(*rb == *fresh_b);
  EXPECT_TRUE(rb->Contains({u_.Const("x"), u_.Const("x")}));
  EXPECT_TRUE(rb->Contains({u_.Const("x"), u_.Const("y")}));
}

TEST_F(PlanTest, GuardReactivatesWhenRebindingFindsTuples) {
  // The pre-PR 5 compiler dropped guards over empty relations at compile
  // time; the schema-level plan keeps them and BindQuery decides per
  // instance. Same schema fingerprint (both instances declare E and M),
  // different guard liveness.
  Instance no_m, with_m;
  no_m.Add("E", {u_.Const("a"), u_.Const("b")});
  no_m.GetOrCreate("M", 1);  // Declared but empty: guard can never match.
  with_m.Add("E", {u_.Const("a"), u_.Const("b")});
  with_m.Add("E", {u_.Const("c"), u_.Const("d")});
  with_m.Add("M", {u_.Const("b")});

  FormulaPtr f = Parse("E(x, y) & !M(y)");
  EngineContext ctx = Cached();

  std::optional<Relation> r1 = TryEvalCQ(f, {"x", "y"}, no_m, ctx);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->size(), 1u);  // Guard vacuous: the edge survives.

  std::optional<Relation> r2 = TryEvalCQ(f, {"x", "y"}, with_m, ctx);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(stats_.plan_compiles, 1u) << "same fingerprint, one plan";
  EXPECT_EQ(r2->size(), 1u);
  EXPECT_TRUE(r2->Contains({u_.Const("c"), u_.Const("d")}));
  EXPECT_FALSE(r2->Contains({u_.Const("a"), u_.Const("b")}));
}

TEST_F(PlanTest, BooleanPresetsAreRuntimeValues) {
  // A cached boolean plan must re-read the binding per call — preset
  // values cannot be baked in at compile time.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  FormulaPtr f = Parse("exists z. E(x, z)");
  EngineContext ctx = Cached();

  std::map<std::string, Value> hit{{"x", u_.Const("a")}};
  std::map<std::string, Value> miss{{"x", u_.Const("b")}};
  EXPECT_EQ(TryHoldsCQ(f, hit, inst, ctx), std::optional<bool>(true));
  EXPECT_EQ(TryHoldsCQ(f, miss, inst, ctx), std::optional<bool>(false));
  EXPECT_EQ(TryHoldsCQ(f, hit, inst, ctx), std::optional<bool>(true));
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_EQ(stats_.plan_cache_hits, 2u);
}

TEST_F(PlanTest, CacheKeysDistinguishModeOrderAndSchema) {
  Instance a, b;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  b.Add("F", {u_.Const("a"), u_.Const("b")});  // Different shape.
  FormulaPtr f = Parse("E(x, y)");
  EngineContext ctx = Cached();

  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, a, ctx).has_value());
  ASSERT_TRUE(TryEvalCQNaive(f, {"x", "y"}, a, ctx).has_value());  // Mode.
  ASSERT_TRUE(TryEvalCQ(f, {"y", "x"}, a, ctx).has_value());       // Order.
  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, b, ctx).has_value());       // Schema.
  EXPECT_EQ(stats_.plan_compiles, 4u);
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  // And each re-run is a hit.
  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, a, ctx).has_value());
  ASSERT_TRUE(TryEvalCQNaive(f, {"x", "y"}, a, ctx).has_value());
  EXPECT_EQ(stats_.plan_cache_hits, 2u);
  EXPECT_EQ(stats_.plan_compiles, 4u);
}

TEST_F(PlanTest, GuardDepthDiagnostic) {
  // One negation level is a supported guard; a negation *inside* a guard
  // body falls back to the generic evaluator and is diagnosed.
  EXPECT_FALSE(plan::GuardDepthExceeded(Parse("E(x, y) & !E(y, x)")));
  EXPECT_FALSE(plan::GuardDepthExceeded(Parse("!(exists p. E(p, p))")));
  FormulaPtr deep = Parse("E(x, y) & !(exists z. E(y, z) & !E(z, z))");
  EXPECT_TRUE(plan::GuardDepthExceeded(deep));

  // The evaluator still answers it (generic path), counts the fallback,
  // and the result matches the fully generic engine.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  inst.Add("E", {u_.Const("b"), u_.Const("c")});
  inst.Add("E", {u_.Const("c"), u_.Const("c")});
  EngineContext ctx = Cached();
  Evaluator ev(inst, u_, ctx);
  Result<Relation> r = ev.Answers(deep, {"x", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats_.guard_depth_fallbacks, 1u);
  Evaluator generic(inst, u_,
                    EngineContext::ForMode(JoinEngineMode::kGeneric));
  Result<Relation> slow = generic.Answers(deep, {"x", "y"});
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(r.value() == slow.value());
  // "a -> b" survives: b's only successor c is a self-loop, so the inner
  // guard kills every witness of the outer guard body.
  EXPECT_TRUE(r.value().Contains({u_.Const("a"), u_.Const("b")}));
}

TEST_F(PlanTest, GenericPlansAreCachedToo) {
  // Non-CQ shapes (disjunction) go through the generic skeleton, which
  // the cache subsumes from the old compiled-sentence cache.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  FormulaPtr f = Parse("E(x, y) | E(y, x)");
  EngineContext ctx = Cached();
  Evaluator ev(inst, u_, ctx);
  Result<Relation> r1 = ev.Answers(f, {"x", "y"});
  Result<Relation> r2 = ev.Answers(f, {"x", "y"});
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1.value() == r2.value());
  EXPECT_EQ(r1.value().size(), 2u);
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_GE(stats_.plan_cache_hits, 1u);
}

TEST_F(PlanTest, SchemaFingerprintIgnoresContents) {
  Instance a, b, c;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  b.Add("E", {u_.Const("p"), u_.Const("q")});
  b.Add("E", {u_.Const("q"), u_.Const("p")});
  c.Add("E", {u_.Const("a")});  // Same name, different arity.
  EXPECT_EQ(plan::SchemaFingerprint(a), plan::SchemaFingerprint(b));
  EXPECT_NE(plan::SchemaFingerprint(a), plan::SchemaFingerprint(c));
  EXPECT_NE(plan::SchemaFingerprint(a), 0u);
}

}  // namespace
}  // namespace ocdx
