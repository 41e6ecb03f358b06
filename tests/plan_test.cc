// Tests for the src/plan subsystem: compile-once / bind-per-instance
// semantics, the context-owned plan table, and the guard-depth
// diagnostic. The engine-level parity triangles live in
// engine_parity_test.cc; this file pins the plan layer's own contracts.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/compile.h"
#include "plan/runner.h"
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


// ---------------------------------------------------------------------------
// Range-restricted generic plans: under the indexed engine a quantifier
// whose body needs positive atoms true enumerates those atoms' tuples
// (its driver) instead of the domain^k odometer.
// ---------------------------------------------------------------------------

constexpr char kUniqueOffice[] =
    "forall x o1 o2. (Assign(x, o1) & Assign(x, o2)) -> o1 = o2";

plan::CompiledQueryPtr CompileSentence(const FormulaPtr& f,
                                       const Instance& inst,
                                       JoinEngineMode mode,
                                       bool force_generic = false) {
  plan::CompileRequest req;
  req.formula = f;
  req.boolean_mode = true;
  return plan::CompileQuery(req, inst, mode, force_generic,
                            plan::SchemaFingerprint(inst));
}

// Four employees, three offices; everybody has exactly one office.
Instance FourEmployeeMember(Universe* u) {
  Instance m;
  m.Add("Assign", {u->Const("ana"), u->Const("o1")});
  m.Add("Assign", {u->Const("bo"), u->Const("o2")});
  m.Add("Assign", {u->Const("cy"), u->Const("o1")});
  m.Add("Assign", {u->Const("dee"), u->Const("o3")});
  return m;
}

TEST_F(PlanTest, OnlyIndexedPlansWithoutFunctionTermsGetDrivers) {
  Instance member = FourEmployeeMember(&u_);
  FormulaPtr f = Parse(kUniqueOffice);

  plan::CompiledQueryPtr indexed =
      CompileSentence(f, member, JoinEngineMode::kIndexed);
  ASSERT_EQ(indexed->kind, plan::PlanKind::kGeneric);
  const plan::GenericNode& root = indexed->generic->root;
  EXPECT_EQ(root.driver.size(), 2u) << "both antecedent atoms drive";
  EXPECT_TRUE(root.odometer_slots.empty());
  EXPECT_FALSE(indexed->generic->needs_domain);
  EXPECT_EQ(indexed->generic->atom_arities.size(), 2u);
  // The second atom probes on x, bound by the first.
  EXPECT_EQ(root.driver[0].mask, 0u);
  EXPECT_EQ(root.driver[1].mask, 1u);

  // The oracles keep the pure odometer.
  for (JoinEngineMode mode :
       {JoinEngineMode::kNaive, JoinEngineMode::kGeneric}) {
    plan::CompiledQueryPtr pure = CompileSentence(f, member, mode);
    ASSERT_EQ(pure->kind, plan::PlanKind::kGeneric);
    EXPECT_TRUE(pure->generic->root.driver.empty());
    EXPECT_TRUE(pure->generic->needs_domain);
    EXPECT_TRUE(pure->generic->atom_arities.empty());
  }
  plan::CompiledQueryPtr forced = CompileSentence(
      f, member, JoinEngineMode::kIndexed, /*force_generic=*/true);
  EXPECT_TRUE(forced->generic->root.driver.empty());

  // A function term anywhere keeps the whole plan pure: its evaluation
  // (and its missing-oracle error) must happen where the odometer does.
  plan::CompiledQueryPtr func = CompileSentence(
      Parse("forall x o. Assign(x, o) -> Assign(x, f(o))"), member,
      JoinEngineMode::kIndexed);
  EXPECT_TRUE(func->generic->root.driver.empty());

  // A quantified variable no driver atom binds keeps the odometer.
  plan::CompiledQueryPtr partial = CompileSentence(
      Parse("exists x o z. Assign(x, o) & !(z = o)"), member,
      JoinEngineMode::kIndexed);
  EXPECT_EQ(partial->generic->root.driver.size(), 1u);
  EXPECT_EQ(partial->generic->root.odometer_slots,
            std::vector<int>{partial->generic->slots.at("z")});
  EXPECT_TRUE(partial->generic->needs_domain);
}

TEST_F(PlanTest, UniqueOfficeStepsPerEvaluation) {
  // The member's 4 Assign tuples are the only assignments that can
  // falsify the body: 4 steps under the indexed engine, |D|^3 under the
  // pure odometer (D = 4 employees + 3 offices).
  Instance member = FourEmployeeMember(&u_);
  FormulaPtr f = Parse(kUniqueOffice);
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    EngineStats stats;
    EngineContext ctx = EngineContext::ForMode(mode);
    ctx.stats = &stats;
    Evaluator ev(member, u_, ctx);
    for (int eval = 0; eval < 2; ++eval) {
      Result<bool> r = ev.Holds(f);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value());
    }
    EXPECT_EQ(stats.generic_evals, 2u);
    if (mode == JoinEngineMode::kIndexed) {
      EXPECT_LE(stats.generic_steps, 2u * 4u);
    } else {
      EXPECT_EQ(stats.generic_steps, 2u * 7u * 7u * 7u);
    }
  }
  // A violating member: both engines find the counterexample.
  member.Add("Assign", {u_.Const("ana"), u_.Const("o2")});
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    Evaluator ev(member, u_, EngineContext::ForMode(mode));
    Result<bool> r = ev.Holds(f);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value());
  }
}

TEST_F(PlanTest, DriversRunOnlyWhenBindFindsArityOk) {
  Instance good = FourEmployeeMember(&u_);
  Instance bad;
  bad.Add("Assign", {u_.Const("ana"), u_.Const("o1"), u_.Const("x")});
  FormulaPtr f = Parse(kUniqueOffice);

  // A range-restricted plan bound to an instance whose Assign has
  // another arity must not run: BindQuery says so.
  plan::CompiledQueryPtr cq =
      CompileSentence(f, good, JoinEngineMode::kIndexed);
  ASSERT_FALSE(cq->generic->root.driver.empty());
  EXPECT_TRUE(plan::BindQuery(*cq, good).arity_ok);
  EXPECT_FALSE(plan::BindQuery(*cq, bad).arity_ok);
  // Compiled against the mismatched instance itself, the plan stays pure.
  EXPECT_TRUE(CompileSentence(f, bad, JoinEngineMode::kIndexed)
                  ->generic->root.driver.empty());

  // Either way the caller sees the pure odometer's InvalidArgument.
  Result<bool> indexed =
      Evaluator(bad, u_, EngineContext::ForMode(JoinEngineMode::kIndexed))
          .Holds(f);
  Result<bool> generic =
      Evaluator(bad, u_, EngineContext::ForMode(JoinEngineMode::kGeneric))
          .Holds(f);
  ASSERT_FALSE(indexed.ok());
  EXPECT_EQ(indexed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(indexed.status().ToString(), generic.status().ToString());
}

TEST_F(PlanTest, DriverTuplesTickTheGauge) {
  // The gauge polls every 1024 ticks. A driver ticks once per tuple, so
  // with cancellation already raised 1023 tuples finish and 1024 trip.
  std::atomic<bool> cancel{true};
  FormulaPtr f = Parse("forall x y. R(x, y) -> x = y");
  for (int n : {1023, 1024}) {
    Instance inst;
    for (int i = 0; i < n; ++i) {
      Value v = u_.Const("c" + std::to_string(i));
      inst.Add("R", {v, v});
    }
    EngineStats stats;
    EngineContext ctx;
    ctx.stats = &stats;
    ctx.budget.cancel = &cancel;
    Result<bool> r = Evaluator(inst, u_, ctx).Holds(f);
    if (n == 1023) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value());
      EXPECT_EQ(stats.generic_steps, 1023u);
    } else {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }
}

}  // namespace
}  // namespace ocdx
