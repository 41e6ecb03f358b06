// Tests for semantic composition (Theorem 4, Table 1): the NP paths, the
// 3-colorability reduction, Lemma 3 / Corollary 4, Proposition 6's
// non-composability witness family, and the compile-once contract for
// the mappings (plan/compiled_mapping.h).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "compose/compose.h"
#include "mapping/rule_parser.h"
#include "text/dx_parser.h"
#include "workloads/coloring.h"
#include "workloads/scenarios.h"

namespace ocdx {
namespace {

class ComposeTest : public ::testing::Test {
 protected:
  ComposeVerdict MustDecide(const Mapping& sigma, const Mapping& delta,
                            const Instance& s, const Instance& w,
                            ComposeOptions opts = {}) {
    Result<ComposeVerdict> r = InComposition(sigma, delta, s, w, &u_, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : ComposeVerdict{};
  }
  Universe u_;
};

// --- Theorem 4 NP-hardness reduction: 3-colorability -----------------------

TEST_F(ComposeTest, TriangleIsThreeColorable) {
  Result<ColoringReduction> red =
      BuildColoringReduction(CompleteGraph(3), &u_);
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                red.value().source, red.value().target);
  EXPECT_TRUE(v.member);
  EXPECT_TRUE(v.exhaustive);
  EXPECT_NE(v.method.find("all-closed Sigma"), std::string::npos) << v.method;
}

TEST_F(ComposeTest, K4IsNotThreeColorable) {
  Result<ColoringReduction> red =
      BuildColoringReduction(CompleteGraph(4), &u_);
  ASSERT_TRUE(red.ok());
  ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                red.value().source, red.value().target);
  EXPECT_FALSE(v.member);
  EXPECT_TRUE(v.exhaustive) << "all-closed path is a decision procedure";
}

// Property sweep: the reduction agrees with brute-force 3-colorability,
// for every annotation of Delta (the theorem's "for every alpha'").
class ColoringSweep : public ComposeTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(ColoringSweep, ReductionMatchesBruteForce) {
  Rng rng(1234 + GetParam());
  Graph g = RandomGraph(4, 1, 2, &rng);
  bool expected = IsThreeColorable(g);
  for (Ann delta_ann : {Ann::kClosed, Ann::kOpen}) {
    Result<ColoringReduction> red =
        BuildColoringReduction(g, &u_, delta_ann);
    ASSERT_TRUE(red.ok());
    ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                  red.value().source, red.value().target);
    EXPECT_EQ(v.member, expected)
        << "graph seed " << GetParam() << " delta_ann "
        << AnnToString(delta_ann);
    EXPECT_TRUE(v.exhaustive);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ColoringSweep,
                         ::testing::Range(0, 8));

// --- Lemma 3 / Corollary 4: monotone all-open Delta -------------------------

TEST_F(ComposeTest, MonotoneAllOpenDeltaCollapsesSigmaAnnotation) {
  // Sigma copies E with varying annotation; Delta (monotone CQ, all-open)
  // asks for a 2-path witness in omega.
  Schema src, tau, omega;
  src.Add("E", 2);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Instance s;
  s.Add("E", {u_.Const("a"), u_.Const("b")});
  s.Add("E", {u_.Const("b"), u_.Const("c")});
  Instance w;
  w.Add("P", {u_.Const("a"), u_.Const("c")});

  Result<Mapping> delta = ParseMapping(
      "P(x^op, y^op) :- exists z. F(x, z) & F(z, y);", tau, omega, &u_);
  ASSERT_TRUE(delta.ok());

  std::vector<bool> results;
  for (const char* rules :
       {"F(x^cl, y^cl) :- E(x, y);", "F(x^cl, y^op) :- E(x, y);",
        "F(x^op, y^op) :- E(x, y);"}) {
    Result<Mapping> sigma = ParseMapping(rules, src, tau, &u_);
    ASSERT_TRUE(sigma.ok());
    ComposeVerdict v =
        MustDecide(sigma.value(), delta.value(), s, w);
    EXPECT_TRUE(v.exhaustive);
    EXPECT_NE(v.method.find("NP"), std::string::npos) << v.method;
    results.push_back(v.member);
  }
  // Lemma 3: all annotations of Sigma give the same composition.
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
  EXPECT_TRUE(results[0]) << "copying E then taking 2-paths reaches (a,c)";
}

// --- Proposition 6: the witness family ---------------------------------------

TEST_F(ComposeTest, Prop6CompositionMembers) {
  // Claim 6: every uniform instance { (i, c) : i = 1..n } belongs to the
  // composition, for any single value c.
  Result<Prop6Scenario> sc =
      BuildProp6Scenario(3, Ann::kClosed, Ann::kClosed, &u_);
  ASSERT_TRUE(sc.ok());
  Instance w;
  for (int i = 1; i <= 3; ++i) {
    w.Add("Dr", {u_.IntConst(i), u_.Const("c")});
  }
  ComposeVerdict v =
      MustDecide(sc.value().sigma, sc.value().delta, sc.value().source, w);
  EXPECT_TRUE(v.member);

  // But dropping a row breaks it: C = {1..n} forces every i to pair with
  // the (single, closed) N-value.
  Instance partial;
  partial.Add("Dr", {u_.IntConst(1), u_.Const("c")});
  ComposeVerdict v2 = MustDecide(sc.value().sigma, sc.value().delta,
                                 sc.value().source, partial);
  EXPECT_FALSE(v2.member);
  EXPECT_TRUE(v2.exhaustive);

  // Two different second-column values cannot both be present: the
  // intermediate N holds exactly one (closed) value.
  Instance two_vals;
  for (int i = 1; i <= 3; ++i) {
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("c")});
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("d")});
  }
  ComposeVerdict v3 = MustDecide(sc.value().sigma, sc.value().delta,
                                 sc.value().source, two_vals);
  EXPECT_FALSE(v3.member);
}

// --- General path (#op >= 1) --------------------------------------------------

TEST_F(ComposeTest, OpenSigmaGeneralPathFindsWitness) {
  // Sigma with an open position: the intermediate may replicate, which
  // the composition needs here.
  Schema src, tau, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x);", src, tau, &u_);
  Result<Mapping> delta = ParseMapping(
      "P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);", tau, omega, &u_);
  ASSERT_TRUE(sigma.ok());
  ASSERT_TRUE(delta.ok());

  Instance s;
  s.Add("E", {u_.Const("a")});
  // W needs two distinct F-successors of a: only possible by replicating
  // the open null.
  Instance w;
  w.Add("P", {u_.Const("u"), u_.Const("v")});
  w.Add("P", {u_.Const("v"), u_.Const("u")});

  ComposeOptions opts;
  opts.enum_options.fresh_pool = 2;
  ComposeVerdict v =
      MustDecide(sigma.value(), delta.value(), s, w, opts);
  EXPECT_TRUE(v.member);
  EXPECT_TRUE(v.exhaustive) << "positive verdicts carry a concrete witness";
  EXPECT_NE(v.method.find("Thm 4.2"), std::string::npos) << v.method;

  // With a closed second position the same W is impossible.
  Result<Mapping> sigma_cl =
      ParseMapping("F(x^cl, z^cl) :- E(x);", src, tau, &u_);
  ASSERT_TRUE(sigma_cl.ok());
  ComposeVerdict v2 = MustDecide(sigma_cl.value(), delta.value(), s, w, opts);
  EXPECT_FALSE(v2.member);
  EXPECT_TRUE(v2.exhaustive);
}

// The general path (Sigma with an open position) at several shard counts:
// the shard visitors share one compiled Delta, read-only, so the verdicts
// must not depend on the fan-out. A closed Delta sends each visitor
// through the chase + RepA; an all-open Delta with a negated body (so not
// the Lemma 3 NP path) sends it through (J, W) |= Delta, where the shards
// evaluate the compiled Delta's shared requirement formulas concurrently.
TEST_F(ComposeTest, GeneralPathVerdictsAgreeAcrossShards) {
  Schema src, tau, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x);", src, tau, &u_);
  Result<Mapping> delta_closed = ParseMapping(
      "P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);", tau, omega, &u_);
  Result<Mapping> delta_open = ParseMapping(
      "P(y^op, y2^op) :- F(x, y) & F(x, y2) & !(y = y2) & !F(y, y2);"
      "P(x^op, x^op) :- F(x, y);",
      tau, omega, &u_);
  ASSERT_TRUE(sigma.ok());
  ASSERT_TRUE(delta_closed.ok());
  ASSERT_TRUE(delta_open.ok());
  ASSERT_TRUE(delta_open.value().IsAllOpen());
  ASSERT_FALSE(delta_open.value().HasMonotoneBodies());
  Instance s;
  s.Add("E", {u_.Const("a")});
  // Closed Delta: reachable by replicating the open null; not reachable,
  // because a closed Delta emits both directions of every pair.
  Instance both;
  both.Add("P", {u_.Const("u"), u_.Const("v")});
  both.Add("P", {u_.Const("v"), u_.Const("u")});
  Instance one_way;
  one_way.Add("P", {u_.Const("u"), u_.Const("v")});
  // Open Delta: every J has an F-fact at a, so W needs P(a, a); one
  // F-successor leaves the first rule without witnesses.
  Instance loop = both;
  loop.Add("P", {u_.Const("a"), u_.Const("a")});

  struct Case {
    const Mapping* delta;
    const Instance* w;
    bool member;
  };
  const Case cases[] = {
      {&delta_closed.value(), &both, true},
      {&delta_closed.value(), &one_way, false},
      {&delta_open.value(), &loop, true},
      {&delta_open.value(), &both, false},
  };
  ComposeOptions opts;
  opts.enum_options.fresh_pool = 2;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.delta->ToString(u_));
    std::optional<ComposeVerdict> baseline;
    for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
      EngineStats stats;
      EngineContext ctx;
      ctx.shards = shards;
      ctx.stats = &stats;
      Result<ComposeVerdict> r = InComposition(sigma.value(), *c.delta, s,
                                               *c.w, &u_, opts, ctx);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_NE(r.value().method.find("Thm 4.2"), std::string::npos);
      EXPECT_EQ(stats.enum_shard_runs, shards > 1 ? 1u : 0u)
          << "shards=" << shards;
      if (!baseline.has_value()) {
        baseline = r.value();
        continue;
      }
      EXPECT_EQ(r.value().member, baseline->member) << "shards=" << shards;
      EXPECT_EQ(r.value().exhaustive, baseline->exhaustive)
          << "shards=" << shards;
      if (!baseline->member) {
        // No early stop: every shard runs to the end, so together they
        // visit exactly the sequential run's members.
        EXPECT_EQ(r.value().intermediates_checked,
                  baseline->intermediates_checked)
            << "shards=" << shards;
      }
    }
    EXPECT_EQ(baseline->member, c.member);
  }
}

// --- Compile once per decision ------------------------------------------------

// Sigma and Delta compile once each per decision, however many
// intermediates Delta is then checked over — through the chase + RepA
// path (closed Delta) and the (J, W) |= Delta path (open Delta).
TEST_F(ComposeTest, CompilesDeltaOncePerDecision) {
  for (Ann delta_ann : {Ann::kClosed, Ann::kOpen}) {
    Result<ColoringReduction> red =
        BuildColoringReduction(CompleteGraph(4), &u_, delta_ann);
    ASSERT_TRUE(red.ok());
    EngineStats stats;
    EngineContext ctx;
    ctx.stats = &stats;
    Result<ComposeVerdict> v =
        InComposition(red.value().sigma, red.value().delta,
                      red.value().source, red.value().target, &u_, {}, ctx);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_FALSE(v.value().member);
    EXPECT_GT(v.value().intermediates_checked, 100u);
    EXPECT_EQ(stats.mapping_compiles, 2u) << AnnToString(delta_ann);
  }
}

// intermediates_checked is never printed, so only this pin shows which
// representatives a decision visits. The counts were recorded at
// shards = 1 with each J built as a fresh Instance (Valuation::
// ApplyRelPart); writing J into reused relations must not change them.
TEST_F(ComposeTest, IntermediatesCheckedIsPinned) {
  auto checked = [&](const Mapping& sigma, const Mapping& delta,
                     const Instance& s, const Instance& w,
                     ComposeOptions opts = {}) {
    return MustDecide(sigma, delta, s, w, opts).intermediates_checked;
  };

  {
    std::ifstream in(std::string(OCDX_CORPUS_DIR) + "/composition.dx");
    std::stringstream text;
    text << in.rdbuf();
    Result<DxScenario> sc = ParseDxScenario(text.str(), &u_);
    ASSERT_TRUE(sc.ok()) << sc.status().ToString();
    const DxScenario& d = sc.value();
    ASSERT_NE(d.FindMapping("Sigma"), nullptr);
    ASSERT_NE(d.FindMapping("Delta"), nullptr);
    ASSERT_NE(d.FindInstance("S"), nullptr);
    ASSERT_NE(d.FindInstance("W"), nullptr);
    EXPECT_EQ(checked(d.FindMapping("Sigma")->mapping,
                      d.FindMapping("Delta")->mapping,
                      d.FindInstance("S")->plain, d.FindInstance("W")->plain),
              1u);
  }

  for (size_t n : {size_t{3}, size_t{4}}) {
    Result<ColoringReduction> red =
        BuildColoringReduction(CompleteGraph(n), &u_);
    ASSERT_TRUE(red.ok());
    EXPECT_EQ(checked(red.value().sigma, red.value().delta,
                      red.value().source, red.value().target),
              n == 3 ? 137u : 4516u)
        << "K" << n;
  }

  // ColoringSweep's graphs; both annotations of Delta visit the same
  // representatives.
  const uint64_t kSweep[8] = {123, 595, 180, 66, 9, 595, 180, 1010};
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(1234 + seed);
    Graph g = RandomGraph(4, 1, 2, &rng);
    for (Ann delta_ann : {Ann::kClosed, Ann::kOpen}) {
      Result<ColoringReduction> red =
          BuildColoringReduction(g, &u_, delta_ann);
      ASSERT_TRUE(red.ok());
      EXPECT_EQ(checked(red.value().sigma, red.value().delta,
                        red.value().source, red.value().target),
                kSweep[seed])
          << "graph seed " << seed << " delta_ann " << AnnToString(delta_ann);
    }
  }

  Result<Prop6Scenario> p6 =
      BuildProp6Scenario(3, Ann::kClosed, Ann::kClosed, &u_);
  ASSERT_TRUE(p6.ok());
  Instance full, partial, two_vals;
  for (int i = 1; i <= 3; ++i) {
    full.Add("Dr", {u_.IntConst(i), u_.Const("c")});
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("c")});
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("d")});
  }
  partial.Add("Dr", {u_.IntConst(1), u_.Const("c")});
  EXPECT_EQ(checked(p6.value().sigma, p6.value().delta, p6.value().source,
                    full),
            4u);
  EXPECT_EQ(checked(p6.value().sigma, p6.value().delta, p6.value().source,
                    partial),
            5u);
  EXPECT_EQ(checked(p6.value().sigma, p6.value().delta, p6.value().source,
                    two_vals),
            6u);

  // The general path (OpenSigmaGeneralPathFindsWitness's inputs).
  Schema src, tau, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x);", src, tau, &u_);
  Result<Mapping> sigma_cl =
      ParseMapping("F(x^cl, z^cl) :- E(x);", src, tau, &u_);
  Result<Mapping> delta = ParseMapping(
      "P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);", tau, omega, &u_);
  ASSERT_TRUE(sigma.ok() && sigma_cl.ok() && delta.ok());
  Instance s;
  s.Add("E", {u_.Const("a")});
  Instance w;
  w.Add("P", {u_.Const("u"), u_.Const("v")});
  w.Add("P", {u_.Const("v"), u_.Const("u")});
  ComposeOptions opts;
  opts.enum_options.fresh_pool = 2;
  EXPECT_EQ(checked(sigma.value(), delta.value(), s, w, opts), 19u);
  EXPECT_EQ(checked(sigma_cl.value(), delta.value(), s, w, opts), 4u);
}

// --- Input validation ---------------------------------------------------------

TEST_F(ComposeTest, RejectsBadInputs) {
  Schema src, tau, tau2, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  tau2.Add("F", 3);
  omega.Add("P", 1);
  Result<Mapping> sigma = ParseMapping("F(x^cl, z^cl) :- E(x);", src, tau,
                                       &u_);
  Result<Mapping> delta2 = ParseMapping(
      "P(x^cl) :- exists y z. F(x, y, z);", tau2, omega, &u_);
  ASSERT_TRUE(sigma.ok());
  ASSERT_TRUE(delta2.ok());
  Instance s, w;
  s.Add("E", {u_.Const("a")});
  w.GetOrCreate("P", 1);
  EXPECT_FALSE(
      InComposition(sigma.value(), delta2.value(), s, w, &u_).ok())
      << "intermediate schema mismatch";

  Instance with_null;
  with_null.Add("E", {u_.FreshNull()});
  Result<Mapping> delta = ParseMapping("P(x^cl) :- exists y. F(x, y);", tau,
                                       omega, &u_);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(
      InComposition(sigma.value(), delta.value(), with_null, w, &u_).ok());
}

}  // namespace
}  // namespace ocdx
