// Unit tests for src/mapping: rule parsing, metrics, validation.

#include <gtest/gtest.h>

#include "chase/canonical.h"
#include "mapping/mapping.h"
#include "mapping/rule_parser.h"
#include "plan/compiled_mapping.h"
#include "semantics/solutions.h"

namespace ocdx {
namespace {

class MappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_.Add("Papers", {"paper", "title"});
    source_.Add("Assignments", {"paper", "reviewer"});
    target_.Add("Submissions", {"paper", "author"});
    target_.Add("Reviews", {"paper", "review"});
  }
  Schema source_, target_;
  Universe u_;
};

// The running example from the paper's introduction.
const char kConferenceRules[] = R"(
  Submissions(x^cl, z^op) :- Papers(x, y);
  Reviews(x^cl, z^cl) :- Assignments(x, y);
  Reviews(x^cl, z^op) :- Papers(x, y) & !exists r. Assignments(x, r);
)";

TEST_F(MappingTest, ParsesConferenceExample) {
  Result<Mapping> m =
      ParseMapping(kConferenceRules, source_, target_, &u_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().stds().size(), 3u);
  const AnnotatedStd& first = m.value().stds()[0];
  EXPECT_EQ(first.head.size(), 1u);
  EXPECT_EQ(first.head[0].rel, "Submissions");
  EXPECT_EQ(first.head[0].ann, (AnnVec{Ann::kClosed, Ann::kOpen}));
  EXPECT_EQ(first.BodyVars(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(first.ExistentialVars(), (std::vector<std::string>{"z"}));
}

TEST_F(MappingTest, MetricsCountPerAtom) {
  Result<Mapping> m =
      ParseMapping(kConferenceRules, source_, target_, &u_);
  ASSERT_TRUE(m.ok());
  // Each atom has at most 1 open and at most 2 closed positions.
  EXPECT_EQ(m.value().MaxOpenPerAtom(), 1u);
  EXPECT_EQ(m.value().MaxClosedPerAtom(), 2u);
  EXPECT_FALSE(m.value().IsAllOpen());
  EXPECT_FALSE(m.value().IsAllClosed());
}

TEST_F(MappingTest, PerAtomNotPerRule) {
  // The paper: "for the rule T(x^cl, y^op) & T(x^cl, z^op) :- phi, the
  // value of #op is 1, even though two variables occur with an open
  // annotation."
  Schema tgt;
  tgt.Add("T", 2);
  Schema src;
  src.Add("P", 1);
  Result<Mapping> m = ParseMapping(
      "T(x^cl, y^op), T(x^cl, z^op) :- P(x);", src, tgt, &u_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().MaxOpenPerAtom(), 1u);
  EXPECT_EQ(m.value().MaxClosedPerAtom(), 1u);
}

TEST_F(MappingTest, DefaultAnnotation) {
  Result<Mapping> m = ParseMapping("Submissions(x, z) :- Papers(x, y);",
                                   source_, target_, &u_, Ann::kOpen);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m.value().IsAllOpen());
}

TEST_F(MappingTest, UniformAnnotationOverride) {
  Result<Mapping> m =
      ParseMapping(kConferenceRules, source_, target_, &u_);
  ASSERT_TRUE(m.ok());
  Mapping op = m.value().WithUniformAnnotation(Ann::kOpen);
  Mapping cl = m.value().WithUniformAnnotation(Ann::kClosed);
  EXPECT_TRUE(op.IsAllOpen());
  EXPECT_TRUE(cl.IsAllClosed());
  EXPECT_EQ(op.stds().size(), 3u);
}

TEST_F(MappingTest, BodyClassification) {
  Result<Mapping> m =
      ParseMapping(kConferenceRules, source_, target_, &u_);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m.value().HasCQBodies());  // Third rule has negation.
  Result<Mapping> cq = ParseMapping(
      "Submissions(x^cl, z^op) :- Papers(x, y);", source_, target_, &u_);
  ASSERT_TRUE(cq.ok());
  EXPECT_TRUE(cq.value().HasCQBodies());
  EXPECT_TRUE(cq.value().HasMonotoneBodies());
}

TEST_F(MappingTest, ValidationCatchesUnknownRelations) {
  EXPECT_FALSE(
      ParseMapping("Nope(x^cl) :- Papers(x, y);", source_, target_, &u_)
          .ok());
  EXPECT_FALSE(
      ParseMapping("Submissions(x^cl, z^op) :- Nope(x);", source_, target_,
                   &u_)
          .ok());
  // Wrong arity in the head.
  EXPECT_FALSE(
      ParseMapping("Submissions(x^cl) :- Papers(x, y);", source_, target_, &u_)
          .ok());
}

TEST_F(MappingTest, SkolemizedTermsNeedOptIn) {
  Schema src, tgt;
  src.Add("S", {"em", "proj"});
  tgt.Add("T", {"id", "em", "phone"});
  const char rule[] =
      "T(f(em)^cl, em^cl, g(em, proj)^op) :- S(em, proj);";
  EXPECT_FALSE(ParseMapping(rule, src, tgt, &u_).ok());
  Result<Mapping> sk = ParseMapping(rule, src, tgt, &u_, Ann::kClosed,
                                    /*allow_functions=*/true);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  EXPECT_TRUE(sk.value().IsSkolemized());
  EXPECT_EQ(sk.value().stds()[0].ExistentialVars().size(), 0u);
}

TEST_F(MappingTest, ConstantsInHeads) {
  Schema src, tgt;
  src.Add("S", 1);
  tgt.Add("T", 2);
  Result<Mapping> m =
      ParseMapping("T(x^cl, 'fixed'^cl) :- S(x);", src, tgt, &u_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE(m.value().stds()[0].head[0].terms[1].IsConst());
}

TEST_F(MappingTest, ParseErrors) {
  EXPECT_FALSE(ParseStd("T(x^banana) :- S(x)", &u_).ok());
  EXPECT_FALSE(ParseStd("T(x^cl)", &u_).ok());
  EXPECT_FALSE(ParseStd(":- S(x)", &u_).ok());
}

// Validation moved into plan::CompileMapping: every Mapping::Validate
// failure above (and the two the rule parser cannot produce) must come
// back unchanged — same code, same message — from CompileMapping and
// from a chase, which compiles first.
TEST_F(MappingTest, CompiledMappingValidationErrorParity) {
  Schema sk_src, sk_tgt;
  sk_src.Add("S", {"em", "proj"});
  sk_tgt.Add("T", {"id", "em", "phone"});
  struct Case {
    const char* rule;
    const Schema* source;
    const Schema* target;
  };
  const Case cases[] = {
      {"Nope(x^cl) :- Papers(x, y)", &source_, &target_},
      {"Submissions(x^cl, z^op) :- Nope(x)", &source_, &target_},
      {"Submissions(x^cl) :- Papers(x, y)", &source_, &target_},
      {"T(f(em)^cl, em^cl, g(em, proj)^op) :- S(em, proj)", &sk_src,
       &sk_tgt},
  };
  std::vector<Mapping> bad;
  for (const Case& c : cases) {
    Result<AnnotatedStd> std_ = ParseStd(c.rule, &u_);
    ASSERT_TRUE(std_.ok()) << c.rule;
    Mapping m(*c.source, *c.target);
    m.AddStd(std_.value());
    bad.push_back(std::move(m));
  }
  Result<AnnotatedStd> good =
      ParseStd("Submissions(x^cl, z^op) :- Papers(x, y)", &u_);
  ASSERT_TRUE(good.ok());
  AnnotatedStd empty_head = good.value();
  empty_head.head.clear();
  AnnotatedStd short_ann = good.value();
  short_ann.head[0].ann.pop_back();
  for (AnnotatedStd* s : {&empty_head, &short_ann}) {
    Mapping m(source_, target_);
    m.AddStd(good.value());  // A valid STD first: the failure is STD #1.
    m.AddStd(*s);
    bad.push_back(std::move(m));
  }

  Instance source;
  source.Add("Papers", {u_.Const("p1"), u_.Const("t1")});
  for (const Mapping& m : bad) {
    Status expected = m.Validate();
    ASSERT_FALSE(expected.ok()) << m.ToString(u_);
    Result<plan::CompiledMapping> compiled = plan::CompileMapping(m);
    ASSERT_FALSE(compiled.ok()) << m.ToString(u_);
    EXPECT_EQ(compiled.status(), expected) << compiled.status().ToString();
    Result<CanonicalSolution> chased = Chase(m, source, &u_);
    ASSERT_FALSE(chased.ok()) << m.ToString(u_);
    EXPECT_EQ(chased.status(), expected) << chased.status().ToString();
  }
}

// A compiled mapping keeps what the chase and the STD checks would
// otherwise re-derive per call.
TEST_F(MappingTest, CompiledMappingHoldsPerStdAnalysis) {
  Result<Mapping> m = ParseMapping(kConferenceRules, source_, target_, &u_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  Result<plan::CompiledMapping> c = plan::CompileMapping(m.value(), ctx);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(stats.mapping_compiles, 1u);
  EXPECT_FALSE(c.value().all_open());
  ASSERT_EQ(c.value().stds().size(), m.value().stds().size());
  for (size_t i = 0; i < m.value().stds().size(); ++i) {
    const AnnotatedStd& s = m.value().stds()[i];
    const plan::CompiledStd& cs = c.value().stds()[i];
    EXPECT_EQ(*cs.body_vars, s.BodyVars());
    EXPECT_EQ(cs.exist_vars, s.ExistentialVars());
    EXPECT_EQ(cs.head_slots.size(), s.head.size());
    // "exists z . head": the free variables are the head's body
    // variables, here x, projected from its body position.
    EXPECT_EQ(cs.requirement_vars, std::vector<std::string>{"x"});
    ASSERT_EQ(cs.requirement_proj.size(), 1u);
    EXPECT_EQ((*cs.body_vars)[cs.requirement_proj[0]], "x");
  }
  EXPECT_TRUE(c.value().checks_stds());

  // Compiled for the chase only: no requirement fields, and the STD check
  // refuses it rather than reading them.
  Result<plan::CompiledMapping> chase_only =
      plan::CompileMapping(m.value(), ctx, plan::MappingUse::kChase);
  ASSERT_TRUE(chase_only.ok()) << chase_only.status().ToString();
  EXPECT_EQ(stats.mapping_compiles, 2u);
  EXPECT_FALSE(chase_only.value().checks_stds());
  for (const plan::CompiledStd& cs : chase_only.value().stds()) {
    EXPECT_EQ(cs.requirement, nullptr);
    EXPECT_TRUE(cs.requirement_vars.empty());
  }
  Instance source, target;
  Result<bool> sat =
      SatisfiesStds(chase_only.value(), source, target, u_, ctx);
  ASSERT_FALSE(sat.ok());
  EXPECT_EQ(sat.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ocdx
