// Randomized parity tests for the indexed evaluation engine: the
// slot-compiled, hash-indexed join plans (TryEvalCQ), the indexed
// homomorphism search, and the indexed RepA search must be
// observationally identical to the preserved naive implementations and —
// for CQ evaluation — to the generic active-domain evaluator. Also pins
// the HomSearch step-accounting contract: max_steps counts index probes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "plan/shared_plan_table.h"
#include "semantics/homomorphism.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "util/rng.h"
#include "workloads/scenarios.h"
#include "workloads/tripartite.h"

namespace ocdx {
namespace {

// ---------------------------------------------------------------------------
// Generated-CQ parity over the conference / tripartite workload instances.
// ---------------------------------------------------------------------------

// Builds a random conjunction of atoms (plus an occasional equality) over
// the instance's schema. All variables are free, so the query is safe.
FormulaPtr RandomCq(const Instance& inst, Rng* rng,
                    std::vector<std::string>* order) {
  static const std::vector<std::string> kPool = {"x", "y", "z", "w"};
  std::vector<std::pair<std::string, size_t>> rels;
  for (const auto& [name, rel] : inst.relations()) {
    rels.push_back({name, rel.arity()});
  }
  std::vector<FormulaPtr> conj;
  std::set<std::string> used;
  size_t natoms = 1 + rng->Below(3);
  for (size_t i = 0; i < natoms; ++i) {
    const auto& [name, arity] = rels[rng->Below(rels.size())];
    std::vector<Term> terms;
    for (size_t p = 0; p < arity; ++p) {
      const std::string& v = kPool[rng->Below(kPool.size())];
      used.insert(v);
      terms.push_back(Term::Var(v));
    }
    conj.push_back(Formula::Atom(name, std::move(terms)));
  }
  if (used.size() >= 2 && rng->Below(3) == 0) {
    auto it = used.begin();
    const std::string a = *it++;
    const std::string b = *it;
    conj.push_back(Formula::Eq(Term::Var(a), Term::Var(b)));
  }
  order->assign(used.begin(), used.end());
  return Formula::And(std::move(conj));
}

class CqEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(CqEngineParity, IndexedNaiveAndGenericAgree) {
  Rng rng(911 + GetParam());
  Universe u;
  // Two workload instances: a small conference source and a tripartite
  // reduction target (which mixes several relations and constants).
  Result<ConferenceScenario> conf = BuildConferenceScenario(5, 2, &u);
  ASSERT_TRUE(conf.ok());
  TripartiteInstance tri = TripartiteWithMatching(3, 2, &rng);
  Result<TripartiteReduction> red = BuildTripartiteReduction(tri, &u);
  ASSERT_TRUE(red.ok());

  for (const Instance* inst :
       {&conf.value().source, &red.value().source, &red.value().target}) {
    for (int q = 0; q < 8; ++q) {
      std::vector<std::string> order;
      FormulaPtr f = RandomCq(*inst, &rng, &order);
      if (order.empty()) continue;

      std::optional<Relation> fast = TryEvalCQ(f, order, *inst);
      ASSERT_TRUE(fast.has_value());
      std::optional<Relation> naive = TryEvalCQNaive(f, order, *inst);
      ASSERT_TRUE(naive.has_value());
      EXPECT_TRUE(*fast == *naive) << "seed " << GetParam() << " query " << q;

      Evaluator ev(*inst, u, EngineContext::ForMode(JoinEngineMode::kGeneric));
      Result<Relation> slow = ev.Answers(f, order);
      ASSERT_TRUE(slow.ok());
      EXPECT_TRUE(*fast == slow.value())
          << "seed " << GetParam() << " query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CqEngineParity, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Homomorphism parity: indexed vs naive vs brute force.
// ---------------------------------------------------------------------------

// Exhaustive reference: does any map Null(a) -> Null(b) send every proper
// tuple of `a` (annotation preserved) into `b`, with a's markers in b?
bool BruteForceHomExists(const AnnotatedInstance& a,
                         const AnnotatedInstance& b) {
  std::vector<Value> a_nulls = a.Nulls();
  std::vector<Value> b_nulls = b.Nulls();
  for (const auto& [name, rel] : a.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      if (!t.IsEmptyMarker()) continue;
      const AnnotatedRelation* brel = b.Find(name);
      if (brel == nullptr || !brel->Contains(t)) return false;
    }
  }
  if (a_nulls.empty()) {
    NullMap id;
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker()) continue;
        const AnnotatedRelation* brel = b.Find(name);
        if (brel == nullptr ||
            !brel->Contains(AnnotatedTuple(id.Apply(t.values), t.ann))) {
          return false;
        }
      }
    }
    return true;
  }
  if (b_nulls.empty()) b_nulls.push_back(a_nulls[0]);  // Doomed but total.
  std::vector<size_t> choice(a_nulls.size(), 0);
  while (true) {
    NullMap h;
    for (size_t i = 0; i < a_nulls.size(); ++i) {
      h.Set(a_nulls[i], b_nulls[choice[i]]);
    }
    bool ok = true;
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker() || !ok) continue;
        const AnnotatedRelation* brel = b.Find(name);
        if (brel == nullptr ||
            !brel->Contains(AnnotatedTuple(h.Apply(t.values), t.ann))) {
          ok = false;
        }
      }
    }
    if (ok) return true;
    size_t p = 0;
    while (p < choice.size() && ++choice[p] == b_nulls.size()) {
      choice[p++] = 0;
    }
    if (p == choice.size()) return false;
  }
}

AnnotatedInstance RandomAnnotated(Universe* u, Rng* rng,
                                  const std::vector<Value>& nulls,
                                  size_t tuples) {
  AnnotatedInstance out;
  for (size_t i = 0; i < tuples; ++i) {
    Tuple t;
    for (int p = 0; p < 2; ++p) {
      if (rng->Below(3) == 0) {
        t.push_back(u->Const(std::string(1, 'a' + (char)rng->Below(3))));
      } else {
        t.push_back(nulls[rng->Below(nulls.size())]);
      }
    }
    AnnVec ann = rng->Below(2) == 0 ? AllOpen(2) : AllClosed(2);
    out.Add("R", std::move(t), std::move(ann));
  }
  return out;
}

class HomEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(HomEngineParity, IndexedAgreesWithNaiveAndBruteForce) {
  Universe u;
  Rng rng(1234 + GetParam());
  std::vector<Value> a_nulls, b_nulls;
  for (int i = 0; i < 3; ++i) a_nulls.push_back(u.FreshNull());
  for (int i = 0; i < 3; ++i) b_nulls.push_back(u.FreshNull());
  AnnotatedInstance a = RandomAnnotated(&u, &rng, a_nulls, 2 + rng.Below(3));
  AnnotatedInstance b = RandomAnnotated(&u, &rng, b_nulls, 2 + rng.Below(4));

  Result<std::optional<NullMap>> indexed = FindHomomorphism(a, b);
  ASSERT_TRUE(indexed.ok());
  Result<std::optional<NullMap>> naive = FindHomomorphism(
      a, b, {}, EngineContext::ForMode(JoinEngineMode::kNaive));
  ASSERT_TRUE(naive.ok());
  bool brute = BruteForceHomExists(a, b);

  EXPECT_EQ(indexed.value().has_value(), brute) << "seed " << GetParam();
  EXPECT_EQ(naive.value().has_value(), brute) << "seed " << GetParam();
  // A returned witness must actually be a homomorphism.
  if (indexed.value().has_value()) {
    const NullMap& h = *indexed.value();
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker()) continue;
        const AnnotatedRelation* brel = b.Find(name);
        ASSERT_NE(brel, nullptr);
        EXPECT_TRUE(brel->Contains(AnnotatedTuple(h.Apply(t.values), t.ann)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, HomEngineParity, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// End-to-end parity: chase and solution-space membership across engines.
// ---------------------------------------------------------------------------

TEST(EndToEndParity, ChaseAgreesAcrossEngines) {
  for (JoinEngineMode mode :
       {JoinEngineMode::kNaive, JoinEngineMode::kGeneric}) {
    Universe u1, u2;
    Result<ConferenceScenario> sc1 = BuildConferenceScenario(13, 6, &u1);
    Result<ConferenceScenario> sc2 = BuildConferenceScenario(13, 6, &u2);
    ASSERT_TRUE(sc1.ok() && sc2.ok());
    Result<CanonicalSolution> indexed =
        Chase(sc1.value().mapping, sc1.value().source, &u1);
    ASSERT_TRUE(indexed.ok());
    Result<CanonicalSolution> other =
        Chase(sc2.value().mapping, sc2.value().source, &u2,
              EngineContext::ForMode(mode));
    ASSERT_TRUE(other.ok());
    // Same deterministic firing order in both engines: identical null ids,
    // hence identical annotated instances and trigger counts.
    EXPECT_TRUE(indexed.value().annotated == other.value().annotated);
    EXPECT_EQ(indexed.value().triggers.size(), other.value().triggers.size());
  }
}

TEST(EndToEndParity, MembershipAgreesAcrossEngines) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(77 + seed);
    TripartiteInstance yes = TripartiteWithMatching(3, 2, &rng);
    TripartiteInstance no;
    no.n = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      no.triples.push_back({0, i, i});
      no.triples.push_back({0, i, (i + 1) % 3});
    }
    for (const TripartiteInstance* tri : {&yes, &no}) {
      for (bool all_open : {true, false}) {
        std::vector<bool> members;
        for (JoinEngineMode mode :
             {JoinEngineMode::kIndexed, JoinEngineMode::kNaive,
              JoinEngineMode::kGeneric}) {
          Universe u;
          Result<TripartiteReduction> red =
              BuildTripartiteReduction(*tri, &u);
          ASSERT_TRUE(red.ok());
          Mapping mapping =
              all_open
                  ? red.value().mapping.WithUniformAnnotation(Ann::kOpen)
                  : red.value().mapping;
          Result<MembershipResult> r = InSolutionSpace(
              mapping, red.value().source, red.value().target, &u, {},
              EngineContext::ForMode(mode));
          ASSERT_TRUE(r.ok());
          members.push_back(r.value().member);
        }
        EXPECT_EQ(members[0], members[1]) << "seed " << seed;
        EXPECT_EQ(members[0], members[2]) << "seed " << seed;
      }
    }
  }
}

TEST(EndToEndParity, InRepAAgreesAcrossEngines) {
  for (int seed = 0; seed < 20; ++seed) {
    Universe u;
    Rng rng(4321 + seed);
    std::vector<Value> nulls;
    for (int i = 0; i < 3; ++i) nulls.push_back(u.FreshNull());
    AnnotatedInstance t = RandomAnnotated(&u, &rng, nulls, 2 + rng.Below(3));
    Instance ground;
    for (int i = 0; i < 6; ++i) {
      ground.Add("R", {u.Const(std::string(1, 'a' + (char)rng.Below(3))),
                       u.Const(std::string(1, 'a' + (char)rng.Below(3)))});
    }
    Result<bool> indexed = InRepA(t, ground);
    ASSERT_TRUE(indexed.ok());
    Result<bool> naive =
        InRepA(t, ground, nullptr, {},
               EngineContext::ForMode(JoinEngineMode::kNaive));
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(indexed.value(), naive.value()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Certain-answer parity: the kIndexed/kNaive/kGeneric triangle over the
// certain/ engines (CertainVerdict dispatch + RepA member enumeration),
// not just raw CQ evaluation. Randomizes the mapping's annotations, the
// source, the query, and whether the general (member_enum) engine is
// forced.
// ---------------------------------------------------------------------------

class CertainEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(CertainEngineParity, VerdictsAgreeAcrossEngines) {
  const int seed = GetParam();
  Rng rng(31337 + seed);

  // Random annotation signature for the one STD.
  static const char* kRules[] = {
      "Submissions(x^cl, z^cl) :- Papers(x, y);",
      "Submissions(x^cl, z^op) :- Papers(x, y);",
      "Submissions(x^op, z^op) :- Papers(x, y);",
  };
  const std::string rules = kRules[rng.Below(3)];

  // Random boolean queries spanning the dispatch classes: positive,
  // forall-exists, and general FO (the member_enum path).
  static const char* kQueries[] = {
      "exists p a. Submissions(p, a)",
      "exists p. Submissions(p, 'x0')",
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      "forall p a. Submissions(p, a) -> exists q. Submissions(q, 'x0')",
      "!(exists p. Submissions(p, 'zz'))",
  };

  // One random source, rebuilt identically per engine mode (fresh
  // universes keep null ids deterministic per mode).
  const size_t n_papers = 1 + rng.Below(3);
  const uint64_t src_seed = rng.Next();
  const size_t query_idx = rng.Below(5);
  const bool force_general = rng.Below(2) == 0;

  std::vector<bool> certains;
  std::vector<bool> exhaustives;
  std::vector<std::vector<Tuple>> answer_sets;
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kNaive,
        JoinEngineMode::kGeneric}) {
    Universe u;
    Schema src, tgt;
    src.Add("Papers", {"paper", "title"});
    tgt.Add("Submissions", {"paper", "author"});
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u);
    ASSERT_TRUE(m.ok()) << m.status().ToString();

    Instance s;
    Rng srng(src_seed);
    for (size_t i = 0; i < n_papers; ++i) {
      s.Add("Papers",
            {u.Const("x" + std::to_string(srng.Below(3))),
             u.Const("t" + std::to_string(srng.Below(2)))});
    }

    Result<FormulaPtr> q = ParseFormula(kQueries[query_idx], &u);
    ASSERT_TRUE(q.ok()) << q.status().ToString();

    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m.value(), s, &u,
                                    EngineContext::ForMode(mode));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    CertainOptions opts;
    opts.force_general_engine = force_general;
    // Tight enumeration caps: the caps are identical in every engine
    // mode, so parity is preserved while the kGeneric evaluator stays
    // tractable on all-open annotations.
    opts.enum_options.fresh_pool = 1;
    opts.enum_options.max_extra_tuples = 2;
    opts.enum_options.max_universe = 8;
    opts.enum_options.open_replication_limit = 2;
    opts.enum_options.max_members = 2000;
    Result<CertainVerdict> v = engine.value().IsCertainBoolean(q.value(), opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    certains.push_back(v.value().certain);
    exhaustives.push_back(v.value().exhaustive);

    // Non-boolean certain answers through the same triangle.
    Result<FormulaPtr> qa = ParseFormula("exists a. Submissions(p, a)", &u);
    ASSERT_TRUE(qa.ok());
    Result<Relation> ans =
        engine.value().CertainAnswers(qa.value(), {"p"}, nullptr, opts);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answer_sets.push_back(ans.value().SortedTuples());
  }

  EXPECT_EQ(certains[0], certains[1]) << "seed " << seed;
  EXPECT_EQ(certains[0], certains[2]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[1]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[2]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[1]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[2]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Random, CertainEngineParity, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Plan-cache parity: the cached / uncached / naive triangle over the
// certain/ engines, and the compile-once pin for enumeration workloads
// (PR 5: compile-once query plans).
// ---------------------------------------------------------------------------

struct CacheTriangleLeg {
  JoinEngineMode mode;
  bool cache_opt_out;
};

struct PlanCacheParity : ::testing::TestWithParam<int> {};

TEST_P(PlanCacheParity, CachedUncachedAndNaiveAgree) {
  const int seed = GetParam();
  Rng rng(8080 + seed);
  static const char* kRules[] = {
      "Submissions(x^cl, z^cl) :- Papers(x, y);",
      "Submissions(x^cl, z^op) :- Papers(x, y);",
      "Submissions(x^op, z^op) :- Papers(x, y);",
  };
  static const char* kQueries[] = {
      "exists p a. Submissions(p, a)",
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      "!(exists p. Submissions(p, 'zz'))",
  };
  const std::string rules = kRules[rng.Below(3)];
  const size_t query_idx = rng.Below(3);
  const size_t n_papers = 1 + rng.Below(3);
  const uint64_t src_seed = rng.Next();

  const CacheTriangleLeg legs[] = {
      {JoinEngineMode::kIndexed, /*cache_opt_out=*/false},
      {JoinEngineMode::kIndexed, /*cache_opt_out=*/true},
      {JoinEngineMode::kNaive, /*cache_opt_out=*/false},
  };
  std::vector<bool> certains;
  std::vector<bool> exhaustives;
  std::vector<std::vector<Tuple>> answer_sets;
  for (const CacheTriangleLeg& leg : legs) {
    Universe u;
    Schema src, tgt;
    src.Add("Papers", {"paper", "title"});
    tgt.Add("Submissions", {"paper", "author"});
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u);
    ASSERT_TRUE(m.ok()) << m.status().ToString();

    Instance s;
    Rng srng(src_seed);
    for (size_t i = 0; i < n_papers; ++i) {
      s.Add("Papers",
            {u.Const("x" + std::to_string(srng.Below(3))),
             u.Const("t" + std::to_string(srng.Below(2)))});
    }
    Result<FormulaPtr> q = ParseFormula(kQueries[query_idx], &u);
    ASSERT_TRUE(q.ok());

    EngineContext ctx = EngineContext::ForMode(leg.mode);
    ctx.plan_cache_opt_out = leg.cache_opt_out;
    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m.value(), s, &u, ctx);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    CertainOptions opts;
    opts.enum_options.fresh_pool = 1;
    opts.enum_options.max_extra_tuples = 2;
    opts.enum_options.max_universe = 8;
    opts.enum_options.open_replication_limit = 2;
    opts.enum_options.max_members = 2000;
    Result<CertainVerdict> v = engine.value().IsCertainBoolean(q.value(), opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    certains.push_back(v.value().certain);
    exhaustives.push_back(v.value().exhaustive);

    Result<FormulaPtr> qa = ParseFormula("exists a. Submissions(p, a)", &u);
    ASSERT_TRUE(qa.ok());
    Result<Relation> ans =
        engine.value().CertainAnswers(qa.value(), {"p"}, nullptr, opts);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answer_sets.push_back(ans.value().SortedTuples());
  }
  EXPECT_EQ(certains[0], certains[1]) << "seed " << seed;
  EXPECT_EQ(certains[0], certains[2]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[1]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[2]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[1]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[2]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Random, PlanCacheParity, ::testing::Range(0, 12));

TEST(PlanCacheParity, CompileOncePerQuerySchemaModeOnEnumeration) {
  // The tentpole pin: a member-enumeration workload (CWA valuation
  // enumeration, Thm 3.1) visits many member instances but compiles each
  // query exactly once — O(queries) compilations, not O(members x
  // queries).
  Universe u;
  Schema src, tgt;
  src.Add("Papers", {"paper", "title"});
  tgt.Add("Submissions", {"paper", "author"});
  Result<Mapping> m = ParseMapping(
      "Submissions(x^cl, z^cl) :- Papers(x, y);", src, tgt, &u);
  ASSERT_TRUE(m.ok());
  Instance s;
  for (int i = 0; i < 3; ++i) {
    s.Add("Papers", {u.Const("p" + std::to_string(i)), u.Const("t")});
  }

  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  // Attach the table explicitly (not via EnsureCache) so this pin holds
  // even under the OCDX_PLAN_CACHE=off CI configuration — the test is
  // *about* the table.
  ctx.plan_cache = std::make_shared<plan::SharedPlanTable>();
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m.value(), s, &u, ctx);
  ASSERT_TRUE(engine.ok());

  Result<FormulaPtr> q1 = ParseFormula(
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      &u);
  Result<FormulaPtr> q2 =
      ParseFormula("!(exists p. Submissions(p, 'zz'))", &u);
  ASSERT_TRUE(q1.ok() && q2.ok());

  uint64_t before = stats.plan_compiles;
  Result<CertainVerdict> v1 = engine.value().IsCertainBoolean(q1.value());
  ASSERT_TRUE(v1.ok());
  ASSERT_GT(v1.value().members_checked, 1u)
      << "workload must actually enumerate members";
  // One distinct (query, schema, mode) triple -> one compilation, no
  // matter how many members were visited.
  EXPECT_EQ(stats.plan_compiles - before, 1u);

  // Same query again: the engine-owned cache still has the plan.
  before = stats.plan_compiles;
  ASSERT_TRUE(engine.value().IsCertainBoolean(q1.value()).ok());
  EXPECT_EQ(stats.plan_compiles - before, 0u);

  // A second distinct query adds exactly one triple.
  before = stats.plan_compiles;
  Result<CertainVerdict> v2 = engine.value().IsCertainBoolean(q2.value());
  ASSERT_TRUE(v2.ok());
  ASSERT_GT(v2.value().members_checked, 1u);
  EXPECT_EQ(stats.plan_compiles - before, 1u);
}

// ---------------------------------------------------------------------------
// Step accounting: max_steps covers index probes, not just search nodes.
// ---------------------------------------------------------------------------

TEST(HomBudget, MaxStepsCountsIndexProbes) {
  Universe u;
  AnnotatedInstance a, b;
  a.Add("R", {u.FreshNull(), u.FreshNull()}, AllClosed(2));
  b.Add("R", {u.FreshNull(), u.FreshNull()}, AllClosed(2));

  // Two search nodes suffice for the naive engine (root + leaf)...
  HomOptions tight;
  tight.max_steps = 2;
  {
    Result<std::optional<NullMap>> r = FindHomomorphism(
        a, b, tight, EngineContext::ForMode(JoinEngineMode::kNaive));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().has_value());
  }
  // ...but the indexed engine additionally charges its probe and the
  // probed candidate, so the same budget is exhausted: index work cannot
  // hide from the ResourceExhausted contract.
  {
    Result<std::optional<NullMap>> r = FindHomomorphism(a, b, tight);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  // With an adequate budget the indexed engine finds the same answer.
  HomOptions roomy;
  roomy.max_steps = 100;
  Result<std::optional<NullMap>> r = FindHomomorphism(a, b, roomy);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().has_value());
}

// ---------------------------------------------------------------------------
// Index layer: lazy build and invalidation on Add.
// ---------------------------------------------------------------------------

TEST(PositionIndexTest, ProbeReflectsLaterAdds) {
  Universe u;
  Relation rel(2);
  rel.Add({u.Const("a"), u.Const("b")});
  rel.Add({u.Const("a"), u.Const("c")});

  std::vector<Value> key = {u.Const("a")};
  const std::vector<uint32_t>* ids = rel.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  EXPECT_EQ(ids->size(), 2u);

  // Adding invalidates and rebuilds lazily; the new tuple is visible.
  rel.Add({u.Const("a"), u.Const("d")});
  ids = rel.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  EXPECT_EQ(ids->size(), 3u);

  // A probe on the second position sees exactly the matching tuple.
  std::vector<Value> key2 = {u.Const("d")};
  ids = rel.Probe(0b10, key2);
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->size(), 1u);
  EXPECT_EQ(rel.tuples()[(*ids)[0]][1], u.Const("d"));

  // Missing key: null bucket.
  std::vector<Value> key3 = {u.Const("zzz")};
  EXPECT_EQ(rel.Probe(0b01, key3), nullptr);
}

TEST(PositionIndexTest, AnnotatedProbeFiltersBySignature) {
  Universe u;
  AnnotatedRelation rel(2);
  rel.Add(AnnotatedTuple({u.Const("a"), u.Const("b")}, AllOpen(2)));
  rel.Add(AnnotatedTuple({u.Const("a"), u.Const("b")}, AllClosed(2)));
  rel.Add(AnnotatedTuple::EmptyMarker(AllOpen(2)));

  std::vector<Value> key = {u.Const("a")};
  const std::vector<uint32_t>* open_ids =
      rel.ProbeProper(0b01, key, AllOpen(2));
  ASSERT_NE(open_ids, nullptr);
  ASSERT_EQ(open_ids->size(), 1u);
  EXPECT_TRUE(IsAllOpen(rel.tuples()[(*open_ids)[0]].ann));

  const std::vector<uint32_t>* closed_ids =
      rel.ProbeProper(0b01, key, AllClosed(2));
  ASSERT_NE(closed_ids, nullptr);
  ASSERT_EQ(closed_ids->size(), 1u);
  EXPECT_TRUE(IsAllClosed(rel.tuples()[(*closed_ids)[0]].ann));

  // Annotation-only probe (mask 0) never returns markers.
  const std::vector<uint32_t>* all_open =
      rel.ProbeProper(0, {}, AllOpen(2));
  ASSERT_NE(all_open, nullptr);
  EXPECT_EQ(all_open->size(), 1u);
}

}  // namespace
}  // namespace ocdx
