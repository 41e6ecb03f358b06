#include "certain/certain.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "certain/naive.h"
#include "logic/evaluator.h"
#include "util/str.h"

namespace ocdx {

namespace {

// Saturating left shift for the Lemma-2 2^K factor.
uint64_t SatShift(uint64_t base, size_t k) {
  if (k >= 40) return UINT64_MAX;
  uint64_t factor = uint64_t{1} << k;
  if (base > UINT64_MAX / factor) return UINT64_MAX;
  return base * factor;
}

// Maximum number of open positions of any single annotated tuple,
// counting an all-open marker as fully open (it licenses arbitrary
// tuples) and other markers as inert.
size_t MaxOpenPerTuple(const AnnotatedInstance& t) {
  size_t m = 0;
  for (const auto& [name, rel] : t.relations()) {
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      if (at.IsEmptyMarker()) {
        if (IsAllOpen(at.ann)) m = std::max(m, at.ann.size());
      } else {
        m = std::max(m, CountOpen(at.ann));
      }
    }
  }
  return m;
}

// Number of "open templates" (the K of Lemma 2): proper tuples with at
// least one open position plus all-open markers.
size_t CountOpenTemplates(const AnnotatedInstance& t) {
  size_t k = 0;
  for (const auto& [name, rel] : t.relations()) {
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      if (at.IsEmptyMarker()) {
        if (IsAllOpen(at.ann)) ++k;
      } else if (CountOpen(at.ann) > 0) {
        ++k;
      }
    }
  }
  return k;
}

// Number of leading universal quantifiers (the l of Proposition 5's
// negated query: not-phi is exists^l forall* ...).
size_t LeadingForallCount(const FormulaPtr& q) {
  size_t l = 0;
  const Formula* cur = q.get();
  while (cur->kind() == Formula::Kind::kForall) {
    l += cur->bound().size();
    cur = cur->children()[0].get();
  }
  return l;
}

}  // namespace

Result<CertainAnswerEngine> CertainAnswerEngine::Create(
    const Mapping& mapping, const Instance& source, Universe* universe,
    const EngineContext& ctx) {
  // The engine's private context carries a plan table (unless the caller
  // already attached or lent one, or OCDX_PLAN_CACHE=off): the member-
  // enumeration loops below evaluate each query over thousands of member
  // instances, sequentially or across shards that share the table, and
  // the table is what makes that O(queries) compilations instead of
  // O(members x queries).
  EngineContext engine_ctx = ctx;
  engine_ctx.EnsureCache();
  OCDX_ASSIGN_OR_RETURN(CanonicalSolution csol,
                        Chase(mapping, source, universe, engine_ctx));
  return CertainAnswerEngine(mapping, std::move(csol), universe, engine_ctx);
}

CertainAnswerEngine CertainAnswerEngine::FromCanonical(
    const Mapping& mapping, CanonicalSolution csol, Universe* universe,
    const EngineContext& ctx) {
  // Same table policy as Create: member enumeration re-evaluates each
  // query per member, so the engine wants a plan table regardless of how
  // the canonical solution was obtained.
  EngineContext engine_ctx = ctx;
  engine_ctx.EnsureCache();
  return CertainAnswerEngine(mapping, std::move(csol), universe, engine_ctx);
}

Result<CertainAnswerEngine::Plan> CertainAnswerEngine::MakePlan(
    const FormulaPtr& q, QueryClass cls, const CertainOptions& options) const {
  Plan plan;
  plan.enum_options = options.enum_options;

  if (cls == QueryClass::kPositive || cls == QueryClass::kMonotone) {
    // Proposition 4 (whose proof subsumes Proposition 3): for monotone Q,
    // certain_{Sigma_alpha}(Q, S) = box-Q(CSol(S)) for *every* annotation,
    // i.e. the all-closed reading of the plain canonical solution.
    plan.target = Annotate(csol_.Plain(), Ann::kClosed);
    plan.enum_options.fresh_pool = 0;
    plan.method = "monotone->CWA valuation enumeration (Prop 4)";
    return plan;
  }

  plan.target = csol_.annotated;
  size_t max_open = MaxOpenPerTuple(plan.target);

  if (max_open == 0) {
    plan.enum_options.fresh_pool = 0;
    plan.method = "CWA valuation enumeration (coNP, Thm 3.1)";
    return plan;
  }

  size_t max_arity = 1;
  for (const RelationDecl& d : mapping_.target().decls()) {
    max_arity = std::max(max_arity, d.arity());
  }

  if (cls == QueryClass::kForallExists) {
    // Proposition 5: a counterexample exists within l * arity(tau) extra
    // domain values.
    size_t l = LeadingForallCount(q);
    size_t needed = std::max<size_t>(1, l * max_arity);
    if (needed > plan.enum_options.fresh_pool) {
      plan.bounds_are_proof = false;
    }
    plan.enum_options.fresh_pool =
        std::min(needed, plan.enum_options.fresh_pool);
    plan.method = "forall-exists small-witness search (coNP, Prop 5)";
    return plan;
  }

  // General FO: Lemma 2 bound — (qr + #free + arity(Q)) fresh constants
  // per connection type, with up to 2^K types.
  size_t arity_q = FreeVars(q).size();
  uint64_t per_type =
      static_cast<uint64_t>(QuantifierRank(q)) + 2 * arity_q;
  if (per_type == 0) per_type = 1;
  uint64_t paper_bound = SatShift(per_type, CountOpenTemplates(plan.target));
  if (paper_bound > plan.enum_options.fresh_pool) {
    plan.bounds_are_proof = false;
  }
  plan.enum_options.fresh_pool = static_cast<size_t>(
      std::min<uint64_t>(paper_bound, plan.enum_options.fresh_pool));
  if (max_open == 1) {
    plan.method = "Lemma-2 bounded member search (coNEXPTIME, Thm 3.2)";
  } else {
    plan.method = "bounded member search (#op >= 2: undecidable, Thm 3.3)";
    plan.bounds_are_proof = false;
  }
  return plan;
}

Result<CertainVerdict> CertainAnswerEngine::IsCertain(
    const FormulaPtr& q, const std::vector<std::string>& order, const Tuple& t,
    const CertainOptions& options) {
  if (order.size() != t.size()) {
    return Status::InvalidArgument("output order and tuple sizes differ");
  }
  for (const std::string& v : FreeVars(q)) {
    if (std::find(order.begin(), order.end(), v) == order.end()) {
      return Status::InvalidArgument(
          StrCat("free variable '", v, "' missing from output order"));
    }
  }

  QueryClass cls =
      options.force_general_engine ? QueryClass::kFirstOrder : Classify(q);

  CertainVerdict verdict;

  if (cls == QueryClass::kPositive) {
    // Proposition 3: naive evaluation on the plain canonical solution.
    Instance plain = csol_.Plain();
    Env env;
    for (size_t i = 0; i < order.size(); ++i) env[order[i]] = t[i];
    Evaluator ev(plain, *universe_, ctx_);
    OCDX_ASSIGN_OR_RETURN(bool holds, ev.Holds(q, env));
    // A certain answer must be a ground tuple over the evaluation domain
    // (naive answers range over adom(CSol) and the query's constants).
    std::vector<Value> domain = ev.Domain(q);
    bool in_domain = true;
    for (Value v : t) {
      in_domain = in_domain && v.IsConst() &&
                  std::find(domain.begin(), domain.end(), v) != domain.end();
    }
    verdict.certain = holds && in_domain;
    verdict.exhaustive = true;
    verdict.method = "naive evaluation (PTIME, Prop 3)";
    verdict.members_checked = 1;
    return verdict;
  }

  OCDX_ASSIGN_OR_RETURN(Plan plan, MakePlan(q, cls, options));

  std::vector<Value> fixed = ConstantsIn(q);
  for (Value v : t) fixed.push_back(v);

  RepAMemberEnumerator en(plan.target, fixed, universe_, plan.enum_options,
                          &ctx_);
  // One flag per shard, written only by that shard's visitor (the factory
  // runs serially before the fan-out starts); merged by AND afterwards —
  // order-independent, so the verdict is identical for every shard count.
  struct ShardCheck {
    bool certain = true;
  };
  std::vector<std::unique_ptr<ShardCheck>> checks;
  Status st = en.ForEachMember(
      [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
        checks.push_back(std::make_unique<ShardCheck>());
        ShardCheck* state = checks.back().get();
        const Universe* su = shard.universe;
        const EngineContext* sctx = shard.ctx;
        return [state, su, sctx, &q, &order, &t](
                   const Instance& member) -> Result<bool> {
          Evaluator ev(member, *su, *sctx);
          Env env;
          for (size_t i = 0; i < order.size(); ++i) env[order[i]] = t[i];
          OCDX_ASSIGN_OR_RETURN(bool holds, ev.Holds(q, env));
          if (!holds) {
            state->certain = false;  // Concrete counterexample.
            return false;            // First success: stop every shard.
          }
          return true;
        };
      });
  OCDX_RETURN_IF_ERROR(st);

  bool certain = true;
  for (const auto& check : checks) certain = certain && check->certain;

  verdict.certain = certain;
  verdict.exhaustive =
      certain ? (en.exhausted() && plan.bounds_are_proof) : true;
  verdict.method = plan.method;
  verdict.members_checked = en.members_visited();
  return verdict;
}

Result<CertainVerdict> CertainAnswerEngine::IsCertainBoolean(
    const FormulaPtr& q, const CertainOptions& options) {
  if (!FreeVars(q).empty()) {
    return Status::InvalidArgument(
        "IsCertainBoolean requires a sentence; use IsCertain");
  }
  return IsCertain(q, {}, {}, options);
}

Result<Relation> CertainAnswerEngine::CertainAnswers(
    const FormulaPtr& q, const std::vector<std::string>& order,
    CertainVerdict* verdict, const CertainOptions& options) {
  if (order.empty()) {
    return Status::InvalidArgument(
        "CertainAnswers needs output variables; use IsCertainBoolean for "
        "sentences");
  }
  QueryClass cls =
      options.force_general_engine ? QueryClass::kFirstOrder : Classify(q);

  if (cls == QueryClass::kPositive) {
    OCDX_ASSIGN_OR_RETURN(
        Relation out, NaiveEval(q, order, csol_.Plain(), *universe_, ctx_));
    if (verdict != nullptr) {
      verdict->certain = true;
      verdict->exhaustive = true;
      verdict->method = "naive evaluation (PTIME, Prop 3)";
      verdict->members_checked = 1;
    }
    return out;
  }

  OCDX_ASSIGN_OR_RETURN(Plan plan, MakePlan(q, cls, options));

  // Certain answers can only mention constants present in every member:
  // the constants of rel(CSolA) and of the query.
  std::set<Value> allowed;
  for (Value v : csol_.Plain().ActiveDomain()) {
    if (v.IsConst()) allowed.insert(v);
  }
  for (Value v : ConstantsIn(q)) allowed.insert(v);

  std::vector<Value> fixed = ConstantsIn(q);
  RepAMemberEnumerator en(plan.target, fixed, universe_, plan.enum_options,
                          &ctx_);

  // Each shard intersects the answer sets of the members *it* saw; the
  // merge below intersects across shards, which equals the intersection
  // over all members — intersection is order-independent, so the result
  // is identical for every shard count. A shard whose own intersection
  // empties stops the fan-out early: empty is final (every removal was
  // witnessed by a concrete member), and it forces the merged set empty.
  struct ShardAnswers {
    bool first = true;
    Relation candidates;
    explicit ShardAnswers(size_t arity) : candidates(arity) {}
  };
  std::vector<std::unique_ptr<ShardAnswers>> parts;
  Status st = en.ForEachMember(
      [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
        parts.push_back(std::make_unique<ShardAnswers>(order.size()));
        ShardAnswers* state = parts.back().get();
        const Universe* su = shard.universe;
        const EngineContext* sctx = shard.ctx;
        return [state, su, sctx, &q, &order, &allowed](
                   const Instance& member) -> Result<bool> {
          Evaluator ev(member, *su, *sctx);
          OCDX_ASSIGN_OR_RETURN(Relation ans, ev.Answers(q, order));
          if (state->first) {
            state->first = false;
            // Seed filtered to `allowed`: certain answers are ground
            // tuples over rel(CSolA) + query constants, which also keeps
            // every candidate meaningful outside the shard's scratch
            // universe.
            for (TupleRef t : ans.tuples()) {
              bool ok = true;
              for (Value v : t) ok = ok && allowed.count(v) > 0;
              if (ok) state->candidates.Add(t);
            }
          } else {
            Relation next(order.size());
            for (TupleRef t : state->candidates.tuples()) {
              if (ans.Contains(t)) next.Add(t);
            }
            state->candidates = std::move(next);
          }
          return !state->candidates.empty();
        };
      });
  OCDX_RETURN_IF_ERROR(st);

  // Shard-ordered merge; shards that saw no members contribute nothing.
  Relation candidates(order.size());
  bool seeded = false;
  for (const auto& part : parts) {
    if (part->first) continue;
    if (!seeded) {
      seeded = true;
      for (TupleRef t : part->candidates.tuples()) candidates.Add(t);
    } else {
      Relation next(order.size());
      for (TupleRef t : candidates.tuples()) {
        if (part->candidates.Contains(t)) next.Add(t);
      }
      candidates = std::move(next);
    }
  }

  if (verdict != nullptr) {
    verdict->certain = !candidates.empty();
    verdict->exhaustive = candidates.empty()
                              ? true
                              : (en.exhausted() && plan.bounds_are_proof);
    verdict->method = plan.method;
    verdict->members_checked = en.members_visited();
  }
  return candidates;
}

}  // namespace ocdx
