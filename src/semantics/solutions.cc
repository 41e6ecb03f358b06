#include "semantics/solutions.h"

#include <optional>

#include "logic/cq_eval.h"
#include "logic/evaluator.h"
#include "semantics/homomorphism.h"

namespace ocdx {

Result<bool> SatisfiesStds(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx) {
  OCDX_ASSIGN_OR_RETURN(plan::CompiledMapping compiled,
                        plan::CompileMapping(mapping, ctx));
  return SatisfiesStds(compiled, source, target, universe, ctx);
}

Result<bool> SatisfiesStds(const plan::CompiledMapping& mapping,
                           const Instance& source, const Instance& target,
                           const Universe& universe,
                           const EngineContext& ctx) {
  // No per-call cache setup here: SatisfiesStds is an *inner* step of
  // the enumeration drivers (composition intermediates, membership
  // candidates), which attach one plan cache up front and compile the
  // mapping once (the cache keys on the requirement formulas' identity).
  // With an uncached context each call compiles its plans privately.
  if (!mapping.checks_stds()) {
    return Status::FailedPrecondition(
        "SatisfiesStds needs a mapping compiled with MappingUse::kCheck");
  }
  Evaluator source_eval(source, universe, ctx);
  Evaluator target_eval(target, universe, ctx);
  for (size_t i = 0; i < mapping.stds().size(); ++i) {
    const AnnotatedStd& std_ = mapping.mapping().stds()[i];
    const plan::CompiledStd& cs = mapping.stds()[i];
    const std::vector<std::string>& body_vars = *cs.body_vars;

    Relation answers(body_vars.size());
    std::vector<TupleRef> witnesses;
    if (body_vars.empty()) {
      OCDX_ASSIGN_OR_RETURN(bool holds, source_eval.Holds(std_.body));
      if (holds) witnesses.push_back(TupleRef{});
    } else {
      OCDX_ASSIGN_OR_RETURN(answers,
                            source_eval.AnswersCovered(std_.body, body_vars));
      witnesses.assign(answers.tuples().begin(), answers.tuples().end());
    }
    if (witnesses.empty()) continue;

    // Semijoin form: forall w . T |= psi(w)  iff  the projection of the
    // witnesses onto the requirement's free variables is contained in the
    // requirement's answer set over T — one compiled join plus hashed
    // containment instead of a (re-compiled) Holds call per witness. The
    // naive engine keeps the per-witness loop as the benchable baseline.
    const std::vector<std::string>& req_vars = cs.requirement_vars;
    if (ctx.indexed() && !body_vars.empty() && !req_vars.empty()) {
      std::optional<Relation> req_answers =
          TryEvalCQ(cs.requirement, req_vars, target, ctx);
      if (req_answers.has_value()) {
        Tuple key(req_vars.size());
        for (TupleRef w : witnesses) {
          for (size_t k = 0; k < key.size(); ++k) {
            key[k] = w[cs.requirement_proj[k]];
          }
          if (!req_answers->Contains(key)) return false;
        }
        continue;
      }
    }

    for (TupleRef w : witnesses) {
      Env env;
      for (size_t k = 0; k < body_vars.size(); ++k) env[body_vars[k]] = w[k];
      OCDX_ASSIGN_OR_RETURN(bool ok, target_eval.Holds(cs.requirement, env));
      if (!ok) return false;
    }
  }
  return true;
}

Result<bool> IsOwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx) {
  return SatisfiesStds(mapping, source, target, universe, ctx);
}

Result<bool> IsSigmaAlphaSolutionGiven(const AnnotatedInstance& csola,
                                       const AnnotatedInstance& target,
                                       const EngineContext& ctx) {
  // Proposition 1: T is a Sigma-alpha-solution iff
  //   (1) T is a homomorphic image of CSolA(S) (presolution), and
  //   (2) there is a homomorphism from T into an expansion of CSolA(S).
  OCDX_ASSIGN_OR_RETURN(std::optional<NullMap> onto,
                        FindOntoImage(csola, target, {}, ctx));
  if (!onto.has_value()) return false;
  OCDX_ASSIGN_OR_RETURN(std::optional<NullMap> back,
                        FindExpansionHom(target, csola, {}, ctx));
  return back.has_value();
}

Result<bool> IsSigmaAlphaSolution(const Mapping& mapping,
                                  const Instance& source,
                                  const AnnotatedInstance& target,
                                  Universe* universe,
                                  const EngineContext& ctx) {
  OCDX_ASSIGN_OR_RETURN(CanonicalSolution csol,
                        Chase(mapping, source, universe, ctx));
  return IsSigmaAlphaSolutionGiven(csol.annotated, target, ctx);
}

Result<bool> IsCwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, Universe* universe,
                           const EngineContext& ctx) {
  Mapping closed = mapping.WithUniformAnnotation(Ann::kClosed);
  return IsSigmaAlphaSolution(closed, source, Annotate(target, Ann::kClosed),
                              universe, ctx);
}

}  // namespace ocdx
