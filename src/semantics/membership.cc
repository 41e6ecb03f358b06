#include "semantics/membership.h"

#include "chase/canonical.h"
#include "semantics/solutions.h"

namespace ocdx {

Result<MembershipResult> InSolutionSpace(const Mapping& mapping,
                                         const Instance& source,
                                         const Instance& target,
                                         Universe* universe,
                                         RepAOptions options,
                                         const EngineContext& ctx) {
  OCDX_ASSIGN_OR_RETURN(plan::CompiledMapping compiled,
                        plan::CompileMapping(mapping, ctx));
  return InSolutionSpace(compiled, source, target, universe, options, ctx);
}

Result<MembershipResult> InSolutionSpace(const plan::CompiledMapping& mapping,
                                         const Instance& source,
                                         const Instance& target,
                                         Universe* universe,
                                         RepAOptions options,
                                         const EngineContext& ctx) {
  if (!target.IsGround()) {
    return Status::InvalidArgument(
        "solution-space membership is defined for ground targets");
  }
  MembershipResult out;
  if (mapping.all_open()) {
    // Theorem 2: with the all-open annotation, T in [[S]] iff (S,T) |= Sigma.
    out.used_ptime_path = true;
    OCDX_ASSIGN_OR_RETURN(
        out.member, SatisfiesStds(mapping, source, target, *universe, ctx));
    return out;
  }
  OCDX_ASSIGN_OR_RETURN(CanonicalSolution csol,
                        Chase(mapping, source, universe, ctx));
  return InSolutionSpaceGiven(csol.annotated, target, options, ctx);
}

Result<MembershipResult> InSolutionSpaceGiven(const AnnotatedInstance& csola,
                                              const Instance& target,
                                              RepAOptions options,
                                              const EngineContext& ctx) {
  MembershipResult out;
  OCDX_ASSIGN_OR_RETURN(out.member,
                        InRepA(csola, target, &out.witness, options, ctx));
  return out;
}

}  // namespace ocdx
