#include "plan/compiled_mapping.h"

#include <algorithm>

#include "util/str.h"

namespace ocdx {
namespace plan {

Result<CompiledMapping> CompileMapping(const Mapping& mapping,
                                       const EngineContext& ctx,
                                       MappingUse use) {
  OCDX_RETURN_IF_ERROR(mapping.Validate(/*allow_functions=*/false));
  CompiledMapping out;
  out.mapping_ = &mapping;
  out.all_open_ = mapping.IsAllOpen();
  out.use_ = use;
  out.stds_.reserve(mapping.stds().size());
  for (const AnnotatedStd& std_ : mapping.stds()) {
    CompiledStd cs;
    cs.body_vars =
        std::make_shared<const std::vector<std::string>>(std_.BodyVars());
    cs.exist_vars = std_.ExistentialVars();
    OCDX_ASSIGN_OR_RETURN(
        cs.head_slots,
        CompileHeadPlans(std_.head, *cs.body_vars, cs.exist_vars));
    if (use == MappingUse::kCheck) {
      std::vector<FormulaPtr> atoms;
      atoms.reserve(std_.head.size());
      for (const HeadAtom& atom : std_.head) {
        atoms.push_back(Formula::Atom(atom.rel, atom.terms));
      }
      cs.requirement =
          Formula::Exists(cs.exist_vars, Formula::And(std::move(atoms)));
      cs.requirement_vars = FreeVars(cs.requirement);
      for (const std::string& v : cs.requirement_vars) {
        auto it = std::find(cs.body_vars->begin(), cs.body_vars->end(), v);
        if (it == cs.body_vars->end()) {
          return Status::Internal(StrCat("head variable '", v,
                                         "' is neither a body variable nor "
                                         "existential"));
        }
        cs.requirement_proj.push_back(
            static_cast<size_t>(it - cs.body_vars->begin()));
      }
    }
    out.stds_.push_back(std::move(cs));
  }
  if (ctx.stats != nullptr) ++ctx.stats->mapping_compiles;
  return out;
}

}  // namespace plan
}  // namespace ocdx
