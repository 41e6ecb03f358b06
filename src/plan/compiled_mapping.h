// CompiledMapping: the compile-once form of a plain (non-Skolem) mapping.
//
// The paper's procedures apply one mapping to many instances: composition
// membership (Thm 4) chases Delta over every valuation image J of CSol(S),
// and the Theorem 2 membership checks test (S, T) |= Sigma for every
// candidate T. Everything about an STD that does not depend on the
// instance — validation, the body's free variables, the existential
// variables, the head slots and (for callers that check STDs) the
// head-requirement formula — is derived here once, and Chase /
// SatisfiesStds / InSolutionSpace take the result.
// It is the mapping-side sibling of CompiledQuery (compiled_query.h):
// the body queries themselves still compile and bind per instance
// through the plan table, keyed on the body formulas this object shares.
//
// \invariant A CompiledMapping is immutable after CompileMapping returns.
// \invariant It holds no pointers into instances. It refers to the Mapping
//   it was compiled from (whose formula ASTs the plan table keys on), so
//   that Mapping must outlive it and must not change while it is in use.
// \invariant Being immutable, one CompiledMapping may be read
//   concurrently by any number of threads — e.g. the shard visitors of a
//   member enumeration (compose/compose.cc) — without copying.

#ifndef OCDX_PLAN_COMPILED_MAPPING_H_
#define OCDX_PLAN_COMPILED_MAPPING_H_

#include <memory>
#include <string>
#include <vector>

#include "logic/engine_context.h"
#include "logic/formula.h"
#include "mapping/mapping.h"
#include "plan/head_plan.h"
#include "util/status.h"

namespace ocdx {
namespace plan {

/// The instance-independent parts of one STD psi(x-bar, z-bar) :- phi.
struct CompiledStd {
  /// FreeVars(body) in first-occurrence order: the Answers order of the
  /// body, and the var_order every ChaseTrigger of this STD shares.
  std::shared_ptr<const std::vector<std::string>> body_vars;
  /// The existential z-bar, in AnnotatedStd::ExistentialVars() order.
  std::vector<std::string> exist_vars;
  /// One slot list per head atom (plan/head_plan.h).
  std::vector<std::vector<HeadSlot>> head_slots;
  /// The head requirement "exists z-bar . head atoms", which only
  /// SatisfiesStds reads; null unless compiled with MappingUse::kCheck.
  /// Built once, so the identity-keyed plan table compiles it once per
  /// schema.
  FormulaPtr requirement;
  /// FreeVars(requirement), and for each of them its position in
  /// *body_vars (the requirement's free variables are head variables
  /// that are not existential, hence body variables).
  std::vector<std::string> requirement_vars;
  std::vector<size_t> requirement_proj;
};

/// What a CompiledMapping is compiled for. The chase reads only the body
/// variables, existential variables and head slots; the STD check
/// (SatisfiesStds) also needs the requirement fields.
enum class MappingUse { kChase, kCheck };

class CompiledMapping {
 public:
  /// The validated mapping this was compiled from.
  const Mapping& mapping() const { return *mapping_; }
  /// One entry per STD, in mapping().stds() order.
  const std::vector<CompiledStd>& stds() const { return stds_; }
  /// Mapping::IsAllOpen(), computed once.
  bool all_open() const { return all_open_; }
  /// Were the requirement fields built (MappingUse::kCheck)?
  bool checks_stds() const { return use_ == MappingUse::kCheck; }

 private:
  friend Result<CompiledMapping> CompileMapping(const Mapping& mapping,
                                                const EngineContext& ctx,
                                                MappingUse use);
  const Mapping* mapping_ = nullptr;
  std::vector<CompiledStd> stds_;
  bool all_open_ = false;
  MappingUse use_ = MappingUse::kChase;
};

/// Validates `mapping` (Mapping::Validate with allow_functions = false;
/// on failure the same Status is returned) and compiles it for `use`.
/// Counts one EngineStats::mapping_compiles on ctx.stats. The result
/// refers to `mapping`, which must outlive it.
Result<CompiledMapping> CompileMapping(
    const Mapping& mapping, const EngineContext& ctx = EngineContext(),
    MappingUse use = MappingUse::kCheck);
/// A temporary Mapping would dangle in the result.
Result<CompiledMapping> CompileMapping(
    Mapping&& mapping, const EngineContext& ctx = EngineContext(),
    MappingUse use = MappingUse::kCheck) = delete;

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_COMPILED_MAPPING_H_
