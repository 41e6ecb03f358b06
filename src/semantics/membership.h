// The solution-space recognition problem of Theorem 2: given ground
// instances S and T, is T in [[S]]_{Sigma_alpha}?
//
// By Theorem 1.4, [[S]]_{Sigma_alpha} = RepA(CSolA(S)), so the general
// check chases and runs the NP RepA matcher. When the annotation is
// all-open the problem drops to PTIME (Theorem 2, first item): it
// suffices to check (S, T) |= Sigma directly.

#ifndef OCDX_SEMANTICS_MEMBERSHIP_H_
#define OCDX_SEMANTICS_MEMBERSHIP_H_

#include "base/instance.h"
#include "logic/engine_context.h"
#include "mapping/mapping.h"
#include "plan/compiled_mapping.h"
#include "semantics/repa.h"
#include "util/status.h"

namespace ocdx {

struct MembershipResult {
  bool member = false;
  /// True iff the PTIME all-open path decided the instance (no search).
  bool used_ptime_path = false;
  /// A witnessing valuation when member && !used_ptime_path.
  Valuation witness;
};

/// Is `target` (ground) in [[source]]_{Sigma_alpha}? Takes the compiled
/// mapping (plan::CompileMapping), so deciding many (S, T) pairs against
/// one mapping validates and analyses it once. An all-open mapping is
/// decided by SatisfiesStds, so it must be compiled with
/// plan::MappingUse::kCheck (the default).
Result<MembershipResult> InSolutionSpace(
    const plan::CompiledMapping& mapping, const Instance& source,
    const Instance& target, Universe* universe, RepAOptions options = {},
    const EngineContext& ctx = EngineContext());

/// Compiles `mapping` (a validation failure is returned as is), then
/// decides as above: for one-off checks.
Result<MembershipResult> InSolutionSpace(
    const Mapping& mapping, const Instance& source, const Instance& target,
    Universe* universe, RepAOptions options = {},
    const EngineContext& ctx = EngineContext());

/// As above but with a precomputed CSolA(S) (skips the chase and the
/// all-open fast path; used by benchmarks isolating the search cost).
Result<MembershipResult> InSolutionSpaceGiven(
    const AnnotatedInstance& csola, const Instance& target,
    RepAOptions options = {},
    const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_SEMANTICS_MEMBERSHIP_H_
