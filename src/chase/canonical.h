// The chase: building (annotated) canonical solutions.
//
// For a mapping (sigma, tau, Sigma_alpha) and a source instance S, the
// canonical solution CSol(S) [FKMP05] is built by firing every STD on
// every witness of its body: each witness mints a fresh tuple of nulls
// for the STD's existential variables and emits the head atoms. The
// *annotated* canonical solution CSolA(S) (Section 3) additionally tags
// every emitted position with the STD's annotation, and — when a body has
// no witnesses — records the empty annotated tuples (_, alpha) for each
// head atom.
//
// By Theorem 1.4, RepA(CSolA(S)) *is* the semantics of the mapping on S,
// and by Corollary 2 all certain-answer computation reduces to this one
// polynomial-time-computable instance. The chase is therefore the load-
// bearing substrate of the whole library.
//
// The chase runs a plan::CompiledMapping (plan/compiled_mapping.h): the
// mapping is validated and its per-STD analysis done once, so a caller
// that chases one mapping over many instances — composition chases Delta
// over every intermediate J — pays for it once, not per chase.

#ifndef OCDX_CHASE_CANONICAL_H_
#define OCDX_CHASE_CANONICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "mapping/mapping.h"
#include "plan/compiled_mapping.h"
#include "util/status.h"

namespace ocdx {

/// One firing of one STD: the justification shared by the nulls it minted.
///
/// Both refs are relocatable handles into the minting Universe's
/// justification arena (Universe::InternWitness / AllocateWitness;
/// resolve with Universe::WitnessOf) and stay valid for the universe's
/// lifetime — and, being offsets rather than pointers, they survive
/// Universe::Clone and binary snapshotting (src/snap) verbatim.
/// `witness` is the *same* stored copy the trigger's NullInfo
/// justifications reference, so a firing costs one arena append instead
/// of 1 + #existential-variables heap vectors.
struct ChaseTrigger {
  int std_index = -1;
  /// Order of the body's free variables for `witness`: the compiled
  /// STD's plan::CompiledStd::body_vars, shared by every firing of that
  /// STD in every chase with the same CompiledMapping (the chase mints
  /// thousands of triggers, so each one must not copy the names).
  std::shared_ptr<const std::vector<std::string>> var_order;
  /// The satisfying assignment (a-bar, b-bar) of the body.
  WitnessRef witness;
  /// Fresh nulls minted for the STD's existential variables, in
  /// AnnotatedStd::ExistentialVars() order.
  WitnessRef fresh_nulls;
};

/// The result of chasing a source instance with a mapping.
struct CanonicalSolution {
  AnnotatedInstance annotated;  ///< CSolA(S), with empty markers.
  /// All firings, in deterministic order. CWA justifications and the
  /// Skolem F' ~ v correspondence (Lemma 4) both key on these.
  std::vector<ChaseTrigger> triggers;

  /// CSol(S): the plain canonical solution rel(CSolA(S)).
  Instance Plain() const { return annotated.RelPart(); }
};

/// Chases `source` with a compiled mapping (plan::CompileMapping, which
/// rejects Skolemized mappings; use skolem::SolveSkolem for SkSTDs).
/// Fresh nulls are minted in `*universe`. Only `source` is validated
/// here — the mapping was validated when it was compiled — so callers
/// that chase one mapping over many instances (composition's
/// intermediates) compile once and call this per instance.
///
/// Deterministic: STDs fire in order; witnesses fire in sorted Value
/// order, independent of the engine mode in `ctx`.
Result<CanonicalSolution> Chase(
    const plan::CompiledMapping& mapping, const Instance& source,
    Universe* universe, const EngineContext& ctx = EngineContext());

/// Compiles `mapping` (a validation failure is returned as is) and
/// chases with it: for one-off chases.
Result<CanonicalSolution> Chase(
    const Mapping& mapping, const Instance& source, Universe* universe,
    const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_CHASE_CANONICAL_H_
