// Slot-compiled, hash-indexed evaluation of safe conjunctive queries.
//
// The generic active-domain evaluator enumerates |domain|^k bindings; for
// the CQ-shaped formulas that dominate data exchange (rule bodies, OWA
// checks, guard conjunctions) a join over the atoms is exponentially
// cheaper. TryEvalCQ recognizes the safe-CQ shape — an exists-prefix over
// a conjunction of relational atoms, equalities, and *negated sub-CQ
// guards* (anti-joins, e.g. "& !exists r. A(x, r)") — and evaluates it; on
// any other shape it declines and the caller falls back to the generic
// evaluator, so using it is always sound.
//
// These entry points are thin wrappers over the src/plan subsystem:
// plan::CompileQuery produces the immutable, schema-level CompiledQuery
// (slot frames, ordered atom steps, equality/guard schedules) and
// plan::BindQuery rebinds it per instance. When `ctx` carries a plan
// table (EngineContext::plan_cache, or a lent shared_plans) the compile
// happens once per (formula, schema fingerprint, engine mode) — the
// member-enumeration loops call these thousands of times per query and
// pay for compilation exactly once. Without a table every call compiles
// privately.
//
// TryEvalCQNaive preserves the original string-keyed nested-loop-scan
// implementation; it is the reference baseline for parity tests and
// side-by-side benchmarks (see logic/engine_config.h).

#ifndef OCDX_LOGIC_CQ_EVAL_H_
#define OCDX_LOGIC_CQ_EVAL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "logic/formula.h"
#include "util/status.h"

namespace ocdx {

/// Attempts to evaluate `f` over `inst` as a safe conjunctive query with
/// optional negated-CQ guards, using compiled, index-driven join plans.
/// Safety: every output variable and every equality/guard variable must
/// occur in some positive relational atom.
///
/// Returns the answer relation over `order`, or std::nullopt if the
/// formula does not have the supported shape (never an error for shape
/// reasons — the caller falls back). `ctx` supplies the optional plan
/// cache and stats sink; which engine runs is the caller's dispatch.
std::optional<Relation> TryEvalCQ(
    const FormulaPtr& f, const std::vector<std::string>& order,
    const Instance& inst, const EngineContext& ctx = EngineContext());

/// The original backtracking nested-loop implementation, preserved as the
/// naive baseline. Accepts exactly the same shapes as TryEvalCQ and
/// returns identical relations, just slower.
std::optional<Relation> TryEvalCQNaive(
    const FormulaPtr& f, const std::vector<std::string>& order,
    const Instance& inst, const EngineContext& ctx = EngineContext());

/// Boolean variant for sentence/guard checks: is `f` satisfied when its
/// free variables are pre-bound by `binding`? Declines (nullopt) when the
/// shape is unsupported or some free variable of `f` is missing from
/// `binding`. Runs the compiled plan with early exit on the first match.
std::optional<bool> TryHoldsCQ(
    const FormulaPtr& f, const std::map<std::string, Value>& binding,
    const Instance& inst, const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_LOGIC_CQ_EVAL_H_
