// CompiledQuery: the compile-once, bind-per-instance query plan IR.
//
// Every certain-answer engine in the paper's complexity map — CWA
// valuation enumeration (Thm 3.1), forall*-exists* small-witness search
// (Prop 5), Lemma-2-bounded member search (Thm 3.2) — evaluates the
// *same* query over exponentially many candidate instances. Fusing plan
// compilation with execution (the pre-PR 5 TryEvalCQ) made enumeration
// pay O(members x compile); splitting them makes it O(queries).
//
// A CompiledQuery is produced once per (formula, schema fingerprint,
// engine mode) by plan::CompileQuery (compile.h) and holds one of three
// executable artifacts, chosen at compile time:
//
//   kRelational  slot-compiled, index-driven join plan (indexed engine);
//   kShape       the recognized CQ shape for the naive nested-loop
//                baseline (atom order is still chosen per bind, by
//                relation size, exactly as the historical engine did);
//   kGeneric     the slot-compiled active-domain skeleton (the fallback
//                for non-CQ shapes and the whole plan for kGeneric mode).
//
// Execution is two-phase: plan::BindQuery (runner.h) resolves the plan's
// relation-name table against a concrete Instance — cheap, a handful of
// map lookups — and the runners execute the bound plan. Nothing in this
// header refers to a particular Instance.
//
// \invariant A CompiledQuery is immutable after CompileQuery returns.
//   All evaluation scratch (binding frames, probe keys, per-node
//   quantifier state) lives in the runners, never in the plan, so one
//   plan may be executed concurrently by any number of exec/ workers and
//   reentrantly within one job.
// \invariant `source` retains the compiled formula: every interior
//   pointer in the plan (ShapeAtom::rel/terms, GenericNode::src,
//   GenericTerm::src) points into `*source`, so a CompiledQuery is
//   self-contained — it keeps its formula alive and never dangles, even
//   when a plan-table entry outlives the caller's FormulaPtr.
// \invariant Correctness of a plan does not depend on the instance it
//   was compiled against: relation references are by *name* (resolved at
//   bind time) and BindQuery re-checks arities, falling back to the
//   generic evaluator on mismatch. The compile-time instance only seeds
//   the join-order heuristic (relation sizes), i.e. plan *quality*.

#ifndef OCDX_PLAN_COMPILED_QUERY_H_
#define OCDX_PLAN_COMPILED_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/value.h"
#include "logic/engine_config.h"
#include "logic/formula.h"

namespace ocdx {
namespace plan {

// Indexable positions are addressed by a 64-bit mask; wider atoms fall
// back to the generic evaluator (kGeneric), as they always have.
inline constexpr size_t kMaxPlanArity = 64;

/// A term resolved at compile time: either an interned constant or a
/// dense frame slot. The inner loop never touches variable names.
struct PlanTerm {
  bool is_const = false;
  Value constant;
  int slot = -1;
};

/// One join step: probe the relation (by table slot) on `mask` with the
/// compiled key, then bind / check the remaining positions against the
/// fetched tuple.
struct PlanAtomStep {
  uint32_t rel_slot = 0;  ///< Index into CompiledQuery::relations.
  uint32_t arity = 0;     ///< Expected arity; re-checked at bind time.
  uint64_t mask = 0;      ///< Positions matched via the index.
  std::vector<PlanTerm> key;  ///< One entry per mask bit, ascending.
  std::vector<std::pair<uint32_t, int>> binds;   ///< (position, slot).
  std::vector<std::pair<uint32_t, int>> checks;  ///< Intra-atom repeats.
};

struct PlanEq {
  PlanTerm lhs;
  PlanTerm rhs;
};

/// A compiled anti-join (negated sub-CQ guard). `eqs_after[i]` are
/// checked once guard atom i-1 has bound its slots (index 0: before any
/// guard atom). `guard_id` indexes BoundQuery::guard_active: a guard
/// over a relation that is missing or empty in the bound instance can
/// never match and is skipped at run time (the pre-PR 5 compiler
/// dropped such guards at compile time, which a schema-level compile
/// cannot do).
struct PlanGuard {
  uint32_t guard_id = 0;
  std::vector<PlanAtomStep> atoms;
  std::vector<std::vector<PlanEq>> eqs_after;
};

/// The slot-compiled join plan for the indexed engine.
struct RelationalPlan {
  size_t num_slots = 0;
  std::vector<int> out_slots;  ///< Answers projection.
  /// Boolean-mode seeds: (slot, free-variable name). Values are read
  /// from the caller's binding at *run* time — a compiled plan cannot
  /// bake in binding values, they change per call.
  std::vector<std::pair<int, std::string>> preset_vars;
  std::vector<PlanAtomStep> atoms;
  std::vector<std::vector<PlanEq>> eqs_after;      ///< Size atoms+1.
  std::vector<std::vector<PlanGuard>> guards_after;
  size_t num_guards = 0;
};

// --- The recognized CQ shape (naive engine artifact) ----------------------
// Pointers point into *CompiledQuery::source (kept alive by the plan).

struct ShapeAtom {
  const std::string* rel = nullptr;
  const std::vector<Term>* terms = nullptr;
  uint32_t rel_slot = 0;  ///< Index into CompiledQuery::relations.
};

struct ShapeEq {
  Term lhs;
  Term rhs;
};

/// A negated sub-CQ guard: "!exists z-bar . atoms & equalities". The
/// guard prunes a binding iff the sub-CQ has a match under it.
struct ShapeGuard {
  std::vector<ShapeAtom> atoms;
  std::vector<ShapeEq> equalities;
  std::vector<std::string> free_vars;  ///< Bound outside the guard.
};

struct QueryShape {
  std::vector<ShapeAtom> atoms;
  std::vector<ShapeEq> equalities;
  std::vector<ShapeGuard> guards;
};

// --- The generic active-domain skeleton -----------------------------------

struct GenericTerm {
  Term::Kind kind = Term::Kind::kConst;
  Value constant;             ///< kConst payload.
  int slot = -1;              ///< kVar slot id.
  const Term* src = nullptr;  ///< Name source for kVar / kFunc.
  std::vector<GenericTerm> args;  ///< kFunc arguments.
};

/// One compiled formula node. `id` is a dense pre-order index used by
/// the runner to address per-node scratch (the pre-PR 5 skeleton kept
/// scratch inside the node, which made compiled sentences single-use).
struct GenericNode {
  Formula::Kind kind = Formula::Kind::kTrue;
  const Formula* src = nullptr;  ///< Atom name + error messages.
  uint32_t id = 0;
  int rel_slot = -1;  ///< kAtom: index into CompiledQuery::relations.
  std::vector<GenericTerm> terms;
  std::vector<GenericNode> children;
  std::vector<int> bound_slots;  ///< Quantifier slots.
};

struct GenericPlan {
  GenericNode root;
  /// Variable name -> slot; used to seed bindings at run time.
  std::unordered_map<std::string, int> slots;
  size_t num_slots = 0;
  uint32_t num_nodes = 0;
  /// Answers mode: slots of the output variables, numbered *first* so
  /// they exist even when they do not occur in the formula.
  std::vector<int> out_slots;
};

enum class PlanKind : uint8_t {
  kRelational,  ///< Indexed join plan (relational.has_value()).
  kShape,       ///< Naive-engine shape (shape.has_value()).
  kGeneric,     ///< Active-domain skeleton (generic.has_value()).
};

/// One compiled query. Produced by plan::CompileQuery, published in a
/// plan::SharedPlanTable, bound by plan::BindQuery. See the header comment for
/// the immutability / lifetime invariants.
struct CompiledQuery {
  FormulaPtr source;  ///< Retains the formula all interior pointers use.
  JoinEngineMode engine = JoinEngineMode::kIndexed;
  bool boolean_mode = false;          ///< Holds-style (vs Answers-style).
  std::vector<std::string> order;     ///< Answers-mode output order.
  /// Boolean-mode: the externally bound names it was compiled with
  /// (sorted). Part of the cache key — prebound shapes recognition and
  /// the preset schedule.
  std::vector<std::string> prebound;
  uint64_t schema_key = 0;            ///< Fingerprint it was keyed under.
  PlanKind kind = PlanKind::kGeneric;
  /// Relation-name table shared by all plan forms; BindQuery resolves it
  /// against a concrete instance in one pass.
  std::vector<std::string> relations;
  std::optional<RelationalPlan> relational;
  std::optional<QueryShape> shape;
  std::optional<GenericPlan> generic;
  /// CQ recognition failed because a negated guard body itself contains
  /// a negation (the one-level guard limit). Counted in
  /// EngineStats::guard_depth_fallbacks and surfaced as a positioned
  /// note by the .dx driver.
  bool guard_depth_fallback = false;
};

using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_COMPILED_QUERY_H_
