#include "logic/cq_eval.h"

#include <set>

#include "plan/shared_plan_table.h"
#include "plan/runner.h"

namespace ocdx {

std::optional<Relation> TryEvalCQ(const FormulaPtr& f,
                                  const std::vector<std::string>& order,
                                  const Instance& inst,
                                  const EngineContext& ctx) {
  plan::CompileRequest req;
  req.formula = f;
  req.order = order;
  plan::CompiledQueryPtr cq = plan::GetOrCompile(
      req, inst, JoinEngineMode::kIndexed, /*force_generic=*/false, ctx);
  if (cq->kind != plan::PlanKind::kRelational) return std::nullopt;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst, &ctx);
  if (!bound.arity_ok) return std::nullopt;  // Generic reports the error.
  if (ctx.stats != nullptr) ++ctx.stats->cq_plans;
  Relation out(order.size());
  if (!bound.trivially_empty) {
    plan::RunRelational(bound, /*binding=*/nullptr, &out);
  }
  return out;
}

std::optional<Relation> TryEvalCQNaive(const FormulaPtr& f,
                                       const std::vector<std::string>& order,
                                       const Instance& inst,
                                       const EngineContext& ctx) {
  plan::CompileRequest req;
  req.formula = f;
  req.order = order;
  plan::CompiledQueryPtr cq = plan::GetOrCompile(
      req, inst, JoinEngineMode::kNaive, /*force_generic=*/false, ctx);
  if (cq->kind != plan::PlanKind::kShape) return std::nullopt;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst, &ctx);
  if (!bound.arity_ok) return std::nullopt;
  if (ctx.stats != nullptr) ++ctx.stats->cq_plans;
  Relation out(order.size());
  plan::RunShape(bound, order, &out);
  return out;
}

std::optional<bool> TryHoldsCQ(const FormulaPtr& f,
                               const std::map<std::string, Value>& binding,
                               const Instance& inst,
                               const EngineContext& ctx) {
  plan::CompileRequest req;
  req.formula = f;
  req.boolean_mode = true;
  for (const std::string& v : FreeVars(f)) {
    if (binding.find(v) == binding.end()) return std::nullopt;
    req.prebound.insert(v);
  }
  plan::CompiledQueryPtr cq = plan::GetOrCompile(
      req, inst, JoinEngineMode::kIndexed, /*force_generic=*/false, ctx);
  if (cq->kind != plan::PlanKind::kRelational) return std::nullopt;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst, &ctx);
  if (!bound.arity_ok) return std::nullopt;
  if (ctx.stats != nullptr) ++ctx.stats->cq_plans;
  if (bound.trivially_empty) return false;
  return plan::RunRelational(bound, &binding, /*out=*/nullptr);
}

}  // namespace ocdx
