#include "plan/plan_cache.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "obs/trace.h"
#include "plan/shared_plan_table.h"

namespace ocdx {
namespace plan {

namespace {

// Same owner <=> neither owner_before the other (shared_ptr identity).
// Both sides are live here — the lookup key by definition, the entry's
// formula because its CompiledQuery retains it — so this is exact: a
// recycled address can never alias a dead formula.
bool SameFormula(const FormulaPtr& a, const FormulaPtr& b) {
  return !a.owner_before(b) && !b.owner_before(a);
}

}  // namespace

bool PlanKeyMatches(const CompiledQuery& q, const FormulaPtr& formula,
                    uint64_t schema_key, JoinEngineMode engine,
                    bool boolean_mode, const std::vector<std::string>& order,
                    const std::set<std::string>& prebound) {
  // q.prebound is sorted (it came from a std::set), so set equality is a
  // size check plus an in-order scan.
  auto prebound_eq = [&prebound](const std::vector<std::string>& have) {
    return have.size() == prebound.size() &&
           std::equal(have.begin(), have.end(), prebound.begin());
  };
  return SameFormula(q.source, formula) && q.schema_key == schema_key &&
         q.engine == engine && q.boolean_mode == boolean_mode &&
         (boolean_mode ? prebound_eq(q.prebound) : q.order == order);
}

CompiledQueryPtr PlanCache::Lookup(const FormulaPtr& formula,
                                   uint64_t schema_key, JoinEngineMode engine,
                                   bool boolean_mode,
                                   const std::vector<std::string>& order,
                                   const std::set<std::string>& prebound) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (PlanKeyMatches(*entries_[i], formula, schema_key, engine, boolean_mode,
                       order, prebound)) {
      CompiledQueryPtr hit = entries_[i];
      if (i != 0) {
        std::rotate(entries_.begin(),
                    entries_.begin() + static_cast<ptrdiff_t>(i),
                    entries_.begin() + static_cast<ptrdiff_t>(i) + 1);
      }
      ++counters_.hits;
      return hit;
    }
  }
  ++counters_.misses;
  return nullptr;
}

void PlanCache::Insert(CompiledQueryPtr compiled) {
  ++counters_.compiles;
  entries_.insert(entries_.begin(), std::move(compiled));
  if (entries_.size() > kCapacity) entries_.pop_back();
}

void PlanCache::InsertIfAbsent(CompiledQueryPtr compiled) {
  const CompiledQuery& q = *compiled;
  // The entry's own key fields reconstruct its lookup key exactly
  // (prebound is sorted, see compiled_query.h).
  std::set<std::string> prebound(q.prebound.begin(), q.prebound.end());
  for (const CompiledQueryPtr& e : entries_) {
    if (PlanKeyMatches(*e, q.source, q.schema_key, q.engine, q.boolean_mode,
                       q.order, prebound)) {
      return;
    }
  }
  entries_.insert(entries_.begin(), std::move(compiled));
  if (entries_.size() > kCapacity) entries_.pop_back();
}

bool PlanCache::EnabledByEnv() {
  static const bool enabled = [] {
    const char* v = std::getenv("OCDX_PLAN_CACHE");
    if (v == nullptr) return true;
    std::string_view s(v);
    // "false" included defensively: YAML pipelines that forget to quote
    // `off` export the boolean's string form.
    return !(s == "off" || s == "OFF" || s == "0" || s == "false" ||
             s == "FALSE");
  }();
  return enabled;
}

CompiledQueryPtr GetOrCompile(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, bool force_generic,
                              const EngineContext& ctx) {
  const bool generic_only = force_generic || engine == JoinEngineMode::kGeneric;
  const uint64_t schema_key = generic_only ? 0 : SchemaFingerprint(inst);

  if (ctx.plan_cache != nullptr) {
    CompiledQueryPtr hit = ctx.plan_cache->Lookup(
        req.formula, schema_key, engine, req.boolean_mode, req.order,
        req.prebound);
    if (hit != nullptr) {
      if (ctx.stats != nullptr) ++ctx.stats->plan_cache_hits;
      return hit;
    }
    if (ctx.stats != nullptr) ++ctx.stats->plan_cache_misses;
  }

  // Second level: the shared, thread-safe table attached by overlay
  // consumers (shard fan-out, preloaded snapshot serving). It owns the
  // compile-once discipline across threads; a plan it returns is
  // absorbed into the private cache so the next lookup stays on the
  // unsynchronized fast path.
  if (ctx.shared_plans != nullptr) {
    CompiledQueryPtr shared = ctx.shared_plans->GetOrCompile(
        req, inst, engine, force_generic, schema_key, ctx);
    if (ctx.plan_cache != nullptr) ctx.plan_cache->InsertIfAbsent(shared);
    return shared;
  }

  CompiledQueryPtr fresh;
  {
    obs::ScopedSpan span(ctx, obs::kPhasePlanCompile);
    fresh = CompileQuery(req, inst, engine, force_generic, schema_key);
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->plan_compiles;
    if (fresh->guard_depth_fallback) ++ctx.stats->guard_depth_fallbacks;
  }
  if (ctx.plan_cache != nullptr) ctx.plan_cache->Insert(fresh);
  return fresh;
}

}  // namespace plan
}  // namespace ocdx
