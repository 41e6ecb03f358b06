#include "plan/shared_plan_table.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "obs/trace.h"

namespace ocdx {
namespace plan {

namespace {

// True iff `q` was compiled for exactly this lookup key. Same formula
// means same owner: neither owner_before the other. Both sides are live
// here — the lookup key by definition, the entry's formula because its
// CompiledQuery retains it — so a recycled address can never alias a
// dead formula.
bool PlanKeyMatches(const CompiledQuery& q, const CompileRequest& req,
                    uint64_t schema_key, JoinEngineMode engine) {
  if (q.source.owner_before(req.formula) ||
      req.formula.owner_before(q.source) || q.schema_key != schema_key ||
      q.engine != engine || q.boolean_mode != req.boolean_mode) {
    return false;
  }
  if (!req.boolean_mode) return q.order == req.order;
  // q.prebound is sorted (it came from a std::set), so set equality is a
  // size check plus an in-order scan.
  return q.prebound.size() == req.prebound.size() &&
         std::equal(q.prebound.begin(), q.prebound.end(),
                    req.prebound.begin());
}

CompiledQueryPtr Compile(const CompileRequest& req, const Instance& inst,
                         JoinEngineMode engine, bool force_generic,
                         uint64_t schema_key, const EngineContext& ctx) {
  CompiledQueryPtr fresh;
  {
    obs::ScopedSpan span(ctx, obs::kPhasePlanCompile);
    fresh = CompileQuery(req, inst, engine, force_generic, schema_key);
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->plan_compiles;
    if (fresh->guard_depth_fallback) ++ctx.stats->guard_depth_fallbacks;
  }
  return fresh;
}

}  // namespace

SharedPlanTable::SharedPlanTable() : entries_(kCapacity) {}

CompiledQueryPtr SharedPlanTable::Probe(const CompileRequest& req,
                                        uint64_t schema_key,
                                        JoinEngineMode engine) const {
  // The acquire load synchronizes with the publisher's release store, so
  // every entry below `n` — written before that store, under the mutex —
  // is visible and final. A published entry is never modified again;
  // copying it increments an atomic refcount, which is safe from any
  // thread.
  size_t n = count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (PlanKeyMatches(*entries_[i], req, schema_key, engine)) {
      return entries_[i];
    }
  }
  return nullptr;
}

CompiledQueryPtr SharedPlanTable::GetOrCompile(
    const CompileRequest& req, const Instance& inst, JoinEngineMode engine,
    bool force_generic, uint64_t schema_key, const EngineContext& ctx,
    bool* hit) {
  *hit = true;
  if (CompiledQueryPtr found = Probe(req, schema_key, engine)) return found;
  std::lock_guard<std::mutex> lock(mutex_);
  // Double-check: another thread may have compiled while we waited.
  if (CompiledQueryPtr found = Probe(req, schema_key, engine)) return found;
  *hit = false;
  CompiledQueryPtr fresh =
      Compile(req, inst, engine, force_generic, schema_key, ctx);
  size_t n = count_.load(std::memory_order_relaxed);
  if (n < kCapacity) {  // Full: the caller still gets its plan.
    entries_[n] = fresh;
    count_.store(n + 1, std::memory_order_release);
  }
  return fresh;
}

bool SharedPlanTable::EnabledByEnv() {
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

  const bool lent = ctx.shared_plans != nullptr;
  SharedPlanTable* table = lent ? ctx.shared_plans : ctx.plan_cache.get();
  if (table == nullptr) {
    return Compile(req, inst, engine, force_generic, schema_key, ctx);
  }
  bool hit = false;
  CompiledQueryPtr plan = table->GetOrCompile(req, inst, engine, force_generic,
                                              schema_key, ctx, &hit);
  if (EngineStats* stats = ctx.stats) {
    if (lent) {
      ++(hit ? stats->shared_plan_hits : stats->shared_plan_misses);
    } else {
      ++(hit ? stats->plan_cache_hits : stats->plan_cache_misses);
    }
  }
  return plan;
}

}  // namespace plan
}  // namespace ocdx
