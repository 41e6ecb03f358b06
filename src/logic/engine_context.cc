#include "logic/engine_context.h"

#include "plan/plan_cache.h"

namespace ocdx {

EngineContext& EngineContext::EnsureCache() {
  if (plan_cache == nullptr && !plan_cache_opt_out &&
      plan::PlanCache::EnabledByEnv()) {
    plan_cache = std::make_shared<plan::PlanCache>();
  }
  return *this;
}

}  // namespace ocdx
