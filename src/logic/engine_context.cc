#include "logic/engine_context.h"

#include "plan/shared_plan_table.h"

namespace ocdx {

EngineContext& EngineContext::EnsureCache() {
  if (plan_cache == nullptr && shared_plans == nullptr &&
      !plan_cache_opt_out && plan::SharedPlanTable::EnabledByEnv()) {
    plan_cache = std::make_shared<plan::SharedPlanTable>();
  }
  return *this;
}

}  // namespace ocdx
