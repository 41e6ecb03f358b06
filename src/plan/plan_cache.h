// plan::PlanCache: a second name for plan::SharedPlanTable.
//
// SharedPlanTable (shared_plan_table.h) is the only plan-table type. The
// traced benchmark replay (ocdxbench/native/replay.cc) still includes
// this header and calls plan::PlanCache::EnabledByEnv(); that is the
// alias's only reason to exist. New code names SharedPlanTable.

#ifndef OCDX_PLAN_PLAN_CACHE_H_
#define OCDX_PLAN_PLAN_CACHE_H_

#include "plan/shared_plan_table.h"

namespace ocdx {
namespace plan {

using PlanCache = SharedPlanTable;  // For ocdxbench/native/replay.cc only.

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_PLAN_CACHE_H_
