#include "obs/report.h"

#include <cinttypes>
#include <cstdio>

namespace ocdx {
namespace obs {

namespace {

constexpr StatsField kFields[] = {
    {"cq_plans", &EngineStats::cq_plans, false},
    {"generic_evals", &EngineStats::generic_evals, false},
    {"generic_steps", &EngineStats::generic_steps, false},
    {"chase_triggers", &EngineStats::chase_triggers, false},
    {"hom_steps", &EngineStats::hom_steps, false},
    {"repa_steps", &EngineStats::repa_steps, false},
    {"plan_compiles", &EngineStats::plan_compiles, false},
    {"mapping_compiles", &EngineStats::mapping_compiles, false},
    {"plan_cache_hits", &EngineStats::plan_cache_hits, false},
    {"plan_cache_misses", &EngineStats::plan_cache_misses, false},
    {"guard_depth_fallbacks", &EngineStats::guard_depth_fallbacks, false},
    {"chase_budget_trips", &EngineStats::chase_budget_trips, false},
    {"deadline_trips", &EngineStats::deadline_trips, false},
    {"cancelled_jobs", &EngineStats::cancelled_jobs, false},
    {"enum_shard_runs", &EngineStats::enum_shard_runs, false},
    {"enum_shard_tasks", &EngineStats::enum_shard_tasks, false},
    {"enum_shard_stops", &EngineStats::enum_shard_stops, false},
    {"frozen_base_reuses", &EngineStats::frozen_base_reuses, false},
    {"overlay_mints", &EngineStats::overlay_mints, false},
    {"shared_plan_hits", &EngineStats::shared_plan_hits, false},
    {"shared_plan_misses", &EngineStats::shared_plan_misses, false},
    {"parse_ns", &EngineStats::parse_ns, true},
    {"chase_ns", &EngineStats::chase_ns, true},
    {"plan_compile_ns", &EngineStats::plan_compile_ns, true},
    {"plan_bind_ns", &EngineStats::plan_bind_ns, true},
    {"member_enum_ns", &EngineStats::member_enum_ns, true},
    {"enum_shard_ns", &EngineStats::enum_shard_ns, true},
    {"hom_search_ns", &EngineStats::hom_search_ns, true},
    {"repa_search_ns", &EngineStats::repa_search_ns, true},
    {"snap_write_ns", &EngineStats::snap_write_ns, true},
    {"snap_load_ns", &EngineStats::snap_load_ns, true},
    {"job_ns", &EngineStats::job_ns, true},
    {"fanout_setup_ns", &EngineStats::fanout_setup_ns, true},
};

// The report table is pinned to the field manifest: adding an
// EngineStats field without naming it here fails the build (see the
// companion static_assert on sizeof in logic/engine_context.h).
static_assert(sizeof(kFields) / sizeof(kFields[0]) == EngineStats::kU64Fields,
              "EngineStats field added without extending the "
              "src/obs/report.cc field table");

}  // namespace

const StatsField* StatsFields() { return kFields; }

std::string RenderStatsTable(const EngineStats& stats) {
  std::string out = "-- engine stats --\n";
  char line[160];
  for (const StatsField& f : kFields) {
    uint64_t value = stats.*(f.field);
    if (f.is_ns) {
      std::snprintf(line, sizeof(line), "%-22s %14" PRIu64 "  (%.3f ms)\n",
                    f.name, value, static_cast<double>(value) / 1e6);
    } else {
      std::snprintf(line, sizeof(line), "%-22s %14" PRIu64 "\n", f.name,
                    value);
    }
    out += line;
  }
  return out;
}

std::string RenderStatsJson(const EngineStats& stats) {
  std::string out = "{";
  char item[96];
  bool first = true;
  for (const StatsField& f : kFields) {
    std::snprintf(item, sizeof(item), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  f.name, stats.*(f.field));
    out += item;
    first = false;
  }
  out += "}";
  return out;
}

std::optional<double> PlanHitRate(const EngineStats& stats) {
  const uint64_t hits = stats.plan_cache_hits + stats.shared_plan_hits;
  const uint64_t lookups =
      hits + stats.plan_cache_misses + stats.shared_plan_misses;
  if (lookups == 0) return std::nullopt;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

}  // namespace obs
}  // namespace ocdx
