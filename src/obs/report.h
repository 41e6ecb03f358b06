// Rendering EngineStats for humans and machines.
//
// The field table here is the third link in the merge-completeness pin
// (see logic/engine_context.h): a static_assert in report.cc fails the
// build when EngineStats grows a field the table does not name, so
// every counter and timer that exists is also visible in --stats
// output, --stats-json files, the bench records and the ocdxd `stats`
// aggregate.

#ifndef OCDX_OBS_REPORT_H_
#define OCDX_OBS_REPORT_H_

#include <optional>
#include <string>

#include "logic/engine_context.h"

namespace ocdx {
namespace obs {

/// One EngineStats field: wire/report name, member pointer, and whether
/// the value is a nanosecond timer (rendered with a human ms column in
/// the table; raw u64 everywhere else).
struct StatsField {
  const char* name;
  uint64_t EngineStats::*field;
  bool is_ns;
};

/// The complete manifest, in declaration order. Exactly
/// EngineStats::kU64Fields entries (statically asserted).
const StatsField* StatsFields();

/// Human-readable table, one field per line, every field always printed
/// (stderr material — never mixed into canonical stdout).
std::string RenderStatsTable(const EngineStats& stats);

/// Compact JSON object {"cq_plans":N,...} with every field in manifest
/// order, raw u64 values. Used by --stats-json, the bench records and
/// the ocdxd `stats` aggregate.
std::string RenderStatsJson(const EngineStats& stats);

/// Plan-table hits over lookups, summed over both counter pairs: the
/// context's own table (plan_cache_*) and lent ones (shared_plan_*).
/// nullopt when nothing was looked up.
std::optional<double> PlanHitRate(const EngineStats& stats);

}  // namespace obs
}  // namespace ocdx

#endif  // OCDX_OBS_REPORT_H_
