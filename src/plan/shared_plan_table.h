// SharedPlanTable: the compiled-plan table (src/plan).
//
// The paper's coNP procedures evaluate a handful of queries over
// thousands of enumerated member instances, so plans compile once and
// rebind per instance (plan::BindQuery). This table is where a compiled
// plan lives between uses. It is the only plan-table type.
//
// Identity-keyed: a lookup matches when (a) the formula is the *same
// shared AST node* (shared_ptr owner identity — exact, because every
// entry's CompiledQuery retains its formula, so a recycled address can
// never alias a dead entry), and (b) the entry's (schema fingerprint,
// engine mode, boolean/answers convention, output order or prebound
// names) all agree. Callers that mint throwaway formulas per call should
// hoist them (see StdRequirements in semantics/solutions.h) so
// identities stay stable.
//
// Append-only and thread-safe:
//   - *Probe* is lock-free: published entries are scanned through a
//     release/acquire-published count, so the hot path never takes the
//     mutex after first compile.
//   - *Compile* is mutex-serialized with a double-checked re-probe, so a
//     key is compiled exactly once per table lifetime no matter how many
//     threads race to first use.
//   - Entries are never evicted. The capacity is sized for "every
//     distinct query of one workload"; past it the table compiles
//     without publishing — correct, just not shared.
//
// Who holds one: a context either owns a table
// (EngineContext::plan_cache, attached by EnsureCache once per job or
// command run and shared by every copy of the context, shard fan-out
// copies included) or borrows one (EngineContext::shared_plans, a
// snapshot bundle's table that outlives many runs). plan::GetOrCompile
// consults exactly one of them.
//
// The OCDX_PLAN_CACHE environment variable ("off", "0" or "false")
// disables caching process-wide: EnsureCache then attaches no table and
// every call compiles privately — the compile-every-time oracle, kept
// as a CI configuration and a debugging escape hatch.
//
// \invariant A published plan is immutable (see compiled_query.h), and
//   its slot in the pre-sized entry array is written exactly once,
//   before the count_ release-store that makes it visible — so
//   concurrent probes are data-race-free and a hit is always safe to
//   execute on any thread.
// \invariant A lent table must outlive every EngineContext that points
//   at it (EngineContext::shared_plans is non-owning).

#ifndef OCDX_PLAN_SHARED_PLAN_TABLE_H_
#define OCDX_PLAN_SHARED_PLAN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "plan/compile.h"
#include "plan/compiled_query.h"

namespace ocdx {
namespace plan {

class SharedPlanTable {
 public:
  /// Far above any real workload's distinct-query count (no corpus or
  /// benchmark file compiles more than 18 plans), small enough that the
  /// linear probe stays cheap.
  static constexpr size_t kCapacity = 1024;

  SharedPlanTable();
  SharedPlanTable(const SharedPlanTable&) = delete;
  SharedPlanTable& operator=(const SharedPlanTable&) = delete;

  /// Returns the plan published under the lookup key — lock-free — or,
  /// on first sight of the key, compiles it once under the mutex
  /// (double-checked) and publishes it. `*hit` reports whether the plan
  /// was already published. A compile runs in ctx's plan-compile span
  /// and counts plan_compiles / guard_depth_fallbacks; the hit/miss
  /// counters are plan::GetOrCompile's, which knows whose table this is.
  CompiledQueryPtr GetOrCompile(const CompileRequest& req,
                                const Instance& inst, JoinEngineMode engine,
                                bool force_generic, uint64_t schema_key,
                                const EngineContext& ctx, bool* hit);

  /// Published entries (acquire; safe from any thread).
  size_t size() const { return count_.load(std::memory_order_acquire); }

  /// False iff OCDX_PLAN_CACHE is "off", "0" or "false" (checked once).
  static bool EnabledByEnv();

 private:
  /// Lock-free scan of the published prefix; nullptr on miss.
  CompiledQueryPtr Probe(const CompileRequest& req, uint64_t schema_key,
                         JoinEngineMode engine) const;

  std::mutex mutex_;
  /// kCapacity slots, never resized. entries_[i] is written once (under
  /// mutex_) before the count_ release-store that publishes index i.
  std::vector<CompiledQueryPtr> entries_;
  std::atomic<size_t> count_{0};
};

/// The one compilation funnel. Consults exactly one table: the
/// context's lent `shared_plans` if set, else its owned `plan_cache`,
/// else none — then every call compiles. Maintains the EngineStats
/// counters: plan_cache_hits/misses for lookups on the context's own
/// table, shared_plan_hits/misses for lookups on a lent one, and
/// plan_compiles / guard_depth_fallbacks for every compile. The schema
/// key is SchemaFingerprint(inst), or 0 for generic-forced compiles (the
/// generic skeleton is schema-independent, so it is shared across
/// schemas).
CompiledQueryPtr GetOrCompile(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, bool force_generic,
                              const EngineContext& ctx);

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_SHARED_PLAN_TABLE_H_
