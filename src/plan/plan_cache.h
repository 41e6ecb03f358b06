// PlanCache: the per-job cache of CompiledQuery plans.
//
// Identity-keyed: a lookup matches when (a) the formula is the *same
// shared AST node* (shared_ptr owner identity — exact, because every
// entry's CompiledQuery retains its formula, so both sides of the
// comparison are always alive and a recycled address can never alias a
// dead entry), and (b) the entry's (schema fingerprint, engine mode,
// boolean/answers convention, output order) all agree. This subsumes
// the PR 2 compiled-sentence cache that lived thread-local in
// logic/evaluator.cc.
//
// The cache is an MRU-ordered bounded list: member-enumeration
// workloads touch a handful of distinct queries, so lookups are a short
// identity scan, not a hash of a formula tree. Entries keep their
// formula (and plan) alive until LRU eviction past kCapacity — callers
// that mint throwaway formulas per call should hoist them (see
// StdRequirements in semantics/solutions.h) so identities stay stable.
//
// \invariant One thread per cache. PlanCache is deliberately
//   unsynchronized, like EngineStats and Universe: a context copy
//   shares the cache, and fan-out code must never hand one cache to
//   units running in parallel (the batch runner gives each file its
//   own; shard fan-out switches to the shared table). The
//   cached CompiledQuery objects themselves are immutable and *are*
//   safe to share across threads; the cache's index is not. When
//   parallel units need to *share* compiled plans (shard fan-out,
//   preloaded snapshot serving), the synchronized sibling is
//   plan::SharedPlanTable (shared_plan_table.h), consulted by
//   GetOrCompile after the private cache misses.
// \invariant The cache never dangles: entries hold the CompiledQuery by
//   shared_ptr, and a CompiledQuery retains its source formula (see
//   compiled_query.h), so a hit is always safe to execute.
//
// The OCDX_PLAN_CACHE environment variable ("off", "0" or "false")
// disables caching process-wide: EngineContext::EnsureCache then
// attaches no cache and every call compiles privately
// — the pre-PR 5 behavior, kept as a CI configuration and a debugging
// escape hatch.

#ifndef OCDX_PLAN_PLAN_CACHE_H_
#define OCDX_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "plan/compile.h"
#include "plan/compiled_query.h"

namespace ocdx {
namespace plan {

class PlanCache {
 public:
  /// This cache's own lookup/insert counters, for callers that hold a
  /// cache but no EngineStats sink (library probes, tests). Scope
  /// differs from EngineStats deliberately: EngineStats aggregates the
  /// whole job — including cache-less private compiles — while these
  /// count only traffic through *this* cache.
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t compiles = 0;  ///< Misses that compiled (== insertions).
  };

  /// Returns the cached plan for the key, or nullptr. Moves a hit to
  /// the MRU position. Boolean-mode entries additionally key on the
  /// prebound name set; answers-mode entries on the output order.
  CompiledQueryPtr Lookup(const FormulaPtr& formula, uint64_t schema_key,
                          JoinEngineMode engine, bool boolean_mode,
                          const std::vector<std::string>& order,
                          const std::set<std::string>& prebound);

  /// Inserts at the MRU position, evicting the LRU entry past capacity.
  void Insert(CompiledQueryPtr compiled);

  /// Inserts at the MRU position unless an entry with the same key is
  /// already cached; touches *no* counters. This is the absorption path
  /// for plans that were compiled elsewhere (a SharedPlanTable, another
  /// fan-out) — counters keep describing only this cache's own lookup
  /// and compile traffic.
  void InsertIfAbsent(CompiledQueryPtr compiled);

  /// The cached entries, MRU first (SharedPlanTable::SeedFromCache).
  const std::vector<CompiledQueryPtr>& entries() const { return entries_; }

  const Counters& counters() const { return counters_; }

  /// False iff OCDX_PLAN_CACHE is "off", "0" or "false" (checked once).
  static bool EnabledByEnv();

 private:
  static constexpr size_t kCapacity = 128;

  /// MRU first; each entry's key is its plan's retained source formula.
  std::vector<CompiledQueryPtr> entries_;
  Counters counters_;
};

/// True iff `q` was compiled for exactly this lookup key: same formula
/// (shared AST owner identity), schema fingerprint, engine mode and
/// boolean/answers convention, plus the mode-specific tail (prebound
/// name set in boolean mode, output order in answers mode). Shared by
/// PlanCache::Lookup and SharedPlanTable's lock-free probe so the two
/// levels can never disagree about what a key is.
bool PlanKeyMatches(const CompiledQuery& q, const FormulaPtr& formula,
                    uint64_t schema_key, JoinEngineMode engine,
                    bool boolean_mode, const std::vector<std::string>& order,
                    const std::set<std::string>& prebound);

/// The one compilation funnel: consults the context's private cache
/// first, then the context's SharedPlanTable (when present — shard
/// fan-out and snapshot serving attach one), and compiles on miss,
/// maintaining the EngineStats counters (plan_compiles,
/// plan_cache_hits/misses, shared_plan_hits/misses,
/// guard_depth_fallbacks). A plan obtained from the shared table is
/// absorbed into the private cache (counter-free InsertIfAbsent) so
/// subsequent lookups stay on the unsynchronized fast path. Without a
/// cache every call compiles privately. The schema key is
/// SchemaFingerprint(inst), or 0 for generic-forced compiles (the
/// generic skeleton is schema-independent, so it is shared across
/// schemas).
CompiledQueryPtr GetOrCompile(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, bool force_generic,
                              const EngineContext& ctx);

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_PLAN_CACHE_H_
