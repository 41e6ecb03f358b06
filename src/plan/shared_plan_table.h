// SharedPlanTable: the thread-safe, publish-once compiled-plan table for
// overlay serving.
//
// PlanCache (plan_cache.h) is per-job and unsynchronized. That was the
// right shape while every parallel unit owned a private Universe, but
// overlays share ONE read-only base across all the shards of a fan-out
// (certain/member_enum.cc) and all the requests of a preloaded server
// snapshot (tools/ocdxd.cc). The queries those
// units run are the same handful of formulas against the same schema
// fingerprint — so the compiled plans are shareable too, and compiling
// them once per shard/request (one fresh cache per unit) was pure waste
// that also distorted the cache-hit statistics.
//
// A SharedPlanTable is an append-only set of CompiledQueryPtr entries
// with the same identity key as PlanCache (formula owner identity,
// schema fingerprint, engine mode, boolean/answers convention,
// order/prebound):
//
//   - *Probe* is lock-free: published entries are scanned through a
//     release/acquire-published count, so the fan-out / request hot path
//     never takes the mutex after first compile.
//   - *Compile* is mutex-serialized with a double-checked re-probe, so a
//     query is compiled exactly once per table lifetime no matter how
//     many shards race to first use.
//   - Entries are never evicted (the table is capacity-bounded and sized
//     for "every distinct query of one workload"; past capacity it
//     compiles without publishing — correct, just not shared).
//
// \invariant A published CompiledQueryPtr is immutable (see
//   compiled_query.h) and its slot is written exactly once, before the
//   count_ release-store that makes it visible — so concurrent probes
//   are data-race-free and a hit is always safe to execute on any
//   thread.
// \invariant The table must outlive every EngineContext that points at
//   it (EngineContext::shared_plans is non-owning).

#ifndef OCDX_PLAN_SHARED_PLAN_TABLE_H_
#define OCDX_PLAN_SHARED_PLAN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>

#include "plan/plan_cache.h"

namespace ocdx {
namespace plan {

class SharedPlanTable {
 public:
  /// Default capacity: far above any real workload's distinct-query
  /// count (the corpus peaks at a few dozen), small enough that the
  /// linear probe stays cheap.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit SharedPlanTable(size_t capacity = kDefaultCapacity);
  SharedPlanTable(const SharedPlanTable&) = delete;
  SharedPlanTable& operator=(const SharedPlanTable&) = delete;

  /// The shared-path compilation funnel: lock-free probe, then
  /// mutex-serialized compile-once on miss (double-checked). Maintains
  /// ctx.stats shared_plan_hits / shared_plan_misses plus the usual
  /// compile-side counters and the plan-compile span — stats and trace
  /// sinks in `ctx` stay thread-private to the calling shard/request.
  /// `schema_key` is the caller's already-computed fingerprint (0 for
  /// generic-forced compiles), so the key agrees with plan::GetOrCompile.
  CompiledQueryPtr GetOrCompile(const CompileRequest& req,
                                const Instance& inst, JoinEngineMode engine,
                                bool force_generic, uint64_t schema_key,
                                const EngineContext& ctx);

  /// Publishes every entry of a per-job cache that is not already
  /// present — a fan-out seeds its table from the caller's cache so
  /// plans compiled by *earlier* fan-outs of the same job are shared,
  /// not recompiled.
  void SeedFromCache(const PlanCache& cache);

  /// Copies every entry into `cache` via InsertIfAbsent (no counter
  /// traffic) — the fan-out's parting gift back to the caller's per-job
  /// cache, keeping repeated fan-outs compile-once across the job.
  void ExportTo(PlanCache* cache) const;

  /// Published entries (acquire; safe from any thread).
  size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  /// Lock-free scan of the published prefix; nullptr on miss.
  const CompiledQueryPtr* Probe(const FormulaPtr& formula, uint64_t schema_key,
                                JoinEngineMode engine, bool boolean_mode,
                                const std::vector<std::string>& order,
                                const std::set<std::string>& prebound) const;

  /// Appends under mutex_ if absent and capacity allows. Callers hold
  /// mutex_.
  void PublishLocked(const CompiledQueryPtr& compiled);

  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Stable addresses for published pointers (deque never relocates).
  std::deque<CompiledQueryPtr> owners_;
  /// slots_[i] points into owners_; written once (under mutex_) before
  /// the count_ release-store that publishes index i.
  std::vector<const CompiledQueryPtr*> slots_;
  std::atomic<size_t> count_{0};
};

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_SHARED_PLAN_TABLE_H_
