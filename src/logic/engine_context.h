// EngineContext: per-job evaluation configuration, threaded explicitly.
//
// Every evaluation path (cq_eval, evaluator, chase, certain, semantics,
// compose, the .dx driver) takes an EngineContext instead of consulting
// process-wide state. A context bundles
//
//   - the join-engine mode (indexed / naive / generic),
//   - default step budgets for the NP search engines (homomorphism and
//     RepA backtracking), applied as a *cap* on per-call options,
//   - an optional per-job statistics sink, and
//   - an optional *plan table* (plan::SharedPlanTable): compiled query
//     plans keyed by (formula identity, schema fingerprint, engine mode),
//     so enumeration workloads — which evaluate one query over thousands
//     of member instances — compile each query exactly once and rebind
//     the immutable plan per instance.
//
// Contexts are small values: copy them freely, one per job. Copies of a
// context *share* its plan table (that is the point: every evaluation a
// job performs sees the same table, shard fan-out included — the table
// is thread-safe). The batch executor (src/exec) gives every file its
// own table and every job its own context and overlay of the file's
// parsed Universe, and runs a file's jobs on one thread. Apart from the
// plan table, nothing a job touches synchronizes; the engine simply never
// shares mutable state across threads (see README.md "Concurrency
// model").

#ifndef OCDX_LOGIC_ENGINE_CONTEXT_H_
#define OCDX_LOGIC_ENGINE_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "logic/budget.h"
#include "logic/engine_config.h"

namespace ocdx {

namespace plan {
class SharedPlanTable;
}  // namespace plan

namespace obs {
class TraceSink;
}  // namespace obs

/// Per-job evaluation counters and phase timers. Plain (unsynchronized)
/// integers: a sink must be owned by exactly one job, like everything
/// else a job touches.
///
/// Every field is a uint64_t — counters count work units, `*_ns` timers
/// accumulate monotonic-clock nanoseconds per engine phase (written by
/// obs::ScopedSpan, src/obs/trace.h). The struct is deliberately a flat
/// bag of uint64_t words: kU64Fields pins the field count (the
/// static_assert below fires when a field is added without updating the
/// manifest), tests/obs_test.cc pins that operator+= merges every word,
/// and src/obs/report.cc pins that the rendering tables name every field.
struct EngineStats {
  uint64_t cq_plans = 0;        ///< CQ join plans run (indexed or naive).
  uint64_t generic_evals = 0;   ///< Active-domain fallback evaluations.
  uint64_t chase_triggers = 0;  ///< STD firings across all chases.
  uint64_t hom_steps = 0;       ///< Homomorphism-search work units.
  uint64_t repa_steps = 0;      ///< RepA-search work units.
  uint64_t plan_compiles = 0;   ///< CompiledQuery constructions (src/plan).
  /// Lookups on the context's own plan table (EngineContext::plan_cache)
  /// served from a published plan.
  uint64_t plan_cache_hits = 0;
  /// Lookups on the context's own plan table that compiled.
  uint64_t plan_cache_misses = 0;
  /// Formulas whose CQ recognition failed *because* a negated guard body
  /// itself contains a negation (the one-level guard limit); these fall
  /// back to the generic evaluator.
  uint64_t guard_depth_fallbacks = 0;
  /// Chase runs stopped by the trigger or fresh-null budget.
  uint64_t chase_budget_trips = 0;
  /// Wall-clock deadline expirations observed by budget gauges.
  uint64_t deadline_trips = 0;
  /// Jobs that ended via the cooperative cancellation flag.
  uint64_t cancelled_jobs = 0;
  /// Member enumerations that actually fanned out (EngineContext::shards
  /// > 1 and the sharded entry point was used).
  uint64_t enum_shard_runs = 0;
  /// Shard tasks executed across all fan-outs (one per shard per run).
  uint64_t enum_shard_tasks = 0;
  /// Fan-outs ended early by the shared stop flag (first success, soft
  /// member cap, a governed trip, or caller cancellation).
  uint64_t enum_shard_stops = 0;
  /// Runs that reused an already parsed base Universe through overlays
  /// instead of parsing their own: one per fan-out, snapshot run
  /// (ocdxd --preload request) or batch job.
  uint64_t frozen_base_reuses = 0;
  /// Copy-on-write overlays minted (Universe::NewOverlay) — one per
  /// shard, snapshot run or batch job.
  uint64_t overlay_mints = 0;
  /// Lookups on a lent plan table (EngineContext::shared_plans, a
  /// snapshot bundle's) served from a published plan — compile-once
  /// across requests.
  uint64_t shared_plan_hits = 0;
  /// Lookups on a lent plan table that compiled (first sight of a query
  /// for that table's lifetime).
  uint64_t shared_plan_misses = 0;

  // Phase timers (monotonic-clock ns, accumulated by obs::ScopedSpan).
  // Wall time on the thread that ran the phase; under shard fan-out the
  // per-shard timers merge like every other field, so a sharded phase can
  // legitimately sum to more than the job's wall clock.
  uint64_t parse_ns = 0;         ///< .dx text -> DxScenario parses.
  uint64_t chase_ns = 0;         ///< Chase() runs (per mapping/instance pair).
  uint64_t plan_compile_ns = 0;  ///< CompiledQuery construction (cache misses).
  uint64_t plan_bind_ns = 0;     ///< Per-instance BindQuery rebinding.
  uint64_t member_enum_ns = 0;   ///< Whole member-enumeration runs.
  uint64_t enum_shard_ns = 0;    ///< Individual shard tasks (sum over shards).
  uint64_t hom_search_ns = 0;    ///< Homomorphism searches.
  uint64_t repa_search_ns = 0;   ///< RepA backtracking searches.
  uint64_t snap_write_ns = 0;    ///< Snapshot build + serialize + write.
  uint64_t snap_load_ns = 0;     ///< Snapshot read + validate + load.
  uint64_t job_ns = 0;           ///< Whole job lifecycles (parse + command).
  uint64_t fanout_setup_ns = 0;  ///< Shard fan-out setup (overlays + ctxs).

  /// Field manifest: the number of uint64_t words in this struct. Update
  /// it when adding a counter or timer — the static_assert below fails
  /// otherwise — and extend operator+= and the src/obs/report.cc field
  /// table in the same change (each is pinned by its own check).
  static constexpr size_t kU64Fields = 31;

  EngineStats& operator+=(const EngineStats& o) {
    cq_plans += o.cq_plans;
    generic_evals += o.generic_evals;
    chase_triggers += o.chase_triggers;
    hom_steps += o.hom_steps;
    repa_steps += o.repa_steps;
    plan_compiles += o.plan_compiles;
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    guard_depth_fallbacks += o.guard_depth_fallbacks;
    chase_budget_trips += o.chase_budget_trips;
    deadline_trips += o.deadline_trips;
    cancelled_jobs += o.cancelled_jobs;
    enum_shard_runs += o.enum_shard_runs;
    enum_shard_tasks += o.enum_shard_tasks;
    enum_shard_stops += o.enum_shard_stops;
    frozen_base_reuses += o.frozen_base_reuses;
    overlay_mints += o.overlay_mints;
    shared_plan_hits += o.shared_plan_hits;
    shared_plan_misses += o.shared_plan_misses;
    parse_ns += o.parse_ns;
    chase_ns += o.chase_ns;
    plan_compile_ns += o.plan_compile_ns;
    plan_bind_ns += o.plan_bind_ns;
    member_enum_ns += o.member_enum_ns;
    enum_shard_ns += o.enum_shard_ns;
    hom_search_ns += o.hom_search_ns;
    repa_search_ns += o.repa_search_ns;
    snap_write_ns += o.snap_write_ns;
    snap_load_ns += o.snap_load_ns;
    job_ns += o.job_ns;
    fanout_setup_ns += o.fanout_setup_ns;
    return *this;
  }
};

static_assert(sizeof(EngineStats) == EngineStats::kU64Fields * sizeof(uint64_t),
              "EngineStats field added without updating the kU64Fields "
              "manifest — also extend operator+= (pinned by "
              "tests/obs_test.cc) and the src/obs/report.cc field table");

/// All engine configuration for one job. Value type; default-constructed
/// means "indexed engine, paper-default budgets, no stats, no plan
/// table" (plans are then compiled per call).
struct EngineContext {
  /// The paper-default NP-search budget (matches the historical
  /// HomOptions / RepAOptions defaults). Kept as an alias of the Budget
  /// constant for existing callers.
  static constexpr uint64_t kDefaultSearchSteps = Budget::kDefaultSearchSteps;

  JoinEngineMode mode = JoinEngineMode::kIndexed;
  /// Resource limits for everything this context evaluates: NP-search
  /// step caps, chase trigger/null caps, member-enumeration caps, the
  /// wall-clock deadline and the cooperative cancellation flag (see
  /// logic/budget.h). Copied with the context like everything else.
  Budget budget;
  /// Optional per-job counters; must not be shared across jobs.
  EngineStats* stats = nullptr;
  /// Optional per-job trace sink (src/obs/trace.h) fed by the same
  /// obs::ScopedSpan instrumentation that accumulates the `*_ns` timers.
  /// Same ownership contract as `stats`: one sink per job, never shared
  /// across threads — shard fan-out (certain/member_enum.cc) gives each
  /// worker shard its own sink and absorbs them in shard order.
  obs::TraceSink* trace = nullptr;
  /// The context's own plan table (src/plan/shared_plan_table.h),
  /// attached by EnsureCache. Shared by every copy of this context,
  /// including the shard contexts of a fan-out; the table is thread-safe.
  /// Lookups on it count plan_cache_hits / plan_cache_misses.
  std::shared_ptr<plan::SharedPlanTable> plan_cache;
  /// When true, EnsureCache attaches nothing and every call compiles
  /// privately. Used by the parity tests' cache-off leg; the
  /// OCDX_PLAN_CACHE=off environment variable has the same effect
  /// process-wide.
  bool plan_cache_opt_out = false;
  /// A lent plan table that outlives this run: a snapshot bundle's, so
  /// every `ocdxd --preload` request (and every `ocdx snapshot run`) on
  /// that bundle compiles each query once. Not owned; the table must
  /// outlive every context that points at it. When set,
  /// plan::GetOrCompile consults it instead of `plan_cache`, and lookups
  /// count shared_plan_hits / shared_plan_misses.
  plan::SharedPlanTable* shared_plans = nullptr;
  /// Intra-job fan-out width for the exponential member-enumeration loops
  /// (certain/member_enum.h): >1 shards each ForEachMember run across a
  /// scoped worker pool, one copy-on-write Universe overlay per shard
  /// over the caller's universe (read-only while they live), all sharing
  /// the caller's plan table, with deterministic shard-ordered merge —
  /// canonical output is byte-identical for every value. 1 (the default,
  /// and any 0) keeps the sequential path. Shard workers run with
  /// shards = 1, so fan-out never nests.
  size_t shards = 1;

  bool indexed() const { return mode == JoinEngineMode::kIndexed; }

  static EngineContext ForMode(JoinEngineMode m) {
    EngineContext ctx;
    ctx.mode = m;
    return ctx;
  }

  /// Attaches a fresh plan table as `plan_cache` if the context has
  /// neither an owned nor a lent one (no-op under `plan_cache_opt_out`
  /// or OCDX_PLAN_CACHE=off). Returns *this. Engine entry points that
  /// evaluate one query over many instances call this on their private
  /// context copy, so callers get compile-once behavior without opting
  /// in.
  EngineContext& EnsureCache();

  /// A context for `m` with a fresh plan table attached (EnsureCache).
  static EngineContext CachedForMode(JoinEngineMode m) {
    EngineContext ctx = ForMode(m);
    ctx.EnsureCache();
    return ctx;
  }
};

}  // namespace ocdx

#endif  // OCDX_LOGIC_ENGINE_CONTEXT_H_
