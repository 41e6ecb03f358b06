#include "certain/member_enum.h"

#include <memory>
#include <set>
#include <utility>

#include "exec/pool.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "util/combinatorics.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {

RepAMemberEnumerator::RepAMemberEnumerator(const AnnotatedInstance& t,
                                           const std::vector<Value>& fixed,
                                           Universe* universe,
                                           MemberEnumOptions options,
                                           const EngineContext* ctx)
    : t_(t), universe_(universe), options_(options), ctx_(ctx) {
  std::set<Value> f(fixed.begin(), fixed.end());
  for (Value v : t_.ActiveDomain()) {
    if (v.IsConst()) f.insert(v);
  }
  fixed_.assign(f.begin(), f.end());

  // Fresh-pool names, computed once. Every constant that can appear in a
  // member is either in fixed_ (instance + caller constants) or minted
  // with the reserved "#f" prefix (iso_enum.h), so skipping the names of
  // fixed_ guarantees the pool is genuinely fresh — a scenario constant
  // literally named "#e0" used to alias into the pool and make the
  // enumeration unsound.
  std::set<std::string> occupied;
  for (Value c : fixed_) occupied.insert(universe_->Describe(c));
  fresh_names_.reserve(options_.fresh_pool);
  for (size_t i = 0; fresh_names_.size() < options_.fresh_pool; ++i) {
    std::string name = StrCat("#e", i);
    if (occupied.count(name) > 0) continue;
    fresh_names_.push_back(std::move(name));
  }
}

// One shard's walk over its slice of the valuation space (global
// valuation index ≡ shard.index mod shard.count). Everything mutable is
// shard-local: `shard.universe` owns every value the shard mints, the
// gauge runs over the shard context's budget (whose `cancel` is the
// fan-out's shared stop flag), and the only cross-shard writes are the
// three atomics. `t_`, `fixed_` and `fresh_names_` are shared read-only.
void RepAMemberEnumerator::RunShard(const MemberShard& shard,
                                    const ShardMemberFn& fn,
                                    std::atomic<bool>* stop,
                                    std::atomic<uint64_t>* total_members,
                                    ShardOutcome* out) const {
  obs::ScopedSpan span(shard.ctx != nullptr ? shard.ctx->stats : nullptr,
                       shard.ctx != nullptr ? shard.ctx->trace : nullptr,
                       obs::kPhaseEnumShard);
  Universe* universe = shard.universe;
  const Budget no_budget;
  const Budget& budget = shard.ctx != nullptr ? shard.ctx->budget : no_budget;
  BudgetGauge gauge(budget, shard.ctx != nullptr ? shard.ctx->stats : nullptr);
  // The *caller's* cooperative flag. Under fan-out the shard budget's
  // `cancel` is the internal stop flag, so genuine caller cancellation
  // must be folded in explicitly (and is distinguishable at merge time:
  // a kCancelled trip is surfaced only when the caller really cancelled).
  const std::atomic<bool>* parent_cancel =
      ctx_ != nullptr ? ctx_->budget.cancel : nullptr;
  const bool fanned_out = shard.count > 1;

  auto parent_cancelled = [&] {
    return fanned_out && parent_cancel != nullptr &&
           parent_cancel->load(std::memory_order_relaxed);
  };

  std::vector<Value> nulls = t_.Nulls();
  ValuationEnumerator valuations(nulls, fixed_, universe);
  Valuation v;
  uint64_t vindex = UINT64_MAX;
  while (valuations.Next(&v)) {
    ++vindex;
    if (vindex % shard.count != shard.index) continue;
    // Stopped by a peer shard: leave quietly (no terminal event of our
    // own); the shard that raised the flag recorded the cause.
    if (stop->load(std::memory_order_acquire)) return;
    if (parent_cancelled()) {
      out->event = ShardOutcome::Event::kTrip;
      out->event_index = vindex;
      out->trip = Status::Cancelled("evaluation cancelled");
      stop->store(true, std::memory_order_release);
      return;
    }
    // Governance (logic/budget.h): the budget's max_members is a *hard*
    // cap — tripping it is a kResourceExhausted error, unlike the soft
    // options_.max_members bound, which quietly marks the run
    // non-exhaustive. The gauge bounds wall time; the "enum" probe is the
    // fault-injection site for this layer.
    Status governed = fault::Probe("enum");
    if (governed.ok()) governed = gauge.Poll();
    if (!governed.ok()) {
      out->event = ShardOutcome::Event::kTrip;
      out->event_index = vindex;
      out->trip = std::move(governed);
      stop->store(true, std::memory_order_release);
      return;
    }
    // Base member: v(rel(T)).
    Instance base = v.ApplyRelPart(t_);
    // Make sure every relation of T exists in the member (including ones
    // populated only by markers): queries distinguish empty from absent
    // only through our Instance equality, which treats them alike, but
    // downstream consumers iterate relations.
    for (const auto& [name, rel] : t_.relations()) {
      base.GetOrCreate(name, rel.arity());
    }

    // Extra-value pool: fixed constants + constants of the base + fresh
    // (collision-free names precomputed in the constructor).
    std::set<Value> pool_set(fixed_.begin(), fixed_.end());
    for (Value c : base.ActiveDomain()) pool_set.insert(c);
    for (const std::string& name : fresh_names_) {
      pool_set.insert(universe->Const(name));
    }
    std::vector<Value> pool(pool_set.begin(), pool_set.end());

    // Extra-tuple universe U: fillings of open positions of proper
    // tuples, plus arbitrary tuples for all-open markers. Each extra
    // remembers its template so the Section 6 "1-to-m" replication limit
    // can be enforced per template.
    struct Extra {
      std::string rel;
      Tuple tuple;
      size_t template_id;
    };
    std::vector<Extra> extras;
    std::set<std::pair<std::string, Tuple>> extras_seen;
    std::vector<size_t> template_cap;
    size_t current_template = 0;
    bool truncated = false;
    auto add_extra = [&](const std::string& rel, Tuple tuple) {
      if (extras.size() >= options_.max_universe) {
        truncated = true;
        return;
      }
      const Relation* brel = base.Find(rel);
      if (brel != nullptr && brel->Contains(tuple)) return;
      auto key = std::make_pair(rel, tuple);
      if (extras_seen.insert(key).second) {
        extras.push_back(Extra{rel, std::move(tuple), current_template});
      }
    };

    for (const auto& [name, rel] : t_.relations()) {
      for (const AnnotatedTupleRef& at : rel.tuples()) {
        if (at.IsEmptyMarker()) {
          if (!IsAllOpen(at.ann)) continue;
          // All-open marker: any tuple over the pool; the marker itself
          // contributes no base tuple, so a 1-to-m limit allows m extras.
          current_template = template_cap.size();
          template_cap.push_back(options_.open_replication_limit);
          ForEachTuple(at.arity(), pool.size(),
                       [&](const std::vector<uint32_t>& digits) {
                         Tuple cand(at.arity());
                         for (size_t p = 0; p < at.arity(); ++p) {
                           cand[p] = pool[digits[p]];
                         }
                         add_extra(name, std::move(cand));
                         return !truncated;
                       });
          continue;
        }
        size_t n_open = CountOpen(at.ann);
        if (n_open == 0) continue;
        std::vector<size_t> open_pos;
        for (size_t p = 0; p < at.ann.size(); ++p) {
          if (at.ann[p] == Ann::kOpen) open_pos.push_back(p);
        }
        // The base tuple v(t) is the first of the <= m instantiations a
        // 1-to-m open tuple may take, so m-1 extras remain.
        current_template = template_cap.size();
        template_cap.push_back(
            options_.open_replication_limit == SIZE_MAX
                ? SIZE_MAX
                : (options_.open_replication_limit == 0
                       ? 0
                       : options_.open_replication_limit - 1));
        Tuple pattern = v.Apply(at.values);
        ForEachTuple(open_pos.size(), pool.size(),
                     [&](const std::vector<uint32_t>& digits) {
                       Tuple cand = pattern;
                       for (size_t j = 0; j < open_pos.size(); ++j) {
                         cand[open_pos[j]] = pool[digits[j]];
                       }
                       add_extra(name, std::move(cand));
                       return !truncated;
                     });
      }
    }
    if (truncated) out->truncated = true;

    // Visit base u E for subsets E of the universe, in increasing size.
    size_t max_size = std::min(extras.size(), options_.max_extra_tuples);
    if (max_size < extras.size()) out->truncated = true;

    // Combination enumeration, smallest subsets first (counterexamples
    // tend to be small, and early exit then prunes the rest). The
    // per-template usage counters enforce the 1-to-m replication limit.
    std::vector<size_t> chosen;
    std::vector<size_t> used(template_cap.size(), 0);
    bool stop_run = false;  // This shard recorded a terminal event.
    bool stopped_by_peer = false;
    std::function<bool(size_t, size_t)> rec = [&](size_t start,
                                                  size_t remaining) -> bool {
      if (remaining == 0) {
        if (stop->load(std::memory_order_acquire)) {
          stopped_by_peer = true;
          return false;
        }
        if (parent_cancelled()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = Status::Cancelled("evaluation cancelled");
          stop_run = true;
          return false;
        }
        Status trip = gauge.Tick();
        if (!trip.ok()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = std::move(trip);
          stop_run = true;
          return false;
        }
        uint64_t n = total_members->fetch_add(1, std::memory_order_relaxed) + 1;
        if (n > budget.max_members) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = Status::ResourceExhausted(
              StrCat("member enumeration exceeded budget of ",
                     budget.max_members, " members"));
          stop_run = true;
          return false;
        }
        if (n > options_.max_members) {
          out->event = ShardOutcome::Event::kSoftCap;
          out->event_index = vindex;
          stop_run = true;
          return false;
        }
        Instance member = base;
        for (size_t idx : chosen) {
          member.Add(extras[idx].rel, extras[idx].tuple);
        }
        Result<bool> r = fn(member);
        if (!r.ok()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = r.status();
          stop_run = true;
          return false;
        }
        if (!r.value()) {
          out->event = ShardOutcome::Event::kEarlyStop;
          out->event_index = vindex;
          stop_run = true;
          return false;
        }
        return true;
      }
      for (size_t i = start; i + remaining <= extras.size(); ++i) {
        size_t tpl = extras[i].template_id;
        if (used[tpl] >= template_cap[tpl]) continue;
        ++used[tpl];
        chosen.push_back(i);
        bool cont = rec(i + 1, remaining - 1);
        chosen.pop_back();
        --used[tpl];
        if (!cont) return false;
      }
      return true;
    };
    for (size_t m = 0; m <= max_size && !stop_run && !stopped_by_peer; ++m) {
      rec(0, m);
    }
    if (stop_run) {
      stop->store(true, std::memory_order_release);
      return;
    }
    if (stopped_by_peer) return;
  }
}

Status RepAMemberEnumerator::RunSharded(size_t shards,
                                        const ShardFnFactory& factory) {
  obs::ScopedSpan run_span(ctx_ != nullptr ? ctx_->stats : nullptr,
                           ctx_ != nullptr ? ctx_->trace : nullptr,
                           obs::kPhaseMemberEnum);
  outcome_ = EnumOutcome::kExhausted;
  members_ = 0;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_members{0};

  std::vector<ShardOutcome> outcomes(shards);

  if (shards == 1) {
    // Sequential: the shard *is* the caller's job — same universe, same
    // context (budget cancel stays the caller's flag, the caller's plan
    // table keeps serving every query of the job).
    MemberShard shard{0, 1, universe_, ctx_};
    ShardMemberFn fn = factory(shard);
    RunShard(shard, fn, &stop, &total_members, &outcomes[0]);
  } else {
    // Fan-out over copy-on-write overlays of the caller's universe, which
    // is read-only while they live; every shard (including shard 0,
    // which runs on the calling thread) mints through its own private
    // overlay, so nothing is copied. Overlay ids continue the base's id
    // spaces, so canonical output is unchanged bit for bit.
    // Every shard context is a copy of the caller's, so all shards share
    // the caller's thread-safe plan table: a query compiles once per job,
    // not once per shard or per fan-out. Contexts and visitors are fully
    // built (factory called serially, in shard order) before any worker
    // starts.
    std::vector<std::unique_ptr<Universe>> overlays;
    std::vector<EngineContext> shard_ctxs(shards);
    std::vector<EngineStats> shard_stats(shards);
    // Trace sinks follow the stats rule — one per thread. Shard 0 runs
    // on the calling thread and keeps the caller's sink; worker shards
    // get their own sink on its shard-numbered track, absorbed into the
    // caller's in shard order after the pool drains.
    std::vector<std::unique_ptr<obs::TraceSink>> shard_sinks(shards);
    std::vector<MemberShard> shard_descs(shards);
    std::vector<ShardMemberFn> fns;
    fns.reserve(shards);
    // A caller without a plan table gets one for this fan-out, so its
    // shards still compile each query once.
    EngineContext base_ctx = ctx_ != nullptr ? *ctx_ : EngineContext();
    base_ctx.EnsureCache();

    {
      obs::ScopedSpan setup_span(ctx_ != nullptr ? ctx_->stats : nullptr,
                                 ctx_ != nullptr ? ctx_->trace : nullptr,
                                 obs::kPhaseFanoutSetup);
      overlays.reserve(shards);
      for (size_t s = 0; s < shards; ++s) {
        overlays.push_back(universe_->NewOverlay());
        shard_ctxs[s] = base_ctx;
        shard_ctxs[s].stats = &shard_stats[s];
        shard_ctxs[s].budget.cancel = &stop;
        shard_ctxs[s].shards = 1;  // Fan-out never nests.
        if (s > 0 && base_ctx.trace != nullptr) {
          shard_sinks[s] =
              std::make_unique<obs::TraceSink>(static_cast<uint32_t>(s));
          shard_ctxs[s].trace = shard_sinks[s].get();
        }
        shard_descs[s] = MemberShard{s, shards, overlays[s].get(),
                                     &shard_ctxs[s]};
        fns.push_back(factory(shard_descs[s]));
      }
    }
    {
      // A scoped pool of our own: submitting intra-job work to the outer
      // exec/ batch pool from inside a job could deadlock (all its
      // workers may be the jobs waiting for these very tasks).
      ThreadPool pool(shards - 1);
      for (size_t s = 1; s < shards; ++s) {
        pool.Submit([this, s, &shard_descs, &fns, &stop, &total_members,
                     &outcomes] {
          RunShard(shard_descs[s], fns[s], &stop, &total_members,
                   &outcomes[s]);
        });
      }
      RunShard(shard_descs[0], fns[0], &stop, &total_members, &outcomes[0]);
    }  // <- pool drained: every shard finished, results visible here.
    if (ctx_ != nullptr && ctx_->trace != nullptr) {
      for (size_t s = 1; s < shards; ++s) {
        if (shard_sinks[s] != nullptr) ctx_->trace->Absorb(*shard_sinks[s]);
      }
    }
    if (ctx_ != nullptr && ctx_->stats != nullptr) {
      for (const EngineStats& st : shard_stats) *ctx_->stats += st;
      ++ctx_->stats->enum_shard_runs;
      ctx_->stats->enum_shard_tasks += shards;
      ++ctx_->stats->frozen_base_reuses;
      ctx_->stats->overlay_mints += shards;
      if (stop.load(std::memory_order_relaxed)) {
        ++ctx_->stats->enum_shard_stops;
      }
    }
  }

  members_ = total_members.load(std::memory_order_relaxed);

  // Deterministic shard-ordered merge: the surfaced terminal event is the
  // one at the smallest global valuation index (ties broken by shard
  // order). kCancelled trips are first-success echoes — a peer raised the
  // shared stop flag and this shard's gauge saw it mid-search — unless
  // the *caller's* flag really was raised; echoes merge as plain
  // peer-stops.
  const bool caller_cancelled = ctx_ != nullptr && ctx_->budget.cancelled();
  const ShardOutcome* best = nullptr;
  bool any_truncated = false;
  for (const ShardOutcome& o : outcomes) {
    any_truncated = any_truncated || o.truncated;
    if (o.event == ShardOutcome::Event::kNone) continue;
    if (o.event == ShardOutcome::Event::kTrip &&
        o.trip.code() == StatusCode::kCancelled && !caller_cancelled) {
      continue;
    }
    if (best == nullptr || o.event_index < best->event_index) best = &o;
  }
  if (best == nullptr) {
    outcome_ = any_truncated ? EnumOutcome::kTruncated : EnumOutcome::kExhausted;
    return Status::OK();
  }
  switch (best->event) {
    case ShardOutcome::Event::kEarlyStop:
      outcome_ = EnumOutcome::kEarlyStopped;
      return Status::OK();
    case ShardOutcome::Event::kSoftCap:
      outcome_ = EnumOutcome::kTruncated;
      return Status::OK();
    case ShardOutcome::Event::kTrip:
      outcome_ = EnumOutcome::kTruncated;
      return best->trip;
    case ShardOutcome::Event::kNone:
      break;  // Unreachable.
  }
  return Status::OK();
}

Status RepAMemberEnumerator::ForEachMember(const MemberFn& fn) {
  return RunSharded(1, [&fn](const MemberShard&) -> ShardMemberFn {
    return [&fn](const Instance& member) -> Result<bool> {
      return fn(member);
    };
  });
}

Status RepAMemberEnumerator::ForEachMember(const ShardFnFactory& factory) {
  size_t shards = ctx_ != nullptr && ctx_->shards > 1 ? ctx_->shards : 1;
  return RunSharded(shards, factory);
}

}  // namespace ocdx
