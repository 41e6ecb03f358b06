// Bounded enumeration of the members of RepA(T).
//
// Every certain-answer and composition procedure in the paper ultimately
// quantifies over RepA(CSolA(S)) — an infinite set. This enumerator makes
// that quantification finite and (within stated bounds) exact:
//
//   * valuations of the nulls are enumerated up to isomorphism fixing a
//     caller-supplied constant set (genericity; see iso_enum.h);
//   * "extra" tuples licensed by open positions and all-open markers are
//     drawn from a finite pool: the fixed constants, the valuated
//     instance's own constants, and a budget of fresh constants;
//   * subsets of the extra-tuple universe are visited in increasing size.
//
// Exactness guarantees, following the paper:
//   - all-closed T: no extras exist; enumeration is exact (Lemma 1 +
//     genericity), matching the coNP procedure of [Lib06] (Theorem 3.1).
//   - forall*-exists* queries: a counterexample, if any, exists with at
//     most l * arity extra domain values (proof of Proposition 5); a pool
//     that large makes the search a decision procedure.
//   - #op(T) <= 1 and FO queries: Lemma 2 bounds a counterexample by
//     (qr + |y-bar| + arity(Q)) fresh constants per "connection type"
//     X subseteq K; a sufficient pool again gives a decision procedure
//     (the coNEXPTIME bound of Theorem 3.2 is the size of this search).
//   - #op >= 2: provably no bound exists (Theorem 3.3, undecidable); the
//     enumeration is then a sound but incomplete counterexample search
//     and reports a non-exhausted outcome.
//
// Intra-job fan-out (EngineContext::shards > 1): the valuation space is
// partitioned round-robin across a scoped worker pool. Each shard mints
// through its own copy-on-write overlay of the caller's Universe
// (Universe::NewOverlay — nothing is copied; overlay ids continue the
// base's id spaces, and the caller's Universe is read-only while the
// overlays live), every shard context copies the caller's and so shares
// its thread-safe plan table (plan::SharedPlanTable: compile-once per
// job, whatever the shard count), and the shard contexts'
// Budget::cancel points at a per-fan-out stop flag, so the first shard
// that stops the run (counterexample found, intersection emptied, budget
// trip) cooperatively cancels the NP searches still running in the
// others. Shard results merge in shard order, and every merged observable
// (outcome, the surfaced governed trip, the early-stop decision) is
// chosen so canonical `ocdx` output is byte-identical for every shard
// count; only members_visited() may vary under early stop, and the driver
// never prints it.

#ifndef OCDX_CERTAIN_MEMBER_ENUM_H_
#define OCDX_CERTAIN_MEMBER_ENUM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/instance.h"
#include "semantics/iso_enum.h"
#include "semantics/valuation.h"
#include "util/status.h"

namespace ocdx {

struct EngineContext;

struct MemberEnumOptions {
  /// Number of fresh constants available for extra (open-position) tuples.
  size_t fresh_pool = 2;
  /// Cap on the number of extra tuples added per member (SIZE_MAX = no cap
  /// beyond the universe size).
  size_t max_extra_tuples = SIZE_MAX;
  /// Cap on the size of the extra-tuple universe per valuation; a larger
  /// universe is truncated (and the run marked non-exhaustive).
  size_t max_universe = 24;
  /// Global budget on visited members.
  uint64_t max_members = 5'000'000;
  /// The paper's Section 6 "1-to-m" extension: each open tuple may be
  /// replicated at most this many times (SIZE_MAX = the paper's default
  /// one-to-*many* semantics). With a finite m the member space becomes
  /// polynomially bounded per valuation and "all the complexity results
  /// about CWA mappings apply" — enumeration is then a decision
  /// procedure for every query class.
  size_t open_replication_limit = SIZE_MAX;
};

/// How a ForEachMember run ended.
enum class EnumOutcome {
  /// The complete bounded space was visited: no truncation, no budget
  /// exhaustion, no early stop. Whether the bounded space suffices for a
  /// proof is the caller's concern (see the per-class guarantees above).
  kExhausted,
  /// The space was cut short by a bound (universe truncation, the soft
  /// member cap) or a governed trip — some members were never visited.
  kTruncated,
  /// The visitor stopped the run (returned false / Ok(false)). The
  /// remaining space was deliberately skipped, so the run must not be
  /// read as having visited it — callers that early-stop on a witness
  /// already have their answer and must not consult exhausted().
  kEarlyStopped,
};

/// One shard of a fanned-out ForEachMember run, handed to the visitor
/// factory. `universe` and `ctx` are what the shard's visitor must
/// evaluate against: at shard count 1 they are the enumerator's own
/// universe/context; under fan-out they are a private copy-on-write
/// overlay of the read-shared caller universe and a per-shard copy of
/// the caller's context (sharing its thread-safe plan table) whose
/// Budget::cancel is the fan-out's shared stop flag.
struct MemberShard {
  size_t index = 0;
  size_t count = 1;
  Universe* universe = nullptr;
  const EngineContext* ctx = nullptr;
};

/// Enumerates ground members of RepA(T) and reports exhaustiveness.
class RepAMemberEnumerator {
 public:
  /// Sequential visitor: receives each member; returning false stops.
  using MemberFn = std::function<bool(const Instance&)>;
  /// Sharded visitor: returning Ok(false) stops the whole fan-out (first
  /// success); a non-OK status aborts it and surfaces from ForEachMember.
  using ShardMemberFn = std::function<Result<bool>(const Instance&)>;
  /// Builds the visitor for one shard. Called serially on the calling
  /// thread, in shard order, before any shard starts running; the
  /// returned visitor then runs on that shard's thread only.
  using ShardFnFactory = std::function<ShardMemberFn(const MemberShard&)>;

  /// `fixed` is the distinguished-constant set (query constants, candidate
  /// answer constants, ...); valuations are enumerated up to isomorphisms
  /// fixing it and the constants of T.
  ///
  /// `ctx`, when non-null, attaches resource governance (logic/budget.h):
  /// the context budget's hard max_members cap, its deadline/cancellation
  /// gauge, and the "enum" fault-injection probe all apply to every
  /// ForEachMember run. The hard cap is distinct from the soft
  /// MemberEnumOptions::max_members bound: tripping it is an error
  /// (kResourceExhausted), not a quiet kTruncated outcome. `ctx->shards`
  /// selects the fan-out width of the factory-based ForEachMember.
  RepAMemberEnumerator(const AnnotatedInstance& t,
                       const std::vector<Value>& fixed, Universe* universe,
                       MemberEnumOptions options = {},
                       const EngineContext* ctx = nullptr);

  /// Visits members until `fn` returns false (early stop) or enumeration
  /// finishes/budgets out. Returns OK unless a hard error occurred.
  /// Always sequential, whatever ctx->shards says.
  Status ForEachMember(const MemberFn& fn);

  /// The sharded entry point: partitions the valuation space across
  /// ctx->shards workers (sequential when that is 1). Visitor errors are
  /// returned from here; the first shard to stop the run cancels the
  /// rest through the shard budgets' cooperative flag. See the header
  /// comment for the determinism contract.
  Status ForEachMember(const ShardFnFactory& factory);

  /// How the last ForEachMember run ended.
  EnumOutcome outcome() const { return outcome_; }

  /// True iff the last run visited the *complete* bounded space — false
  /// for truncated and for early-stopped runs (an early stop deliberately
  /// skips the rest of the space, so it proves nothing about it).
  bool exhausted() const { return outcome_ == EnumOutcome::kExhausted; }

  /// Number of members visited by the last run (summed over shards).
  uint64_t members_visited() const { return members_; }

 private:
  // Per-shard result record, merged in shard order by RunSharded.
  struct ShardOutcome {
    // Terminal event: at most one per shard, stamped with the global
    // valuation index it occurred in so the merge can pick the earliest.
    enum class Event { kNone, kEarlyStop, kSoftCap, kTrip };
    Event event = Event::kNone;
    uint64_t event_index = UINT64_MAX;
    Status trip;             // Set when event == kTrip.
    bool truncated = false;  // Universe/extra-tuple truncation seen.
  };

  Status RunSharded(size_t shards, const ShardFnFactory& factory);
  void RunShard(const MemberShard& shard, const ShardMemberFn& fn,
                std::atomic<bool>* stop, std::atomic<uint64_t>* total_members,
                ShardOutcome* out) const;

  const AnnotatedInstance& t_;
  std::vector<Value> fixed_;
  Universe* universe_;
  MemberEnumOptions options_;
  const EngineContext* ctx_;
  /// Names for the fresh extra-value pool, computed once: "#e<i>" skipping
  /// any name already taken by a fixed/instance constant, so a scenario
  /// constant literally named "#e0" can never alias into the pool.
  std::vector<std::string> fresh_names_;
  EnumOutcome outcome_ = EnumOutcome::kExhausted;
  uint64_t members_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_CERTAIN_MEMBER_ENUM_H_
