// Traced in-process replay of one ocdx benchmark workload.
//
//   replay WORKLOAD OPS.tsv SECONDS DEADLINE_MS
//
// WORKLOAD is ingest_batch, exchange_cold or exchange_warm. OPS.tsv holds
// one op per line, `command<TAB>file.dx<TAB>reference-output-file`, in
// the order the end-to-end driver (run.py) sends them; command is
// `batch` for ingest_batch. Each op runs the same library entry point
// the program runs for it:
//
//   ingest_batch   RunDxBatch({file}, -j 1, --command=all)   (ocdx batch)
//   exchange_cold  ReadDxFile + RunDxFile                     (ocdxd, cold)
//   exchange_warm  RunSnapshotCommand on a loaded bundle      (ocdxd --preload)
//
// and its output is compared byte for byte with the reference.
//
// Spans: every function named in symbols.h is wrapped at link time, so
// calls into exec, text, chase, certain, semantics, compose, skolem and
// snap are timed where the program makes them. A span's self time is
// its duration minus the time covered by the spans directly inside it.
// The program's own EngineStats counters and phase timers are read per
// op through the context, as the CLI's --stats does.
//
// Timing protocol: one untimed pass, then pairs of passes until SECONDS
// have passed: one with spans off, one with spans, stats and a trace
// sink attached. obs.trace_overhead_frac compares the two halves; every
// other metric comes from the traced passes.
//
// Output: one JSON object on stdout with "attempted", "failed",
// "unbound" (wrapped symbols the library no longer defines) and
// "metrics" (name -> value; run.py attaches the units).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "compose/compose.h"
#include "exec/batch_runner.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "plan/plan_cache.h"
#include "plan/shared_plan_table.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "skolem/compose.h"
#include "snap/snapshot.h"
#include "symbols.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

// ---------------------------------------------------------------------------
// Span accounting
// ---------------------------------------------------------------------------

namespace {

enum SpanId {
  kRunDxBatch,
  kPlanDxJobs,
  kParse,
  kRunDxCommand,
  kChase,
  kCertainAnswers,
  kIsCertainBoolean,
  kInSolutionSpace,
  kInRepA,
  kInComposition,
  kComposeSkolem,
  kBuildSnapshot,
  kWriteSnapshot,
  kLoadSnapshot,
  kRunSnapshot,
  kNumSpans,
};

struct SpanAcc {
  uint64_t calls = 0;
  uint64_t total_ns = 0;  ///< Outermost occurrences only.
  uint64_t self_ns = 0;
};

struct Frame {
  SpanId id;
  uint64_t start_ns;
  uint64_t child_ns;
};

bool g_tracing = false;
std::vector<Frame> g_stack;
SpanAcc g_acc[kNumSpans];
int g_open[kNumSpans];

// Counts taken at the span boundaries.
uint64_t g_parse_bytes = 0;
uint64_t g_members = 0;
// Chases of a scenario's (mapping, source) pairs — the ones a snapshot
// stores — as opposed to chases inside composition or membership.
uint64_t g_chase_ns = 0;
uint64_t g_chase_triggers = 0;

void ResetAccounting() {
  for (SpanAcc& a : g_acc) a = SpanAcc{};
  g_parse_bytes = g_members = 0;
  g_chase_ns = g_chase_triggers = 0;
}

class Span {
 public:
  explicit Span(SpanId id) : on_(g_tracing) {
    if (!on_) return;
    parent_ = g_stack.empty() ? kNumSpans : g_stack.back().id;
    ++g_open[id];
    g_stack.push_back(Frame{id, ocdx::obs::NowNs(), 0});
  }
  ~Span() {
    if (!on_) return;
    Frame f = g_stack.back();
    g_stack.pop_back();
    uint64_t dur = ocdx::obs::NowNs() - f.start_ns;
    SpanAcc& a = g_acc[f.id];
    ++a.calls;
    if (--g_open[f.id] == 0) a.total_ns += dur;
    a.self_ns += dur - f.child_ns;
    if (!g_stack.empty()) g_stack.back().child_ns += dur;
    if (f.id == kChase && parent_ == kRunDxCommand) {
      g_chase_ns += dur;
      g_chase_triggers += triggers_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool on() const { return on_; }
  void set_triggers(uint64_t n) { triggers_ = n; }

 private:
  bool on_;
  SpanId parent_ = kNumSpans;
  uint64_t triggers_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Link-time wrappers (one __real_/__wrap_ pair per symbol in symbols.h)
// ---------------------------------------------------------------------------

#define OCDX_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define OCDX_WRAP(sym) __asm__("__wrap_" sym)

namespace ocdx {

Result<BatchReport> RealRunDxBatch(const std::vector<std::string>&,
                                   const BatchOptions&)
    OCDX_REAL(SYM_RunDxBatch);
Result<BatchReport> WrapRunDxBatch(const std::vector<std::string>& files,
                                   const BatchOptions& options)
    OCDX_WRAP(SYM_RunDxBatch);
Result<BatchReport> WrapRunDxBatch(const std::vector<std::string>& files,
                                   const BatchOptions& options) {
  Span span(kRunDxBatch);
  return RealRunDxBatch(files, options);
}

Result<std::vector<DxJobSpec>> RealPlanDxJobs(const DxScenario&,
                                              const std::string&,
                                              const DxDriverOptions&)
    OCDX_REAL(SYM_PlanDxJobs);
Result<std::vector<DxJobSpec>> WrapPlanDxJobs(const DxScenario& scenario,
                                              const std::string& command,
                                              const DxDriverOptions& options)
    OCDX_WRAP(SYM_PlanDxJobs);
Result<std::vector<DxJobSpec>> WrapPlanDxJobs(const DxScenario& scenario,
                                              const std::string& command,
                                              const DxDriverOptions& options) {
  Span span(kPlanDxJobs);
  return RealPlanDxJobs(scenario, command, options);
}

Result<DxScenario> RealParseDxScenario(std::string_view, Universe*)
    OCDX_REAL(SYM_ParseDxScenario);
Result<DxScenario> WrapParseDxScenario(std::string_view src, Universe* u)
    OCDX_WRAP(SYM_ParseDxScenario);
Result<DxScenario> WrapParseDxScenario(std::string_view src, Universe* u) {
  Span span(kParse);
  if (span.on()) g_parse_bytes += src.size();
  return RealParseDxScenario(src, u);
}

Result<DxScenario> RealParseDxScenarioOpts(std::string_view, Universe*,
                                           const DxParseOptions&)
    OCDX_REAL(SYM_ParseDxScenarioOpts);
Result<DxScenario> WrapParseDxScenarioOpts(std::string_view src, Universe* u,
                                           const DxParseOptions& options)
    OCDX_WRAP(SYM_ParseDxScenarioOpts);
Result<DxScenario> WrapParseDxScenarioOpts(std::string_view src, Universe* u,
                                           const DxParseOptions& options) {
  Span span(kParse);
  if (span.on()) g_parse_bytes += src.size();
  return RealParseDxScenarioOpts(src, u, options);
}

Result<std::string> RealRunDxCommand(const DxScenario&, const std::string&,
                                     Universe*, const DxDriverOptions&,
                                     Status*) OCDX_REAL(SYM_RunDxCommand);
Result<std::string> WrapRunDxCommand(const DxScenario& scenario,
                                     const std::string& command, Universe* u,
                                     const DxDriverOptions& options,
                                     Status* governed)
    OCDX_WRAP(SYM_RunDxCommand);
Result<std::string> WrapRunDxCommand(const DxScenario& scenario,
                                     const std::string& command, Universe* u,
                                     const DxDriverOptions& options,
                                     Status* governed) {
  Span span(kRunDxCommand);
  return RealRunDxCommand(scenario, command, u, options, governed);
}

Result<CanonicalSolution> RealChase(const Mapping&, const Instance&,
                                    Universe*, const EngineContext&)
    OCDX_REAL(SYM_Chase);
Result<CanonicalSolution> WrapChase(const Mapping& m, const Instance& source,
                                    Universe* u, const EngineContext& ctx)
    OCDX_WRAP(SYM_Chase);
Result<CanonicalSolution> WrapChase(const Mapping& m, const Instance& source,
                                    Universe* u, const EngineContext& ctx) {
  Span span(kChase);
  Result<CanonicalSolution> out = RealChase(m, source, u, ctx);
  if (out.ok()) span.set_triggers(out.value().triggers.size());
  return out;
}

// Member functions: the engine pointer is the explicit first parameter
// (the Itanium C++ ABI passes `this` exactly like one).
Result<Relation> RealCertainAnswers(CertainAnswerEngine*, const FormulaPtr&,
                                    const std::vector<std::string>&,
                                    CertainVerdict*, const CertainOptions&)
    OCDX_REAL(SYM_CertainAnswers);
Result<Relation> WrapCertainAnswers(CertainAnswerEngine* self,
                                    const FormulaPtr& q,
                                    const std::vector<std::string>& order,
                                    CertainVerdict* verdict,
                                    const CertainOptions& options)
    OCDX_WRAP(SYM_CertainAnswers);
Result<Relation> WrapCertainAnswers(CertainAnswerEngine* self,
                                    const FormulaPtr& q,
                                    const std::vector<std::string>& order,
                                    CertainVerdict* verdict,
                                    const CertainOptions& options) {
  Span span(kCertainAnswers);
  CertainVerdict local;
  CertainVerdict* v = verdict != nullptr ? verdict : &local;
  Result<Relation> out = RealCertainAnswers(self, q, order, v, options);
  if (span.on()) g_members += v->members_checked;
  return out;
}

Result<CertainVerdict> RealIsCertainBoolean(CertainAnswerEngine*,
                                            const FormulaPtr&,
                                            const CertainOptions&)
    OCDX_REAL(SYM_IsCertainBoolean);
Result<CertainVerdict> WrapIsCertainBoolean(CertainAnswerEngine* self,
                                            const FormulaPtr& q,
                                            const CertainOptions& options)
    OCDX_WRAP(SYM_IsCertainBoolean);
Result<CertainVerdict> WrapIsCertainBoolean(CertainAnswerEngine* self,
                                            const FormulaPtr& q,
                                            const CertainOptions& options) {
  Span span(kIsCertainBoolean);
  Result<CertainVerdict> out = RealIsCertainBoolean(self, q, options);
  if (span.on() && out.ok()) g_members += out.value().members_checked;
  return out;
}

Result<MembershipResult> RealInSolutionSpace(const Mapping&, const Instance&,
                                             const Instance&, Universe*,
                                             RepAOptions,
                                             const EngineContext&)
    OCDX_REAL(SYM_InSolutionSpace);
Result<MembershipResult> WrapInSolutionSpace(const Mapping& m,
                                             const Instance& source,
                                             const Instance& target,
                                             Universe* u, RepAOptions options,
                                             const EngineContext& ctx)
    OCDX_WRAP(SYM_InSolutionSpace);
Result<MembershipResult> WrapInSolutionSpace(const Mapping& m,
                                             const Instance& source,
                                             const Instance& target,
                                             Universe* u, RepAOptions options,
                                             const EngineContext& ctx) {
  Span span(kInSolutionSpace);
  return RealInSolutionSpace(m, source, target, u, options, ctx);
}

Result<MembershipResult> RealInSolutionSpaceGiven(const AnnotatedInstance&,
                                                  const Instance&,
                                                  RepAOptions,
                                                  const EngineContext&)
    OCDX_REAL(SYM_InSolutionSpaceGiven);
Result<MembershipResult> WrapInSolutionSpaceGiven(
    const AnnotatedInstance& csola, const Instance& target,
    RepAOptions options, const EngineContext& ctx)
    OCDX_WRAP(SYM_InSolutionSpaceGiven);
Result<MembershipResult> WrapInSolutionSpaceGiven(
    const AnnotatedInstance& csola, const Instance& target,
    RepAOptions options, const EngineContext& ctx) {
  Span span(kInSolutionSpace);
  return RealInSolutionSpaceGiven(csola, target, options, ctx);
}

Result<bool> RealInRepA(const AnnotatedInstance&, const Instance&,
                        Valuation*, RepAOptions, const EngineContext&)
    OCDX_REAL(SYM_InRepA);
Result<bool> WrapInRepA(const AnnotatedInstance& a, const Instance& ground,
                        Valuation* witness, RepAOptions options,
                        const EngineContext& ctx) OCDX_WRAP(SYM_InRepA);
Result<bool> WrapInRepA(const AnnotatedInstance& a, const Instance& ground,
                        Valuation* witness, RepAOptions options,
                        const EngineContext& ctx) {
  Span span(kInRepA);
  return RealInRepA(a, ground, witness, options, ctx);
}

Result<ComposeVerdict> RealInComposition(const Mapping&, const Mapping&,
                                         const Instance&, const Instance&,
                                         Universe*, ComposeOptions,
                                         const EngineContext&)
    OCDX_REAL(SYM_InComposition);
Result<ComposeVerdict> WrapInComposition(const Mapping& sigma,
                                         const Mapping& delta,
                                         const Instance& source,
                                         const Instance& target, Universe* u,
                                         ComposeOptions options,
                                         const EngineContext& ctx)
    OCDX_WRAP(SYM_InComposition);
Result<ComposeVerdict> WrapInComposition(const Mapping& sigma,
                                         const Mapping& delta,
                                         const Instance& source,
                                         const Instance& target, Universe* u,
                                         ComposeOptions options,
                                         const EngineContext& ctx) {
  Span span(kInComposition);
  return RealInComposition(sigma, delta, source, target, u, options, ctx);
}

Result<ComposeSkolemResult> RealComposeSkolem(const Mapping&, const Mapping&,
                                              Universe*)
    OCDX_REAL(SYM_ComposeSkolem);
Result<ComposeSkolemResult> WrapComposeSkolem(const Mapping& sigma,
                                              const Mapping& delta,
                                              Universe* u)
    OCDX_WRAP(SYM_ComposeSkolem);
Result<ComposeSkolemResult> WrapComposeSkolem(const Mapping& sigma,
                                              const Mapping& delta,
                                              Universe* u) {
  Span span(kComposeSkolem);
  return RealComposeSkolem(sigma, delta, u);
}

namespace snap {

Result<SnapshotBundle> RealBuildSnapshotBundle(std::string, std::string,
                                               const EngineContext&)
    OCDX_REAL(SYM_BuildSnapshotBundle);
Result<SnapshotBundle> WrapBuildSnapshotBundle(std::string path,
                                               std::string text,
                                               const EngineContext& ctx)
    OCDX_WRAP(SYM_BuildSnapshotBundle);
Result<SnapshotBundle> WrapBuildSnapshotBundle(std::string path,
                                               std::string text,
                                               const EngineContext& ctx) {
  Span span(kBuildSnapshot);
  return RealBuildSnapshotBundle(std::move(path), std::move(text), ctx);
}

Status RealWriteSnapshotFile(const SnapshotBundle&, const std::string&)
    OCDX_REAL(SYM_WriteSnapshotFile);
Status WrapWriteSnapshotFile(const SnapshotBundle& bundle,
                             const std::string& path)
    OCDX_WRAP(SYM_WriteSnapshotFile);
Status WrapWriteSnapshotFile(const SnapshotBundle& bundle,
                             const std::string& path) {
  Span span(kWriteSnapshot);
  return RealWriteSnapshotFile(bundle, path);
}

Result<SnapshotBundle> RealLoadSnapshotFile(const std::string&)
    OCDX_REAL(SYM_LoadSnapshotFile);
Result<SnapshotBundle> WrapLoadSnapshotFile(const std::string& path)
    OCDX_WRAP(SYM_LoadSnapshotFile);
Result<SnapshotBundle> WrapLoadSnapshotFile(const std::string& path) {
  Span span(kLoadSnapshot);
  return RealLoadSnapshotFile(path);
}

Result<std::string> RealRunSnapshotCommand(const SnapshotBundle&,
                                           const std::string&,
                                           const DxDriverOptions&, Status*)
    OCDX_REAL(SYM_RunSnapshotCommand);
Result<std::string> WrapRunSnapshotCommand(const SnapshotBundle& bundle,
                                           const std::string& command,
                                           const DxDriverOptions& options,
                                           Status* governed)
    OCDX_WRAP(SYM_RunSnapshotCommand);
Result<std::string> WrapRunSnapshotCommand(const SnapshotBundle& bundle,
                                           const std::string& command,
                                           const DxDriverOptions& options,
                                           Status* governed) {
  Span span(kRunSnapshot);
  return RealRunSnapshotCommand(bundle, command, options, governed);
}

}  // namespace snap
}  // namespace ocdx

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

namespace {

using namespace ocdx;

// Symbols whose wrapper bound to nothing (the library changed).
std::vector<std::string> UnboundSpans() {
  struct Probe {
    const char* name;
    bool bound;
  };
  const Probe probes[] = {
      {"RunDxBatch", &RealRunDxBatch != nullptr},
      {"PlanDxJobs", &RealPlanDxJobs != nullptr},
      {"ParseDxScenario", &RealParseDxScenario != nullptr},
      {"ParseDxScenario(opts)", &RealParseDxScenarioOpts != nullptr},
      {"RunDxCommand", &RealRunDxCommand != nullptr},
      {"Chase", &RealChase != nullptr},
      {"CertainAnswers", &RealCertainAnswers != nullptr},
      {"IsCertainBoolean", &RealIsCertainBoolean != nullptr},
      {"InSolutionSpace", &RealInSolutionSpace != nullptr},
      {"InSolutionSpaceGiven", &RealInSolutionSpaceGiven != nullptr},
      {"InRepA", &RealInRepA != nullptr},
      {"InComposition", &RealInComposition != nullptr},
      {"ComposeSkolem", &RealComposeSkolem != nullptr},
      {"BuildSnapshotBundle", &snap::RealBuildSnapshotBundle != nullptr},
      {"WriteSnapshotFile", &snap::RealWriteSnapshotFile != nullptr},
      {"LoadSnapshotFile", &snap::RealLoadSnapshotFile != nullptr},
      {"RunSnapshotCommand", &snap::RealRunSnapshotCommand != nullptr},
  };
  std::vector<std::string> out;
  for (const Probe& p : probes) {
    if (!p.bound) out.push_back(p.name);
  }
  return out;
}

struct Op {
  std::string command;
  std::string path;
  std::string expected;
};

// Per-file sizes, read once from an untraced parse and chase.
struct FileCounts {
  double source_rows = 0;
  double target_rows = 0;
  double constants = 0;
};

FileCounts CountFile(const std::string& path) {
  FileCounts c;
  Result<std::string> text = ReadDxFile(path);
  if (!text.ok()) return c;
  Universe u;
  Result<DxScenario> sc = ParseDxScenario(text.value(), &u);
  if (!sc.ok()) return c;
  for (const DxInstanceDecl& inst : sc.value().instances) {
    c.source_rows += inst.annotated ? inst.annotated_instance.TotalTuples()
                                    : inst.plain.TotalTuples();
  }
  for (const DxMappingDecl& m : sc.value().mappings) {
    for (const DxInstanceDecl& inst : sc.value().instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> csol = Chase(m.mapping, inst.plain, &u);
      if (csol.ok()) c.target_rows += csol.value().annotated.TotalTuples();
    }
  }
  c.constants = static_cast<double>(u.num_consts());
  return c;
}

// Length of the union of the program's phase intervals, skipping the
// phases named in `skip` (whole-job spans and phases outside the window
// being measured).
uint64_t PhaseUnionNs(const std::vector<const obs::TraceSink*>& sinks,
                      const std::vector<std::string_view>& skip) {
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (const obs::TraceSink* s : sinks) {
    for (const obs::TraceEvent& e : s->events()) {
      if (std::find(skip.begin(), skip.end(), std::string_view(e.name)) !=
          skip.end()) {
        continue;
      }
      iv.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
  }
  std::sort(iv.begin(), iv.end());
  uint64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

struct Totals {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t op_ns = 0;
  uint64_t output_bytes = 0;
  uint64_t jobs = 0;
  double job_ms = 0;
  uint64_t phase_ns = 0;         ///< All program phases (obs coverage).
  uint64_t command_phase_ns = 0; ///< Phases inside RunDxCommand.
  FileCounts counts;
  EngineStats stats;
};

class Replayer {
 public:
  Replayer(std::string workload, std::vector<Op> ops, uint64_t deadline_ms,
           std::string snap_dir)
      : workload_(std::move(workload)),
        ops_(std::move(ops)),
        snap_dir_(std::move(snap_dir)) {
    base_.engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
    base_.engine.budget.deadline_ms = deadline_ms;
  }

  bool Setup(std::string* error) {
    for (const Op& op : ops_) {
      if (counts_.count(op.path) == 0) counts_[op.path] = CountFile(op.path);
    }
    if (workload_ != "exchange_warm") return true;
    // Snapshot write and load, traced: the set-up the warm server pays.
    g_tracing = true;
    uint64_t dx_bytes = 0, snap_bytes = 0;
    for (const Op& op : ops_) {
      if (bundles_.count(op.path) != 0) continue;
      Result<std::string> text = ReadDxFile(op.path);
      if (!text.ok()) {
        *error = text.status().ToString();
        return false;
      }
      std::string snap_path =
          snap_dir_ + "/replay_" + std::to_string(bundles_.size()) + ".snap";
      {
        Result<snap::SnapshotBundle> built =
            snap::BuildSnapshotBundle(op.path, text.value(), base_.engine);
        if (!built.ok()) {
          *error = built.status().ToString();
          return false;
        }
        Status written = snap::WriteSnapshotFile(built.value(), snap_path);
        if (!written.ok()) {
          *error = written.ToString();
          return false;
        }
      }
      Result<snap::SnapshotBundle> loaded = snap::LoadSnapshotFile(snap_path);
      if (!loaded.ok()) {
        *error = loaded.status().ToString();
        return false;
      }
      dx_bytes += text.value().size();
      snap_bytes += std::filesystem::file_size(snap_path);
      Warm warm;
      warm.bundle =
          std::make_unique<snap::SnapshotBundle>(std::move(loaded).value());
      if (plan::PlanCache::EnabledByEnv()) {
        warm.plans = std::make_unique<plan::SharedPlanTable>();
      }
      bundles_[op.path] = std::move(warm);
    }
    g_tracing = false;
    snap_write_ms_ = (g_acc[kBuildSnapshot].total_ns +
                      g_acc[kWriteSnapshot].total_ns) / 1e6;
    snap_load_ms_ = g_acc[kLoadSnapshot].total_ns / 1e6;
    snap_ratio_ = dx_bytes > 0 ? static_cast<double>(snap_bytes) / dx_bytes
                               : 0;
    ResetAccounting();
    return true;
  }

  // Runs one op; with `traced`, attaches stats and a trace sink and folds
  // them into `t`.
  void RunOp(const Op& op, bool traced, Totals* t) {
    EngineStats stats;
    obs::TraceSink sink;
    std::vector<const obs::TraceSink*> sinks;
    DxDriverOptions options = base_;
    if (traced) {
      options.engine.stats = &stats;
      options.engine.trace = &sink;
      sinks.push_back(&sink);
    }
    std::string output;
    bool ok = false;
    uint64_t start = obs::NowNs();
    std::optional<Result<BatchReport>> report;
    if (workload_ == "ingest_batch") {
      BatchOptions batch;
      batch.workers = 1;
      batch.command = "all";
      batch.engine = options.engine;
      batch.driver = options;
      batch.collect_traces = traced;
      report.emplace(RunDxBatch({op.path}, batch));
      if (report->ok()) {
        output = RenderBatchOutput(report->value());
        ok = report->value().ok() && report->value().governed_jobs == 0;
      }
    } else if (workload_ == "exchange_cold") {
      Status governed;
      Result<std::string> source = ReadDxFile(op.path);
      if (source.ok()) {
        Result<std::string> out = RunDxFile(op.path, source.value(),
                                            op.command, options, &governed);
        if (out.ok()) {
          output = std::move(out).value();
          ok = governed.ok();
        }
      }
    } else {
      const Warm& warm = bundles_.at(op.path);
      options.engine.shared_plans = warm.plans.get();
      Status governed;
      Result<std::string> out =
          snap::RunSnapshotCommand(*warm.bundle, op.command, options,
                                   &governed);
      if (out.ok()) {
        output = std::move(out).value();
        ok = governed.ok();
      }
    }
    uint64_t dur = obs::NowNs() - start;
    ++t->ops;
    t->op_ns += dur;
    if (!ok || output != op.expected) ++t->failed;
    if (!traced) return;

    t->output_bytes += output.size();
    const FileCounts& c = counts_.at(op.path);
    t->counts.source_rows += c.source_rows;
    t->counts.target_rows += c.target_rows;
    t->counts.constants += c.constants;
    if (report.has_value() && report->ok()) {
      const BatchReport& r = report->value();
      stats = r.stats;
      t->jobs += r.total_jobs;
      for (const BatchFileReport& f : r.files) t->job_ms += f.millis;
      for (const BatchJobTrace& jt : r.traces) sinks.push_back(jt.sink.get());
    }
    t->stats += stats;
    t->phase_ns += PhaseUnionNs(sinks, {"job"});
    t->command_phase_ns +=
        PhaseUnionNs(sinks, {"job", "dx-parse", "snap-write", "snap-load"});
  }

  // One pass over the op list.
  void RunPass(bool traced, Totals* t) {
    g_tracing = traced;
    for (const Op& op : ops_) RunOp(op, traced, t);
    g_tracing = false;
  }

  double snap_write_ms() const { return snap_write_ms_; }
  double snap_load_ms() const { return snap_load_ms_; }
  double snap_ratio() const { return snap_ratio_; }

 private:
  struct Warm {
    std::unique_ptr<snap::SnapshotBundle> bundle;
    std::unique_ptr<plan::SharedPlanTable> plans;
  };

  std::string workload_;
  std::vector<Op> ops_;
  std::string snap_dir_;
  DxDriverOptions base_;
  std::map<std::string, FileCounts> counts_;
  std::map<std::string, Warm> bundles_;
  double snap_write_ms_ = 0;
  double snap_load_ms_ = 0;
  double snap_ratio_ = 0;
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Div(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: replay WORKLOAD OPS.tsv SECONDS DEADLINE_MS\n");
    return 2;
  }
  const std::string workload = argv[1];
  if (workload != "ingest_batch" && workload != "exchange_cold" &&
      workload != "exchange_warm") {
    std::fprintf(stderr, "replay: unknown workload '%s'\n", argv[1]);
    return 2;
  }
  const std::string ops_path = argv[2];
  const double seconds = std::stod(argv[3]);
  const uint64_t deadline_ms = std::stoull(argv[4]);

  std::vector<Op> ops;
  {
    std::ifstream in(ops_path);
    std::string line;
    while (std::getline(in, line)) {
      size_t a = line.find('\t');
      size_t b = line.find('\t', a + 1);
      if (a == std::string::npos || b == std::string::npos) continue;
      Op op;
      op.command = line.substr(0, a);
      op.path = line.substr(a + 1, b - a - 1);
      Result<std::string> expected = ReadDxFile(line.substr(b + 1));
      if (!expected.ok()) {
        std::fprintf(stderr, "replay: %s\n",
                     expected.status().ToString().c_str());
        return 1;
      }
      op.expected = std::move(expected).value();
      ops.push_back(std::move(op));
    }
  }
  if (ops.empty()) {
    std::fprintf(stderr, "replay: no ops in %s\n", ops_path.c_str());
    return 1;
  }

  std::vector<std::string> unbound = UnboundSpans();
  for (const std::string& name : unbound) {
    std::fprintf(stderr, "replay: span %s is unbound (symbol not found)\n",
                 name.c_str());
  }

  std::string snap_dir = ops_path.substr(0, ops_path.find_last_of('/'));
  if (snap_dir == ops_path) snap_dir = ".";
  Replayer replayer(workload, ops, deadline_ms, snap_dir);
  std::string error;
  if (!replayer.Setup(&error)) {
    std::fprintf(stderr, "replay: set-up failed: %s\n", error.c_str());
    return 1;
  }

  Totals warmup, plain, t;
  replayer.RunPass(false, &warmup);
  auto start = std::chrono::steady_clock::now();
  do {
    replayer.RunPass(false, &plain);
    replayer.RunPass(true, &t);
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);

  const double ops_n = static_cast<double>(t.ops);
  const EngineStats& st = t.stats;
  const bool ingest = workload == "ingest_batch";
  const double files = ingest ? ops_n : 0;
  auto per_op = [&](double v) { return Div(v, ops_n); };
  auto per_file = [&](double v) { return Div(v, files); };

  const double batch_ns = g_acc[kRunDxBatch].total_ns;
  const double parse_ns = g_acc[kParse].total_ns;
  const double chase_s = g_chase_ns / 1e9;
  const double certain_ns =
      g_acc[kCertainAnswers].total_ns + g_acc[kIsCertainBoolean].total_ns;
  const double certain_s = certain_ns / 1e9;
  const double membership_ns =
      g_acc[kInSolutionSpace].total_ns + g_acc[kInRepA].total_ns;
  const double plan_hits = st.plan_cache_hits + st.shared_plan_hits;
  const double command_ns = g_acc[kRunDxCommand].total_ns;
  auto self_ns = [&](std::initializer_list<SpanId> ids) {
    double s = 0;
    for (SpanId id : ids) s += g_acc[id].self_ns;
    return s;
  };

  std::vector<std::pair<std::string, double>> m = {
      {"exec.jobs_per_file", per_file(t.jobs)},
      {"exec.parses_per_file", per_file(g_acc[kParse].calls)},
      {"exec.batch_ms_per_file", per_file(Ms(batch_ns))},
      {"exec.unattributed_ms_per_file",
       per_file(Ms(batch_ns) - t.job_ms)},
      {"exec.self_ms_per_op", per_op(Ms(self_ns({kRunDxBatch, kPlanDxJobs})))},
      {"text.parse_ms_per_op", per_op(Ms(parse_ns))},
      {"text.parse_mb_per_s", Div(g_parse_bytes / 1e6, parse_ns / 1e9)},
      {"text.parse_calls_per_op", per_op(g_acc[kParse].calls)},
      {"text.output_kb_per_op", per_op(t.output_bytes / 1024.0)},
      {"text.driver_residual_ms_per_op",
       per_op(Ms(command_ns) - Ms(t.command_phase_ns))},
      {"text.self_ms_per_op", per_op(Ms(self_ns({kParse, kRunDxCommand})))},
      {"chase.ms_per_op", per_op(Ms(g_chase_ns))},
      {"chase.triggers_per_op", per_op(g_chase_triggers)},
      {"chase.triggers_per_s", Div(g_chase_triggers, chase_s)},
      {"plan.compiles_per_op", per_op(st.plan_compiles)},
      {"plan.compile_ms_per_op", per_op(Ms(st.plan_compile_ns))},
      {"plan.bind_ms_per_op", per_op(Ms(st.plan_bind_ns))},
      {"plan.hit_rate", Div(plan_hits, plan_hits + st.plan_compiles)},
      {"plan.guard_depth_fallbacks", per_op(st.guard_depth_fallbacks)},
      {"certain.ms_per_op", per_op(Ms(certain_ns))},
      {"certain.member_enum_ms_per_op", per_op(Ms(st.member_enum_ns))},
      {"certain.members_per_op", per_op(g_members)},
      {"certain.members_per_s", Div(g_members, certain_s)},
      {"semantics.membership_ms_per_op", per_op(Ms(membership_ns))},
      {"semantics.repa_steps_per_op", per_op(st.repa_steps)},
      {"semantics.hom_steps_per_op", per_op(st.hom_steps)},
      {"semantics.repa_ms_per_op", per_op(Ms(st.repa_search_ns))},
      {"semantics.hom_ms_per_op", per_op(Ms(st.hom_search_ns))},
      {"semantics.self_ms_per_op",
       per_op(Ms(self_ns({kInSolutionSpace, kInRepA})))},
      {"compose.ms_per_op", per_op(Ms(g_acc[kInComposition].total_ns))},
      {"compose.self_ms_per_op", per_op(Ms(self_ns({kInComposition})))},
      {"skolem.compose_ms_per_op", per_op(Ms(g_acc[kComposeSkolem].total_ns))},
      {"snap.write_ms", replayer.snap_write_ms()},
      {"snap.load_ms", replayer.snap_load_ms()},
      {"snap.bytes_per_source_byte", replayer.snap_ratio()},
      {"snap.run_ms_per_op", per_op(Ms(g_acc[kRunSnapshot].total_ns))},
      {"snap.overlay_mints_per_op", per_op(st.overlay_mints)},
      {"snap.self_ms_per_op", per_op(Ms(self_ns({kRunSnapshot})))},
      {"base.source_rows_per_op", per_op(t.counts.source_rows)},
      {"base.target_rows_per_op", per_op(t.counts.target_rows)},
      {"base.constants_per_op", per_op(t.counts.constants)},
      {"obs.op_ms_per_op", per_op(Ms(t.op_ns))},
      {"obs.trace_overhead_frac",
       Div(static_cast<double>(t.op_ns), plain.op_ns) - 1},
      {"obs.phase_coverage_frac", Div(t.phase_ns, t.op_ns)},
  };

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"unbound\": [",
              static_cast<unsigned long long>(t.ops + plain.ops),
              static_cast<unsigned long long>(t.failed + plain.failed));
  for (size_t i = 0; i < unbound.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", unbound[i].c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", m[i].first.c_str(),
                m[i].second);
  }
  std::printf("}}\n");
  return 0;
}
