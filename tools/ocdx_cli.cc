// ocdx — command-line driver for `.dx` data-exchange scenario files.
//
//   ocdx chase FILE.dx [flags]       chase every (mapping, source) pair
//   ocdx certain FILE.dx [flags]     certain answers for every query
//   ocdx classify FILE.dx            annotation / query classification
//   ocdx membership FILE.dx [flags]  solution-space / RepA membership
//   ocdx compose FILE.dx [flags]     composition membership + Lemma 5
//   ocdx all FILE.dx [flags]         every applicable command (golden form)
//   ocdx print FILE.dx               parse and pretty-print canonically
//   ocdx batch FILE.dx... [flags]    run --command over many files on a
//                                    worker pool (-j N); stdout is byte-
//                                    identical for every -j, timing goes
//                                    to stderr
//   ocdx snapshot write FILE.dx OUT.snap
//                                    parse + chase once, persist the
//                                    result as a relocatable binary
//                                    snapshot (snap/format.h)
//   ocdx snapshot read SNAP.snap     validate a snapshot and print its
//                                    summary (scenario, universe totals,
//                                    stored pairs)
//   ocdx snapshot run SNAP.snap [--command=CMD]
//                                    warm-start: serve a driver command
//                                    from the snapshot, byte-identical to
//                                    the cold `ocdx CMD FILE.dx` output
//
// Flags:
//   --engine=indexed|naive|generic   join-engine mode (default: indexed)
//   --mapping=NAME                   chase/certain/membership: one mapping
//   --sigma=NAME --delta=NAME        compose: mapping selection
//   --source=NAME --target=NAME      compose: instance selection
//   --chase-max-triggers=N           resource cap: chase trigger firings
//   --max-members=N                  resource cap: enumerated members
//   --deadline-ms=N                  wall-clock deadline per command
//   --shards=N                       intra-job fan-out width for the
//                                    member-enumeration loops (default 1;
//                                    output is byte-identical for every N)
//   --stats                          render the run's EngineStats table
//                                    (counters + phase timings) to stderr
//   --stats-json=FILE                write the run's EngineStats as JSON
//   --trace-out=FILE                 write Chrome trace-event JSON (open
//                                    in about://tracing or Perfetto);
//                                    batch merges per-job sinks under
//                                    stable job-indexed tids
//
// Observability contract: canonical output on stdout stays byte-
// identical whether or not --stats/--stats-json/--trace-out are set —
// the table goes to stderr, traces and JSON to their named files (see
// docs/observability.md).
//   -j N / --jobs=N                  batch: worker threads (default 1)
//   --command=CMD                    batch: driver command (default all);
//                                    each file is parsed once and CMD
//                                    runs as its planned slices
//
// Exit codes: 0 = success; 1 = error (unreadable/unparsable input, hard
// failure); 2 = usage; 3 = the run completed but at least one evaluation
// tripped a resource budget/deadline (the trip renders as a positioned
// `error ...` line in the output). Scenario `budget { ... }` blocks
// tighten the flag-supplied caps, never relax them.
//
// Output is canonical and diff-stable (see text/dx_driver.h); the golden
// corpus under tests/corpus pins `ocdx all` for every scenario, and the
// CI batch diff pins `ocdx batch -j 8` == `-j 1`.
//
// The engine mode is carried in an explicit EngineContext on the driver
// options — the CLI never writes the deprecated process-global mode, so
// no global state survives any exit path.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/batch_runner.h"
#include "logic/budget.h"
#include "logic/engine_context.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "plan/shared_plan_table.h"
#include "snap/snapshot.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "text/dx_printer.h"
#include "util/fault.h"

namespace {

constexpr char kUsage[] =
    "usage: ocdx <chase|certain|classify|membership|compose|all|print> "
    "FILE.dx\n"
    "            [--engine=indexed|naive|generic] [--mapping=NAME]\n"
    "            [--sigma=NAME] [--delta=NAME] [--source=NAME] "
    "[--target=NAME]\n"
    "            [--chase-max-triggers=N] [--max-members=N] "
    "[--deadline-ms=N]\n"
    "            [--shards=N] [--stats] [--stats-json=FILE] "
    "[--trace-out=FILE]\n"
    "       ocdx batch FILE.dx... [-j N] [--command=CMD] "
    "[--engine=MODE]\n"
    "                  [--stats] [--stats-json=FILE] [--trace-out=FILE]\n"
    "       ocdx snapshot write FILE.dx OUT.snap [--engine=MODE] "
    "[budget flags]\n"
    "       ocdx snapshot read SNAP.snap\n"
    "       ocdx snapshot run SNAP.snap [--command=CMD] [--engine=MODE]\n"
    "                                   [--shards=N] [budget flags]\n"
    "exit codes: 0 ok, 1 error, 2 usage, 3 resource budget tripped\n";

bool FlagValue(std::string_view arg, std::string_view name,
               std::string* out) {
  if (arg.substr(0, 2) != "--") return false;
  std::string_view rest = arg.substr(2);
  // "--name=value", value possibly empty (reported as invalid downstream).
  if (rest.size() < name.size() + 1 ||
      rest.substr(0, name.size()) != name || rest[name.size()] != '=') {
    return false;
  }
  *out = std::string(rest.substr(name.size() + 1));
  return true;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t n = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

// End-of-run observability surfaces: --stats table to stderr, --stats-
// json and --trace-out to their files. Canonical stdout is never
// touched. Returns 0, or 1 on a file-write failure.
int EmitObservability(bool stats_table, const std::string& stats_json,
                      const std::string& trace_out,
                      const ocdx::EngineStats& stats,
                      const std::vector<ocdx::obs::TraceJob>& trace_jobs) {
  if (stats_table) {
    std::fputs(ocdx::obs::RenderStatsTable(stats).c_str(), stderr);
  }
  if (!stats_json.empty() &&
      !WriteTextFile(stats_json, ocdx::obs::RenderStatsJson(stats) + "\n")) {
    std::fprintf(stderr, "ocdx: cannot write '%s'\n", stats_json.c_str());
    return 1;
  }
  if (!trace_out.empty() &&
      !WriteTextFile(trace_out, ocdx::obs::RenderChromeTrace(trace_jobs))) {
    std::fprintf(stderr, "ocdx: cannot write '%s'\n", trace_out.c_str());
    return 1;
  }
  return 0;
}

bool ParseEngine(const std::string& engine, ocdx::JoinEngineMode* mode) {
  if (engine == "indexed") {
    *mode = ocdx::JoinEngineMode::kIndexed;
  } else if (engine == "naive") {
    *mode = ocdx::JoinEngineMode::kNaive;
  } else if (engine == "generic") {
    *mode = ocdx::JoinEngineMode::kGeneric;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocdx;

  // Deterministic fault injection (OCDX_FAULT=<site>:<n>), armed before
  // anything evaluates; a no-op unless the variable is set.
  fault::InstallFromEnv();

  std::vector<std::string> positional;
  std::string engine = "indexed";
  std::string jobs_flag;
  std::string command_flag;
  std::string chase_max_triggers_flag;
  std::string max_members_flag;
  std::string deadline_ms_flag;
  std::string shards_flag;
  std::string stats_json_flag;
  std::string trace_out_flag;
  bool stats_flag = false;
  DxDriverOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "-j") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ocdx: -j needs a worker count\n%s", kUsage);
        return 2;
      }
      jobs_flag = argv[++i];
      continue;
    }
    if (arg.size() > 2 && arg.substr(0, 2) == "-j") {  // make-style "-j8"
      jobs_flag = std::string(arg.substr(2));
      continue;
    }
    if (arg == "--stats") {
      stats_flag = true;
      continue;
    }
    if (FlagValue(arg, "engine", &engine) ||
        FlagValue(arg, "jobs", &jobs_flag) ||
        FlagValue(arg, "command", &command_flag) ||
        FlagValue(arg, "chase-max-triggers", &chase_max_triggers_flag) ||
        FlagValue(arg, "max-members", &max_members_flag) ||
        FlagValue(arg, "deadline-ms", &deadline_ms_flag) ||
        FlagValue(arg, "shards", &shards_flag) ||
        FlagValue(arg, "stats-json", &stats_json_flag) ||
        FlagValue(arg, "trace-out", &trace_out_flag) ||
        FlagValue(arg, "mapping", &options.mapping) ||
        FlagValue(arg, "sigma", &options.sigma) ||
        FlagValue(arg, "delta", &options.delta) ||
        FlagValue(arg, "source", &options.source) ||
        FlagValue(arg, "target", &options.target)) {
      continue;
    }
    if (arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "ocdx: unknown flag '%s'\n%s",
                   std::string(arg).c_str(), kUsage);
      return 2;
    }
    positional.emplace_back(arg);
  }
  if (positional.size() < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& command = positional[0];

  JoinEngineMode mode;
  if (!ParseEngine(engine, &mode)) {
    std::fprintf(stderr, "ocdx: unknown engine '%s'\n%s", engine.c_str(),
                 kUsage);
    return 2;
  }
  options.engine = EngineContext::ForMode(mode);

  struct BudgetFlag {
    const char* name;
    const std::string* value;
    uint64_t Budget::* field;
  };
  const BudgetFlag budget_flags[] = {
      {"--chase-max-triggers", &chase_max_triggers_flag,
       &Budget::chase_max_triggers},
      {"--max-members", &max_members_flag, &Budget::max_members},
      {"--deadline-ms", &deadline_ms_flag, &Budget::deadline_ms},
  };
  for (const BudgetFlag& bf : budget_flags) {
    if (bf.value->empty()) continue;
    uint64_t value = 0;
    if (!ParseU64(*bf.value, &value)) {
      std::fprintf(stderr, "ocdx: bad %s value '%s'\n%s", bf.name,
                   bf.value->c_str(), kUsage);
      return 2;
    }
    options.engine.budget.*(bf.field) = value;
  }

  if (!shards_flag.empty()) {
    uint64_t shards = 0;
    if (!ParseU64(shards_flag, &shards) || shards < 1 || shards > 64) {
      std::fprintf(stderr, "ocdx: bad --shards value '%s' (want 1..64)\n%s",
                   shards_flag.c_str(), kUsage);
      return 2;
    }
    options.engine.shards = static_cast<size_t>(shards);
  }

  // Observability attachment. Detached (the default) the ScopedSpan
  // instrumentation is two null checks per phase — nothing is timed,
  // nothing allocated. Batch ignores these pointers and gives every job
  // its own sinks; it aggregates into its report instead.
  EngineStats run_stats;
  obs::TraceSink trace_sink;
  if (stats_flag || !stats_json_flag.empty()) {
    options.engine.stats = &run_stats;
  }
  if (!trace_out_flag.empty()) options.engine.trace = &trace_sink;

  if (command == "batch") {
    BatchOptions batch;
    batch.engine = options.engine;
    batch.driver = options;
    batch.command = command_flag.empty() ? "all" : command_flag;
    if (!jobs_flag.empty()) {
      char* end = nullptr;
      long n = std::strtol(jobs_flag.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || n < 1 || n > 1024) {
        std::fprintf(stderr, "ocdx: bad -j value '%s'\n", jobs_flag.c_str());
        return 2;
      }
      batch.workers = static_cast<size_t>(n);
    }
    batch.collect_traces = !trace_out_flag.empty();
    std::vector<std::string> files(positional.begin() + 1, positional.end());
    Result<BatchReport> report = RunDxBatch(files, batch);
    if (!report.ok()) {
      std::fprintf(stderr, "ocdx: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::fputs(RenderBatchOutput(report.value()).c_str(), stdout);
    std::fputs(RenderBatchSummary(report.value(), batch).c_str(), stderr);
    std::vector<obs::TraceJob> trace_jobs;
    trace_jobs.reserve(report.value().traces.size());
    for (const BatchJobTrace& t : report.value().traces) {
      trace_jobs.push_back(obs::TraceJob{t.label, t.sink.get()});
    }
    int obs_rc = EmitObservability(stats_flag, stats_json_flag,
                                   trace_out_flag, report.value().stats,
                                   trace_jobs);
    if (obs_rc != 0) return obs_rc;
    // Hard failures dominate the exit code; a clean-but-governed batch
    // reports 3 so scripts can tell "completed under budget trips" from
    // both success and failure.
    if (!report.value().ok()) return 1;
    return report.value().governed_jobs > 0 ? 3 : 0;
  }

  if (command == "snapshot") {
    const std::string& sub = positional[1];
    if (sub == "write") {
      if (positional.size() != 4) {
        std::fprintf(stderr, "ocdx: snapshot write needs FILE.dx OUT.snap\n%s",
                     kUsage);
        return 2;
      }
      const std::string& dx_path = positional[2];
      const std::string& out_path = positional[3];
      Result<std::string> src = ReadDxFile(dx_path);
      if (!src.ok()) {
        std::fprintf(stderr, "ocdx: %s\n", src.status().ToString().c_str());
        return 1;
      }
      size_t prechased = 0;
      {
        // One span over build + serialize + write: the phase a warm
        // start amortizes away.
        obs::ScopedSpan span(options.engine.stats, options.engine.trace,
                             obs::kPhaseSnapWrite);
        Result<snap::SnapshotBundle> bundle = snap::BuildSnapshotBundle(
            dx_path, src.value(), options.engine);
        if (!bundle.ok()) {
          std::fprintf(stderr, "ocdx: %s: %s\n", dx_path.c_str(),
                       bundle.status().ToString().c_str());
          return 1;
        }
        Status written = snap::WriteSnapshotFile(bundle.value(), out_path);
        if (!written.ok()) {
          std::fprintf(stderr, "ocdx: %s\n", written.ToString().c_str());
          return 1;
        }
        prechased = bundle.value().prechased.size();
      }
      std::fprintf(stderr, "ocdx: wrote '%s' (%zu prechased pairs)\n",
                   out_path.c_str(), prechased);
      return EmitObservability(stats_flag, stats_json_flag, trace_out_flag,
                               run_stats,
                               {obs::TraceJob{"snapshot-write " + dx_path,
                                              &trace_sink}});
    }
    if (sub == "read" || sub == "run") {
      if (positional.size() != 3) {
        std::fprintf(stderr, "ocdx: snapshot %s needs one SNAP file\n%s",
                     sub.c_str(), kUsage);
        return 2;
      }
      std::optional<Result<snap::SnapshotBundle>> bundle;
      {
        obs::ScopedSpan span(options.engine.stats, options.engine.trace,
                             obs::kPhaseSnapLoad);
        bundle.emplace(snap::LoadSnapshotFile(positional[2]));
      }
      if (!bundle->ok()) {
        std::fprintf(stderr, "ocdx: %s\n",
                     bundle->status().ToString().c_str());
        return 1;
      }
      int exit_code = 0;
      if (sub == "read") {
        std::fputs(snap::DescribeSnapshot(bundle->value()).c_str(), stdout);
      } else {
        std::string run_command = command_flag.empty() ? "all" : command_flag;
        Status governed;
        // One plan table per loaded bundle, exactly like ocdxd --preload
        // serving — a single CLI run compiles each query once even when
        // the command fans out across shards.
        plan::SharedPlanTable snapshot_plans;
        DxDriverOptions run_options = options;
        if (plan::SharedPlanTable::EnabledByEnv() &&
            !run_options.engine.plan_cache_opt_out) {
          run_options.engine.shared_plans = &snapshot_plans;
        }
        std::optional<Result<std::string>> out;
        {
          obs::ScopedSpan span(options.engine.stats, options.engine.trace,
                               obs::kPhaseJob);
          out.emplace(snap::RunSnapshotCommand(bundle->value(), run_command,
                                               run_options, &governed));
        }
        if (!out->ok()) {
          std::fprintf(stderr, "ocdx: %s: %s\n", positional[2].c_str(),
                       out->status().ToString().c_str());
          return 1;
        }
        std::fputs(out->value().c_str(), stdout);
        exit_code = governed.ok() ? 0 : 3;
      }
      int obs_rc = EmitObservability(
          stats_flag, stats_json_flag, trace_out_flag, run_stats,
          {obs::TraceJob{"snapshot-" + sub + " " + positional[2],
                         &trace_sink}});
      return obs_rc != 0 ? obs_rc : exit_code;
    }
    std::fprintf(stderr, "ocdx: unknown snapshot subcommand '%s'\n%s",
                 sub.c_str(), kUsage);
    return 2;
  }

  if (positional.size() != 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& path = positional[1];

  Result<std::string> src = ReadDxFile(path);
  if (!src.ok()) {
    std::fprintf(stderr, "ocdx: %s\n", src.status().ToString().c_str());
    return 1;
  }

  int exit_code = 0;
  {
    // The job span brackets parse + command, mirroring one batch job.
    obs::ScopedSpan job_span(options.engine.stats, options.engine.trace,
                             obs::kPhaseJob);
    Universe universe;
    std::optional<Result<DxScenario>> scenario;
    {
      obs::ScopedSpan parse_span(options.engine.stats, options.engine.trace,
                                 obs::kPhaseParse);
      scenario.emplace(ParseDxScenario(src.value(), &universe));
    }
    if (!scenario->ok()) {
      std::fprintf(stderr, "ocdx: %s: %s\n", path.c_str(),
                   scenario->status().ToString().c_str());
      return 1;
    }

    if (command == "print") {
      std::fputs(PrintDxScenario(scenario->value(), universe).c_str(),
                 stdout);
    } else {
      Status governed;
      Result<std::string> out = RunDxCommand(scenario->value(), command,
                                             &universe, options, &governed);
      if (!out.ok()) {
        std::fprintf(stderr, "ocdx: %s: %s\n", path.c_str(),
                     out.status().ToString().c_str());
        return 1;
      }
      std::fputs(out.value().c_str(), stdout);
      exit_code = governed.ok() ? 0 : 3;
    }
  }
  int obs_rc =
      EmitObservability(stats_flag, stats_json_flag, trace_out_flag,
                        run_stats, {obs::TraceJob{"job-0 " + path,
                                                  &trace_sink}});
  return obs_rc != 0 ? obs_rc : exit_code;
}
