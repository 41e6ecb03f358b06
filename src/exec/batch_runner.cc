#include "exec/batch_runner.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "exec/pool.h"
#include "obs/report.h"
#include "text/dx_parser.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace ocdx {

namespace {

/// The outcome of one job, in plan order within its file.
struct BatchJobResult {
  Status status;
  /// First budget/deadline/cancellation trip inside the job (OK when
  /// none). A governed job still has status OK and full output — the trip
  /// renders inline as positioned `error ...` lines (see RunDxCommand) —
  /// so governance never breaks batch byte-identity or stops the batch.
  Status governed;
  /// prefix + canonical command text, or prefix + a deterministic
  /// "ocdx: error:" line when the job failed.
  std::string output;
  /// This job's counters and timers; the file's first job also carries
  /// the file's read, parse and plan.
  EngineStats stats;
  /// The job's span buffer (only with BatchOptions::collect_traces); the
  /// first job's holds the file's `dx-parse` span.
  std::unique_ptr<obs::TraceSink> trace;
};

std::unique_ptr<obs::TraceSink> NewJobSink(const BatchOptions& options) {
  return options.collect_traces ? std::make_unique<obs::TraceSink>()
                                : nullptr;
}

/// Runs one planned job on a fresh overlay of the file's parsed base,
/// under `result`'s stats and trace sink. The caller holds the job span.
void RunJob(const DxScenario& scenario, const Universe& base,
            const DxJobSpec& spec, BatchJobResult* result) {
  DxDriverOptions options = spec.options;
  options.engine.stats = &result->stats;
  options.engine.trace = result->trace.get();
  Result<std::string> text = RunDxCommandOnOverlay(
      scenario, spec.command, base, options, &result->governed);
  if (text.ok()) {
    result->output = StrCat(spec.prefix, text.value());
  } else {
    result->status = text.status();
    result->output = StrCat(spec.prefix, "ocdx: error: ",
                            text.status().ToString(), "\n");
  }
  // Cancellation has no in-engine trip counter (the flag is observed at
  // many sites); count it per job, where it is well-defined.
  if (result->governed.code() == StatusCode::kCancelled) {
    ++result->stats.cancelled_jobs;
  }
}

/// One file, start to finish, on the calling worker: one read, one parse
/// into a base Universe, one plan, then every planned job in plan order.
/// The read, parse and plan are charged to the first job — they run
/// inside its job span, on its stats and trace sink — and the file's
/// wall time to `report->millis`. Returns the jobs' results in plan
/// order; a file that fails before planning has none.
std::vector<BatchJobResult> RunFile(const std::string& path,
                                    const BatchOptions& options,
                                    BatchFileReport* report) {
  Stopwatch timer;
  report->file = path;
  auto fail = [&](Status status) {
    report->status = std::move(status);
    report->millis = timer.ElapsedMillis();
    return std::vector<BatchJobResult>{};
  };

  BatchJobResult first;
  first.trace = NewJobSink(options);
  Universe base;
  std::optional<Result<DxScenario>> scenario;
  std::vector<DxJobSpec> specs;
  {
    obs::ScopedSpan job_span(&first.stats, first.trace.get(), obs::kPhaseJob);
    Result<std::string> source = ReadDxFile(path);
    if (!source.ok()) return fail(source.status());
    {
      obs::ScopedSpan parse_span(&first.stats, first.trace.get(),
                                 obs::kPhaseParse);
      scenario.emplace(ParseDxScenario(source.value(), &base));
    }
    if (!scenario->ok()) return fail(scenario->status());

    // One plan table for the file: its jobs run in sequence on this
    // thread, so later jobs reuse the plans earlier ones compiled.
    DxDriverOptions file_options = options.driver;
    file_options.engine = options.engine;
    file_options.engine.stats = nullptr;
    file_options.engine.trace = nullptr;
    file_options.engine.plan_cache = nullptr;
    file_options.engine.EnsureCache();
    Result<std::vector<DxJobSpec>> plan =
        PlanDxJobs(scenario->value(), options.command, file_options);
    if (!plan.ok()) return fail(plan.status());
    specs = std::move(plan).value();
    // PlanDxJobs plans at least one job or fails.
    RunJob(scenario->value(), base, specs[0], &first);
  }

  std::vector<BatchJobResult> jobs(specs.size());
  jobs[0] = std::move(first);
  for (size_t i = 1; i < specs.size(); ++i) {
    jobs[i].trace = NewJobSink(options);
    obs::ScopedSpan job_span(&jobs[i].stats, jobs[i].trace.get(),
                             obs::kPhaseJob);
    RunJob(scenario->value(), base, specs[i], &jobs[i]);
  }

  report->jobs = jobs.size();
  for (const BatchJobResult& job : jobs) {
    report->output += job.output;
    if (report->status.ok()) report->status = job.status;
    if (report->governed.ok()) report->governed = job.governed;
  }
  report->millis = timer.ElapsedMillis();
  return jobs;
}

}  // namespace

Result<std::string> ReadDxFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot read '", path, "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Result<std::string> RunDxFile(const std::string& path,
                              const std::string& source,
                              const std::string& command,
                              const DxDriverOptions& options,
                              Status* governed) {
  // The job span brackets parse + command, exactly as in RunJob — so an
  // ocdxd request and a batch job time identically.
  obs::ScopedSpan job_span(options.engine.stats, options.engine.trace,
                           obs::kPhaseJob);
  Universe universe;
  std::optional<Result<DxScenario>> scenario;
  {
    obs::ScopedSpan parse_span(options.engine.stats, options.engine.trace,
                               obs::kPhaseParse);
    scenario.emplace(ParseDxScenario(source, &universe));
  }
  if (!scenario->ok()) {
    return Status(scenario->status().code(),
                  StrCat(path, ": ", scenario->status().message()));
  }
  return RunDxCommand(scenario->value(), command, &universe, options,
                      governed);
}

Result<BatchReport> RunDxBatch(const std::vector<std::string>& files,
                               const BatchOptions& options) {
  if (files.empty()) {
    return Status::InvalidArgument("batch needs at least one input file");
  }

  Stopwatch wall;
  BatchReport report;
  report.files.resize(files.size());

  // Execution: one task per file. Each task writes only its own report
  // slot and job list, so assembly below is independent of completion
  // order.
  std::vector<std::vector<BatchJobResult>> jobs(files.size());
  if (options.workers <= 1) {
    for (size_t f = 0; f < files.size(); ++f) {
      jobs[f] = RunFile(files[f], options, &report.files[f]);
    }
  } else {
    ThreadPool pool(options.workers);
    for (size_t f = 0; f < files.size(); ++f) {
      pool.Submit([&files, &options, &report, &jobs, f] {
        jobs[f] = RunFile(files[f], options, &report.files[f]);
      });
    }
    // ~ThreadPool drains the queue and joins.
  }

  // Deterministic assembly in plan order. Trace handoff follows it: the
  // i-th job of the batch always lands at traces[i], so the merged
  // render's tid layout is identical for every -j.
  for (size_t f = 0; f < files.size(); ++f) {
    for (BatchJobResult& job : jobs[f]) {
      report.stats += job.stats;
      if (!job.governed.ok()) ++report.governed_jobs;
      if (options.collect_traces) {
        report.traces.push_back(BatchJobTrace{
            StrCat("job-", report.total_jobs, " ", files[f]),
            std::move(job.trace)});
      }
      ++report.total_jobs;
    }
  }
  report.wall_millis = wall.ElapsedMillis();
  return report;
}

std::string RenderBatchOutput(const BatchReport& report) {
  std::string out;
  for (const BatchFileReport& f : report.files) {
    out += StrCat("==> ", f.file, " <==\n");
    if (f.jobs == 0 && !f.status.ok()) {
      // Planning-level failure (unreadable file, parse error, no
      // applicable inputs): still rendered deterministically.
      out += StrCat("ocdx: error: ", f.status.ToString(), "\n");
    } else {
      out += f.output;
    }
  }
  return out;
}

std::string RenderBatchSummary(const BatchReport& report,
                               const BatchOptions& options) {
  size_t failed = 0;
  double file_millis = 0;
  for (const BatchFileReport& f : report.files) {
    if (!f.status.ok()) ++failed;
    file_millis += f.millis;
  }
  std::string out = StrCat(
      "batch: ", report.files.size(), " file(s), ", report.total_jobs,
      " job(s), ", options.workers, " worker(s), command=", options.command,
      "\n");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "batch: wall %.2f ms, cpu (sum of files) %.2f ms, "
                "speedup %.2fx\n",
                report.wall_millis, file_millis,
                report.wall_millis > 0 ? file_millis / report.wall_millis
                                       : 0.0);
  out += buf;
  out += StrCat("batch: engine stats: cq_plans=", report.stats.cq_plans,
                ", generic_evals=", report.stats.generic_evals,
                ", chase_triggers=", report.stats.chase_triggers,
                ", hom_steps=", report.stats.hom_steps,
                ", repa_steps=", report.stats.repa_steps, "\n");
  out += StrCat("batch: plan stats: compiles=", report.stats.plan_compiles,
                ", cache_hits=", report.stats.plan_cache_hits,
                ", cache_misses=", report.stats.plan_cache_misses,
                ", guard_depth_fallbacks=",
                report.stats.guard_depth_fallbacks, "\n");
  if (std::optional<double> rate = obs::PlanHitRate(report.stats)) {
    std::snprintf(buf, sizeof(buf), "batch: plan cache hit rate: %.1f%%\n",
                  100.0 * *rate);
    out += buf;
  } else {
    out += "batch: plan cache hit rate: n/a (no lookups)\n";
  }
  std::snprintf(buf, sizeof(buf),
                "batch: phase ms: parse=%.2f chase=%.2f plan_compile=%.2f "
                "plan_bind=%.2f member_enum=%.2f hom=%.2f repa=%.2f\n",
                static_cast<double>(report.stats.parse_ns) / 1e6,
                static_cast<double>(report.stats.chase_ns) / 1e6,
                static_cast<double>(report.stats.plan_compile_ns) / 1e6,
                static_cast<double>(report.stats.plan_bind_ns) / 1e6,
                static_cast<double>(report.stats.member_enum_ns) / 1e6,
                static_cast<double>(report.stats.hom_search_ns) / 1e6,
                static_cast<double>(report.stats.repa_search_ns) / 1e6);
  out += buf;
  out += StrCat("batch: governance: chase_budget_trips=",
                report.stats.chase_budget_trips, ", deadline_trips=",
                report.stats.deadline_trips, ", cancelled_jobs=",
                report.stats.cancelled_jobs, ", governed_jobs=",
                report.governed_jobs, "\n");
  if (failed > 0) out += StrCat("batch: ", failed, " file(s) FAILED\n");
  return out;
}

}  // namespace ocdx
