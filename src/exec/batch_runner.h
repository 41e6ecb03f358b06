// Parallel batch execution of `.dx` scenario workloads.
//
// The runner fans a set of scenario files across a fixed-size thread
// pool (exec/pool.h); the unit of scheduling is the file. A worker reads
// and parses the file once into a base Universe, slices its command into
// the independent jobs enumerated by PlanDxJobs (text/dx_driver.h), and
// runs the jobs in plan order, each on its own copy-on-write overlay of
// the base (RunDxCommandOnOverlay). A file's jobs share the base's
// relations — whose indexes build lazily on first probe — and one plan
// cache, so they run in sequence on the file's worker. Per-file
// canonical output is then reassembled in input order.
//
// Determinism contract (pinned by tests/batch_exec_test.cc and the CI
// corpus diff): RenderBatchOutput is *byte-identical* for every worker
// count, including workers = 1, under every engine mode. This falls out
// of three rules rather than any synchronization:
//
//   1. a file's parse, and everything built over it, stays on the one
//      worker that runs the file; each job runs on its own copy-on-write
//      overlay of the parsed base, whose mints continue the base's ids
//      exactly as a fresh parse's would (debug-asserted by Universe);
//   2. job outputs are canonical text (sorted rendering, justification-
//      keyed null names), insensitive to interning order;
//   3. results land in input-indexed per-file slots; concatenation
//      order is input order, then plan order — never completion order.
//
// Timing and throughput live only in RenderBatchSummary, which is
// intentionally not byte-stable.

#ifndef OCDX_EXEC_BATCH_RUNNER_H_
#define OCDX_EXEC_BATCH_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "logic/engine_context.h"
#include "obs/trace.h"
#include "text/dx_driver.h"
#include "util/status.h"

namespace ocdx {

struct BatchOptions {
  /// Worker threads; 1 = the sequential runner (same code path).
  size_t workers = 1;
  /// Driver command to run on every file ("all", "chase", ...).
  std::string command = "all";
  /// Engine template for every job (mode and budgets are copied per job;
  /// the stats, trace and plan-cache pointers are ignored — each job gets
  /// its own sinks, each file its own cache).
  EngineContext engine;
  /// Give every job its own obs::TraceSink and return the sinks on the
  /// report (BatchReport::traces, plan order) for a merged Chrome
  /// trace. Stdout stays byte-identical either way.
  bool collect_traces = false;
  /// Extra driver selection applied to every file (mapping/sigma/...).
  DxDriverOptions driver;
};

/// Per-file slice of the report, in input order.
struct BatchFileReport {
  std::string file;
  Status status;       ///< OK iff planning and every job succeeded.
  /// First budget/deadline/cancellation trip among the file's jobs (OK
  /// when none). Orthogonal to `status`: a governed file still produced
  /// complete, deterministic output with inline `error ...` lines.
  Status governed;
  std::string output;  ///< Concatenated job outputs; failed jobs render a
                       ///< deterministic "ocdx: error:" line in place.
  size_t jobs = 0;
  double millis = 0;   ///< Wall time of the file's task: read, parse,
                       ///< plan and every job.
};

/// One job's trace, labeled for the merged Chrome render (the label
/// becomes the thread name; the job's index in plan order across the
/// batch fixes its tid block, so traces are stably laid out for every
/// worker count).
struct BatchJobTrace {
  std::string label;  ///< "job-<index> <file>".
  std::unique_ptr<obs::TraceSink> sink;
};

struct BatchReport {
  std::vector<BatchFileReport> files;  ///< Input order.
  size_t total_jobs = 0;
  size_t governed_jobs = 0;  ///< Jobs that tripped a budget/deadline/cancel.
  double wall_millis = 0;  ///< End-to-end batch wall time.
  EngineStats stats;       ///< Aggregated over all jobs.
  /// Per-job sinks in plan order across the batch (only when
  /// BatchOptions::collect_traces was set).
  std::vector<BatchJobTrace> traces;

  bool ok() const {
    for (const BatchFileReport& f : files) {
      if (!f.status.ok()) return false;
    }
    return true;
  }
};

/// Reads, plans, and executes `files` under `options`. Only hard setup
/// errors (no input files) fail the call itself; per-file read/parse/run
/// failures are recorded in the report.
Result<BatchReport> RunDxBatch(const std::vector<std::string>& files,
                               const BatchOptions& options);

/// The canonical, worker-count-independent stdout block:
///   ==> FILE <==
///   <canonical command output>
/// per file, in input order.
std::string RenderBatchOutput(const BatchReport& report);

/// Human-readable timing/throughput summary (stderr material; not
/// byte-stable across runs).
std::string RenderBatchSummary(const BatchReport& report,
                               const BatchOptions& options);

/// Reads a file into a string (NotFound on failure) — the one
/// read-the-scenario routine shared by the batch runner, the `ocdx` CLI
/// and the `ocdxd` server, so "cannot read '<path>'" stays one message.
Result<std::string> ReadDxFile(const std::string& path);

/// Parses `source` and runs one driver command against it: one cold
/// `ocdxd` request, timed like a batch job (job span around parse and
/// command).
/// `governed` (optional) receives the first budget/deadline/cancellation
/// trip, exactly as in RunDxCommand.
Result<std::string> RunDxFile(const std::string& path,
                              const std::string& source,
                              const std::string& command,
                              const DxDriverOptions& options,
                              Status* governed = nullptr);

}  // namespace ocdx

#endif  // OCDX_EXEC_BATCH_RUNNER_H_
