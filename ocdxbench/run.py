#!/usr/bin/env python3
"""End-to-end benchmark for ocdx: batch ingest, cold and warm ocdxd
exchange serving, and a per-layer traced replay.

  python3 ocdxbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 ocdxbench/run.py --workload all --seed N      (all three, table)
  python3 ocdxbench/run.py --selfcheck                  (the benchmark's
                                                         own checks)

Run it from the repository root. It builds the release `ocdx`, `ocdxd`
and the native tools (native/) under .bench_build/, generates the
workload's inputs from the seed (gen.py) under .bench_build/work/, computes
every (file, command) reference once with the cold CLI, then measures.

Workloads (one client, closed loop):
  ingest_batch   one `ocdx batch -j 1 --command=all FILE` per op
  exchange_cold  one `ocdxd serve --shards=1`; each op is one request of a
                 fixed seeded mix of chase/certain/membership/compose;
                 every request parses its file fresh
  exchange_warm  the same files and requests, served by
                 `ocdxd --preload` from snapshots written at set-up

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(from native/replay.cc). Every op's output is compared byte for byte with
its reference. The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import sys

sys.dont_write_bytecode = True  # the benchmark writes only under .bench_build

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402

BUILD = ".bench_build"          # relative to ROOT, like every path below
OCDX_BUILD = os.path.join(BUILD, "ocdx")
NATIVE_BUILD = os.path.join(BUILD, "native")
OCDX = os.path.join(OCDX_BUILD, "ocdx")
OCDXD = os.path.join(OCDX_BUILD, "ocdxd")
REPLAY = os.path.join(NATIVE_BUILD, "replay")
RUSAGE_EXEC = os.path.join(NATIVE_BUILD, "rusage_exec")

WORKLOADS = ("ingest_batch", "exchange_cold", "exchange_warm")
DEADLINE_MS = 10000   # carried by every op; a trip counts as a failure
SETUP_REPEATS = 3     # set-ups per run; setup_s is their median
NP_SHARE = 0.25       # stated share of coNP/NP requests in the exchange mix

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("exec.jobs_per_file", "count"),
    ("exec.parses_per_file", "count"),
    ("exec.batch_ms_per_file", "ms"),
    ("exec.unattributed_ms_per_file", "ms"),
    ("exec.self_ms_per_op", "ms"),
    ("text.parse_ms_per_op", "ms"),
    ("text.parse_mb_per_s", "MB/s"),
    ("text.parse_calls_per_op", "count"),
    ("text.output_kb_per_op", "KB"),
    ("text.driver_residual_ms_per_op", "ms"),
    ("text.self_ms_per_op", "ms"),
    ("chase.ms_per_op", "ms"),
    ("chase.triggers_per_op", "count"),
    ("chase.triggers_per_s", "1/s"),
    ("plan.compiles_per_op", "count"),
    ("plan.compile_ms_per_op", "ms"),
    ("plan.bind_ms_per_op", "ms"),
    ("plan.hit_rate", "1"),
    ("plan.guard_depth_fallbacks", "count"),
    ("certain.ms_per_op", "ms"),
    ("certain.member_enum_ms_per_op", "ms"),
    ("certain.members_per_op", "count"),
    ("certain.members_per_s", "1/s"),
    ("semantics.membership_ms_per_op", "ms"),
    ("semantics.repa_steps_per_op", "count"),
    ("semantics.hom_steps_per_op", "count"),
    ("semantics.repa_ms_per_op", "ms"),
    ("semantics.hom_ms_per_op", "ms"),
    ("semantics.self_ms_per_op", "ms"),
    ("compose.ms_per_op", "ms"),
    ("compose.self_ms_per_op", "ms"),
    ("skolem.compose_ms_per_op", "ms"),
    ("snap.write_ms", "ms"),
    ("snap.load_ms", "ms"),
    ("snap.bytes_per_source_byte", "1"),
    ("snap.run_ms_per_op", "ms"),
    ("snap.overlay_mints_per_op", "count"),
    ("snap.self_ms_per_op", "ms"),
    ("base.source_rows_per_op", "count"),
    ("base.target_rows_per_op", "count"),
    ("base.constants_per_op", "count"),
    ("obs.op_ms_per_op", "ms"),
    ("obs.trace_overhead_frac", "1"),
    ("obs.phase_coverage_frac", "1"),
)


class BenchError(Exception):
    """Set-up failed (build, inputs, references): no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _cmake(args, logf):
    rc = subprocess.call(["cmake"] + args, stdout=logf, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("cmake %s failed (see %s/build.log)"
                         % (" ".join(args[:2]), BUILD))


def build(trace):
    """Builds the release binaries and the native tools (the replay only
    for traced runs) from the checkout."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.log"), "ab") as logf:
        if not os.path.exists(os.path.join(OCDX_BUILD, "CMakeCache.txt")):
            _cmake(["-S", ".", "-B", OCDX_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], logf)
        _cmake(["--build", OCDX_BUILD, "-j", jobs,
                "--target", "ocdx_cli", "ocdxd"], logf)
        if not os.path.exists(os.path.join(NATIVE_BUILD, "CMakeCache.txt")):
            _cmake(["-S", os.path.join(HERE, "native"), "-B", NATIVE_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DOCDX_ROOT=" + ROOT,
                    "-DOCDX_LIB=" + os.path.join(ROOT, OCDX_BUILD,
                                                 "libocdx.a")], logf)
        _cmake(["--build", NATIVE_BUILD, "-j", jobs, "--target", "rusage_exec"]
               + (["replay"] if trace else []), logf)


# ---------------------------------------------------------------------------
# inputs and references
# ---------------------------------------------------------------------------

class Inputs:
    """Generated files plus the op list and the reference output of each
    op. ops: [(command, path)]; expected: {(command, path): bytes}."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.dir = os.path.join(BUILD, "work", workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        if workload == "ingest_batch":
            files = gen.ingest_inputs(seed)
            same = files == gen.ingest_inputs(seed)
            families = {name: "ingest" for name in files}
            requests = [["batch", name] for name in sorted(files)]
        else:
            files, families, requests = gen.exchange_inputs(seed)
            same = (files, families, requests) == gen.exchange_inputs(seed)
        if not same:
            raise BenchError("generator is not deterministic for seed %d"
                             % seed)
        gen.write_files(files, self.dir)
        self.path = {name: os.path.join(self.dir, name) for name in files}
        self.family = {self.path[n]: f for n, f in families.items()}
        self.ops = [(cmd, self.path[name]) for cmd, name in requests]
        self.expected = {}
        self.checks = {}

    def np_share(self):
        return sum(self.family[p] == "np" for _, p in self.ops) / len(self.ops)

    def compute_references(self):
        """One cold `ocdx CMD FILE` per distinct op (NP files also under
        --engine=naive), outside any timed window."""
        labels_ok = True
        naive_ok = True
        for cmd, path in sorted(set(self.ops)):
            ref_cmd = "all" if cmd == "batch" else cmd
            out = _cli([ref_cmd, path])
            if cmd == "batch":
                out = ("==> %s <==\n" % path).encode() + out
            elif self.family[path] == "np":
                naive_ok &= _cli([ref_cmd, path, "--engine=naive"]) == out
            labels_ok &= _complexity_ok(self.family[path], cmd, out)
            self.expected[(cmd, path)] = out
        self.checks["references agree with --engine=naive"] = naive_ok
        self.checks["PTIME/NP labels match the file families"] = labels_ok
        if self.workload != "ingest_batch":
            self.checks["NP share of the mix is %.2f" % NP_SHARE] = (
                self.np_share() == NP_SHARE)


def _cli(args):
    p = subprocess.run([OCDX] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=120)
    if p.returncode != 0:
        raise BenchError("reference `ocdx %s` exited %d: %s"
                         % (" ".join(args), p.returncode,
                            p.stderr.decode(errors="replace")[:500]))
    return p.stdout


def _complexity_ok(family, cmd, out):
    """PTIME files must be answered only by the PTIME paths; each NP-family
    request must reach an NP/coNP procedure."""
    text = out.decode()
    if family == "ptime":
        if cmd == "certain":
            labels = [l for l in text.splitlines() if "[" in l]
            return bool(labels) and all("PTIME" in l for l in labels)
        return "error" not in text
    if family == "np":
        return "NP" in text
    return True


# ---------------------------------------------------------------------------
# end-to-end measurement
# ---------------------------------------------------------------------------
#
# A run is a sequence of passes over the workload's op list. Every op of
# every timed pass is checked and measured: its wall latency (request
# write or process spawn to the last output byte or exit) and the CPU
# time the program process spent on it. The metrics are read from each
# op's best repetition in the run, because on a shared host the median
# of a window drifts by +-20% with neighbour load while an op's fastest
# repetition stays within a few percent (NOTES.md, "Noise"):
#
#   latency_p50_ms / p90_ms   nearest-rank percentiles, over the ops of
#                             the list, of each op's best latency
#   cpu_ms_per_op             mean over the ops of each op's least CPU
#   ops_per_s                 closed-loop throughput of the one client at
#                             those latencies: ops / sum of best latencies
#   peak_rss_mb               peak RSS of the program process: the
#                             largest `ocdx batch` ru_maxrss, or the
#                             `ocdxd` VmHWM read before it quits
#   setup_s                   median of SETUP_REPEATS set-ups


def _percentile(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def _cpu_clock(pid):
    """The CPU-time clock of another process (clock_getcpuclockid)."""
    return ((~pid) << 3) | 2


class Samples:
    """Checked, measured ops: per op-list index, (wall s, cpu s) pairs."""

    def __init__(self, n_ops):
        self.per_op = [[] for _ in range(n_ops)]
        self.attempted = 0
        self.failed = 0

    def add(self, index, ok, wall, cpu):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.per_op[index].append((wall, cpu))

    def count(self):
        return sum(len(s) for s in self.per_op)


class Server:
    """One `ocdxd serve` process driven over its stdin/stdout protocol."""

    def __init__(self, extra_args, stderr_path):
        self.err = open(stderr_path, "ab")
        self.p = subprocess.Popen(
            [OCDXD, "serve", "--shards=1"] + extra_args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err)
        self.clock = _cpu_clock(self.p.pid)

    def request(self, cmd, path):
        """Returns (status word, payload, wall s, server cpu s)."""
        line = ("%s %s deadline-ms=%d\n" % (cmd, path, DEADLINE_MS)).encode()
        cpu = time.clock_gettime(self.clock)
        start = time.perf_counter()
        self.p.stdin.write(line)
        self.p.stdin.flush()
        header = self.p.stdout.readline()
        if not header:
            raise BenchError("ocdxd exited during a request")
        word, _, size = header.decode(errors="replace").strip().partition(" ")
        payload = b""
        if word in ("ok", "governed"):
            payload = self.p.stdout.read(int(size))
        wall = time.perf_counter() - start
        return word, payload, wall, time.clock_gettime(self.clock) - cpu

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for ocdxd")

    def stop(self):
        try:
            self.p.stdin.write(b"quit\n")
            self.p.stdin.close()
        except BrokenPipeError:
            pass
        self.p.stdout.close()
        self.p.wait()
        self.err.close()

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            self.p.wait()
        self.err.close()


def _serve_pass(server, inputs, samples):
    for i, (cmd, path) in enumerate(inputs.ops):
        word, payload, wall, cpu = server.request(cmd, path)
        ok = word == "ok" and payload == inputs.expected[(cmd, path)]
        samples.add(i, ok, wall, cpu)


def _start_server(inputs, warm, samples):
    """One set-up: (snapshot writes and) server start plus one untimed
    warm-up pass over the mix. Returns (server, seconds)."""
    start = time.perf_counter()
    extra = []
    if warm:
        for i, path in enumerate(sorted(inputs.family)):
            snap = os.path.join(inputs.dir, "file_%d.snap" % i)
            p = subprocess.run([OCDX, "snapshot", "write", path, snap],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=120)
            if p.returncode != 0:
                raise BenchError("`ocdx snapshot write %s` exited %d"
                                 % (path, p.returncode))
            extra.append("--preload=" + snap)
    server = Server(extra, os.path.join(inputs.dir, "ocdxd.stderr"))
    try:
        _serve_pass(server, inputs, samples)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


def measure_exchange(inputs, seconds, warm):
    setup = Samples(len(inputs.ops))
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = _start_server(inputs, warm, setup)
            setups.append(elapsed)
        timed = Samples(len(inputs.ops))
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            _serve_pass(server, inputs, timed)
        rss = server.peak_rss_kb()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    return _e2e(setups, setup, timed, rss)


def _batch_pass(inputs, samples):
    """One `ocdx batch` per file; returns the largest ru_maxrss (KB)."""
    rss = 0
    usage_path = os.path.join(inputs.dir, "rusage.txt")
    for i, (cmd, path) in enumerate(inputs.ops):
        start = time.perf_counter()
        p = subprocess.Popen([RUSAGE_EXEC, usage_path, OCDX, "batch", "-j",
                              "1", "--command=all",
                              "--deadline-ms=%d" % DEADLINE_MS, path],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        out = p.stdout.read()
        p.stdout.close()
        p.wait()
        wall = time.perf_counter() - start
        with open(usage_path) as f:
            user, system, maxrss = f.read().split()
        ok = p.returncode == 0 and out == inputs.expected[(cmd, path)]
        samples.add(i, ok, wall, float(user) + float(system))
        rss = max(rss, int(maxrss))
    return rss


def measure_ingest(inputs, seconds):
    setup = Samples(len(inputs.ops))
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _batch_pass(inputs, setup)
        setups.append(time.perf_counter() - start)
    timed = Samples(len(inputs.ops))
    rss = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rss = max(rss, _batch_pass(inputs, timed))
    return _e2e(setups, setup, timed, rss)


def _e2e(setups, setup, timed, maxrss_kb):
    best_wall = [min(w for w, _ in s) for s in timed.per_op]
    best_cpu = [min(c for _, c in s) for s in timed.per_op]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best_wall) / sum(best_wall),
        "latency_p50_ms": _percentile(best_wall, 0.50) * 1e3,
        "latency_p90_ms": _percentile(best_wall, 0.90) * 1e3,
        "cpu_ms_per_op": statistics.mean(best_cpu) * 1e3,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    return (values, timed.attempted + setup.attempted,
            timed.failed + setup.failed, timed.count())


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

def measure_trace(inputs, seconds):
    refs = os.path.join(inputs.dir, "refs")
    os.makedirs(refs, exist_ok=True)
    ops_tsv = os.path.join(inputs.dir, "ops.tsv")
    with open(ops_tsv, "w") as f:
        for i, (cmd, path) in enumerate(inputs.ops):
            ref = os.path.join(refs, "%d.out" % i)
            with open(ref, "wb") as r:
                r.write(inputs.expected[(cmd, path)])
            f.write("%s\t%s\t%s\n" % (cmd, path, ref))
    p = subprocess.run([REPLAY, inputs.workload, ops_tsv, str(seconds),
                        str(DEADLINE_MS)], stdout=subprocess.PIPE,
                       timeout=seconds * 2 + 60)
    if p.returncode != 0:
        raise BenchError("replay exited %d" % p.returncode)
    out = json.loads(p.stdout.decode().strip().splitlines()[-1])
    for name in out["unbound"]:
        log("trace: span %s is unbound; its layer reads 0" % name)
    m = out["metrics"]
    missing = [name for name, _ in PER_LAYER if name not in m]
    if missing:
        raise BenchError("replay did not report %s" % ", ".join(missing))
    return {name: m[name] for name, _ in PER_LAYER}, out["attempted"], \
        out["failed"]


def structural_checks(workload, m):
    """(gating, informational) predictions on the per-layer metrics.
    Gating ones are invariants of the design; the informational one
    describes today's batch runner, which later work is meant to change."""
    gating, info = {}, {}
    if workload == "exchange_warm":
        gating["warm: text.parse_calls_per_op == 0"] = (
            m["text.parse_calls_per_op"] == 0)
        gating["warm: chase.triggers_per_op == 0"] = (
            m["chase.triggers_per_op"] == 0)
    if workload == "ingest_batch":
        info["ingest: exec.parses_per_file == 1 + exec.jobs_per_file"] = (
            m["exec.parses_per_file"] == 1 + m["exec.jobs_per_file"])
    return gating, info


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def declared_names():
    """Metric names declared in BENCHMARK.json, or None if it is absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return ([e["name"] for e in spec["end_to_end"]],
            [e["name"] for e in spec["per_layer"]])


def run_workload(workload, seed, seconds, trace):
    inputs = Inputs(workload, seed)
    inputs.compute_references()
    checks = dict(inputs.checks)
    declared = declared_names()
    units = dict(PER_LAYER if trace else END_TO_END)
    if trace:
        values, attempted, failed = measure_trace(inputs, seconds)
        gating, info = structural_checks(workload, values)
        checks.update(gating)
        for name, ok in info.items():
            log("prediction %s: %s" % ("holds" if ok else "does not hold",
                                       name))
        samples = None
    else:
        if workload == "ingest_batch":
            result = measure_ingest(inputs, seconds)
        else:
            result = measure_exchange(inputs, seconds,
                                      warm=workload == "exchange_warm")
        values, attempted, failed, samples = result
    names = list(values)
    checks["metric names match BENCHMARK.json"] = (
        declared is not None and names == declared[1 if trace else 0])
    for name, ok in checks.items():
        if not ok:
            log("check FAILED: %s" % name)
    correct = failed == 0 and all(checks.values())
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    return report, samples


def print_table(workload, seed, report, samples):
    print("%s (seed %d): %d ops attempted, %d failed, failed_frac %.4f%s"
          % (workload, seed, report["attempted"], report["failed"],
             report["failed"] / report["attempted"],
             "" if samples is None else ", %d timed samples" % samples))
    for name, m in report["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))


def selfcheck():
    """The benchmark's own checks: determinism per seed, inputs differ
    across seeds, every file parses, the stated PTIME/NP split, the
    structural predictions, and the metric names."""
    results = {}
    for seed in (1, 2):
        a = gen.exchange_inputs(seed)
        results["exchange inputs deterministic (seed %d)" % seed] = (
            a == gen.exchange_inputs(seed))
        results["ingest inputs deterministic (seed %d)" % seed] = (
            gen.ingest_inputs(seed) == gen.ingest_inputs(seed))
    results["inputs differ across seeds"] = (
        gen.exchange_inputs(1)[0] != gen.exchange_inputs(2)[0]
        and gen.ingest_inputs(1) != gen.ingest_inputs(2))
    build(trace=True)
    for workload in WORKLOADS:
        inputs = Inputs(workload, 1)
        for path in sorted(inputs.family):
            rc = subprocess.call([OCDX, "print", path],
                                 stdout=subprocess.DEVNULL)
            results["parses: %s" % path] = rc == 0
        inputs.compute_references()
        results.update(inputs.checks)
        values, _, failed = measure_trace(inputs, 2)
        results["%s: traced replay outputs match" % workload] = failed == 0
        gating, info = structural_checks(workload, values)
        results.update(gating)
        results.update(info)
    declared = declared_names()
    results["BENCHMARK.json names match"] = declared == (
        [n for n, _ in END_TO_END], [n for n, _ in PER_LAYER])
    for name, ok in results.items():
        print("%s  %s" % ("PASS" if ok else "FAIL", name))
    return 0 if all(results.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        build(trace=bool(args.trace))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {}
        for workload in workloads:
            report, samples = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace))
            print_table(workload, args.seed, report, samples)
            reports[workload] = report
        if len(reports) == 1:
            final = reports[workloads[0]]
        else:
            final = {
                "correct": all(r["correct"] for r in reports.values()),
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": {"%s.%s" % (w, k): v for w, r in reports.items()
                            for k, v in r["metrics"].items()},
            }
        print(json.dumps(final), flush=True)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("ocdxbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
