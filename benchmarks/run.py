"""lotbench benchmark: one seeded, closed-loop workload per run.

    python3 benchmarks/run.py --workload exact-lp --seed 1 --seconds 35 --trace 0

Workloads (inputs come from benchmarks/gen.py, never from the tests):

  exact-lp  designer LPs (Fill and Linear) at N=5-7 and min-mass LPs at
            N=4-5 on convex instances; the exact simplex is the cost.
  certify   feasibility certificates, collapse, decomposition and mu
            closed forms at N=16-40, with no LP at all.
  explore   many cheap calls at N=8-24 on mostly non-convex instances:
            convexity, closed-form optima, improvement search, priority
            scan, a small Monte Carlo, the ordinal reduction and the CLI's
            `reproduce`.

One process, one client, no threads: the next task starts when the
previous one has finished and been checked.  Set-up is repeated and its
median reported; each repetition times the import of lotbench and numpy
in a fresh interpreter, then input generation, the CLI's input files and a
warm-up over a fixed task set whose output digest is compared with
expected_digests.json.

On a shared machine the processor's speed drifts: on a 2-core Xeon VM it
moved by up to 40% within minutes.  So a fixed piece of Fraction
arithmetic (`probe`) runs before every task and set-up.  The
end-to-end times are scaled by REF_PROBE_S over the median probe time
around them, which states them at one reference speed; the unscaled values
are printed on the line before the metrics.  Per-layer times are unscaled.

With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs every task twice, untraced and traced in
alternating order, and reports per-layer metrics from the spans together
with the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

# The workloads are single-threaded; keep numpy's thread pools idle too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 5
# Reported times are scaled to a machine on which one speed probe takes
# REF_PROBE_S; PROBE_WINDOW probes on each side of a task set its local speed.
REF_PROBE_S = 0.005
PROBE_WINDOW = 10

# lotbench is imported from this checkout's src/ and nowhere else.
sys.path.insert(0, str(SRC))
try:
    import lotbench
    import numpy

    import gen
    import spans
    import tasks
except ImportError as _exc:
    IMPORT_ERROR: ImportError | None = _exc
else:
    IMPORT_ERROR = None

# (metric, span name, span tag) for the per-layer medians.
P50_SPANS = (
    ("lpsolve.designer.solve_p50_ms", "lpsolve.simplex_solve", "designer"),
    ("lpsolve.min_mass.solve_p50_ms", "lpsolve.solve_min_mass", "min_mass"),
    ("mechanism.feasibility_report.p50_ms", "mechanism.feasibility_report", None),
    ("transform.to_common_lottery.p50_ms", "transform.to_common_lottery", None),
    ("transform.verify_decomposition.p50_ms", "transform.verify_decomposition", None),
    ("transform.mu_coefficients.p50_ms", "transform.mu_coefficients", None),
    ("optimizer.optimal_masses.p50_ms", "optimizer.optimal_masses", None),
    ("optimizer.kkt_check.p50_ms", "optimizer.kkt_check", None),
    ("converse.auto_improve.p50_ms", "converse.auto_improve", None),
    ("crp.continuum_crp.p50_ms", "crp.continuum_crp", None),
    ("ordinal.optimal_common_lottery_ordinal.p50_ms", "ordinal.optimal_common_lottery_ordinal", None),
    ("ordinal.uneven_mu_coefficients.p50_ms", "ordinal.uneven_mu_coefficients", None),
    ("instance.convexity_report.p50_ms", "instance.convexity_report", None),
    ("cli.main.reproduce.p50_ms", "cli.main", "reproduce"),
    ("cli.main.solve_lp.p50_ms", "cli.main", "solve_lp"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("exact-lp", "certify", "explore"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    """The checkout's commit from .git, read without running git."""
    head = HERE.parent / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = HERE.parent / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (HERE.parent / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic, the kind of
    work lotbench does.  Run before every task and every set-up, it
    measures the drift of the processor's speed where it happens."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


class Runner:
    """Runs tasks, checks them, and keeps what the metrics need."""

    def __init__(self, paths: dict):
        self.paths = paths
        self.times: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}

    def run(self, tr, task):
        self.probes.append(probe())
        start = time.perf_counter()
        try:
            with tr.task(task.idx, task.kind):
                result = tasks.run_task(tr, task, self.paths)
        except Exception as exc:  # any exception is a failed task, counted below
            result = None
            self._fail(task, f"{type(exc).__name__}: {exc}")
        self.times.append(time.perf_counter() - start)
        if result is not None:
            d = gen.digest(result.outputs)
            if self.digests.setdefault(task.idx, d) != d:
                self._fail(task, "output differs from an earlier run of the same input")
        return result

    def _fail(self, task, why: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"task {task.idx} ({task.kind}, N={task.n}): {why}")

    def output_digest(self) -> str:
        return gen.digest(sorted(self.digests.items()))


def _import_seconds() -> float:
    """Time to import lotbench and numpy in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import lotbench, numpy; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _setup(workload: str, seed: int):
    """Input generation, CLI files and warm-up; returns what the run needs."""
    pool = gen.make_pool(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    paths = tasks.write_cli_inputs(pool, workdir, "t")
    golden = gen.golden_tasks(workload)
    warm = Runner(tasks.write_cli_inputs(golden, workdir, "g"))
    for task in golden:
        warm.run(spans.NullTracer(), task)
    return pool, workdir, paths, warm


def _lp_stats(lps) -> dict:
    bits = 0
    for _lp, sol in lps:
        for v in (*sol.primal.values(), *sol.duals.values()):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {
        "lpsolve.rows": statistics.fmean(len(lp.rows) for lp, _sol in lps) if lps else 0.0,
        "lpsolve.cols": statistics.fmean(len(lp.var_names) for lp, _sol in lps) if lps else 0.0,
        "lpsolve.max_bits": bits,
    }


def _trace_metrics(tracer, lps, notes, overhead_frac) -> dict:
    sp = tracer.spans
    out = spans.layer_metrics(sp)
    for metric, name, tag in P50_SPANS:
        out[metric] = spans.p50_ms(sp, name, tag)
    designer = spans.durations_ms(sp, "lpsolve.simplex_solve", "designer")
    out["lpsolve.designer.solve_p90_ms"] = spans.percentile(designer, 90) if designer else 0.0
    builds = (spans.durations_ms(sp, "lpsolve.build_designer_lp")
              + spans.durations_ms(sp, "lpsolve.build_min_mass_lp"))
    out["lpsolve.build_ms"] = spans.percentile(builds, 50) if builds else 0.0
    out.update(_lp_stats(lps))
    nonconvex = notes.get("nonconvex", 0)
    out["converse.improved_ratio"] = notes.get("improved", 0) / nonconvex if nonconvex else 0.0
    sim_s = sum(s.end - s.start for s in sp if s.name == "crp.simulate_finite")
    out["crp.simulate_finite.draws_per_s"] = notes.get("draws", 0) / sim_s if sim_s else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out


def _measure(pool, paths, seconds: float, trace: int):
    """The closed loop: run tasks until the time is up, then finish the
    one in flight.  Returns the runner and what the traced run collected."""
    runner = Runner(paths)
    tracer = spans.Tracer() if trace else spans.NullTracer()
    plain = spans.NullTracer()
    lps, notes = [], {}
    timed = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        task = pool[i % len(pool)]
        for traced in _modes(i, trace):
            result = runner.run(tracer if traced else plain, task)
            timed[traced] += runner.times[-1]
            if traced and result is not None:
                lps.extend(result.lps)
                for key, count in result.notes.items():
                    notes[key] = notes.get(key, 0) + count
        i += 1
    wall = time.perf_counter() - start
    overhead = timed[True] / timed[False] - 1 if trace else 0.0
    return runner, wall, tracer, lps, notes, overhead


def main(argv=None) -> int:
    args = _parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if sys.flags.optimize:
        print("error: refusing to run under python -O, which strips the library's "
              "own asserts; run without -O", file=sys.stderr)
        return 2
    if IMPORT_ERROR is not None:
        print(f"error: cannot import lotbench from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(lotbench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: lotbench was imported from {lotbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    expected = json.loads((HERE / "expected_digests.json").read_text(encoding="utf-8"))
    expected = expected.get(args.workload)
    raw_setup, setup_times, input_digests, golden_digests = [], [], [], []
    workdir = None
    try:
        for _ in range(SETUP_REPS):
            speed = statistics.median(probe() for _ in range(5))
            import_s = _import_seconds()
            start = time.perf_counter()
            pool, new_dir, paths, warm = _setup(args.workload, args.seed)
            raw_setup.append(import_s + time.perf_counter() - start)
            setup_times.append(raw_setup[-1] * REF_PROBE_S / speed)
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = new_dir
            input_digests.append(gen.input_digest(pool))
            golden_digests.append(warm.output_digest() if warm.failed == 0 else "failed")
        runner, wall, tracer, lps, notes, overhead = _measure(pool, paths, args.seconds, args.trace)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.times)
    golden_ok = set(golden_digests) == {expected}
    inputs_ok = len(set(input_digests)) == 1
    correct = runner.failed == 0 and golden_ok and inputs_ok

    print("env " + json.dumps(environment(numpy.__version__), sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"inputs digest={input_digests[0]} pool={len(pool)} "
          f"{'stable' if inputs_ok else 'UNSTABLE'} over {SETUP_REPS} set-ups")
    print(f"golden digest={golden_digests[0]} expected={expected} "
          f"{'match' if golden_ok else 'MISMATCH'}")
    for line in warm.errors + runner.errors:
        print(f"failed {line}")
    print(f"outputs digest={runner.output_digest()} over {len(runner.digests)} distinct tasks")
    print(f"samples {attempted} tasks; highest percentile with >= 10 samples beyond it: "
          f"p{spans.reportable_percentile(attempted)}")
    print(f"metric failed_frac {runner.failed / attempted:.6g} ratio ({runner.failed}/{attempted})")

    if args.trace:
        values = _trace_metrics(tracer, lps, notes, overhead)
    else:
        speed = spans.local_medians(runner.probes, PROBE_WINDOW)
        ms = [t * 1000 * REF_PROBE_S / s for t, s in zip(runner.times, speed)]
        raw_ms = [t * 1000 for t in runner.times]
        print(f"probe median {statistics.median(runner.probes) * 1000:.4g} ms, reference "
              f"{REF_PROBE_S * 1000:g} ms; unscaled: setup_s {statistics.median(raw_setup):.6g} "
              f"tasks_per_s {attempted / wall:.6g} task_p50_ms {spans.percentile(raw_ms, 50):.6g} "
              f"task_p90_ms {spans.percentile(raw_ms, 90):.6g}")
        values = {
            "setup_s": statistics.median(setup_times),
            "tasks_per_s": attempted * 1000 / sum(ms),
            "task_p50_ms": spans.percentile(ms, 50),
            "task_p90_ms": spans.percentile(ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = {name: _unit(name) for name in values}
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def _modes(i: int, trace: int) -> tuple[bool, ...]:
    """Whether each execution of task i is traced.  The traced run times
    every task both ways, in alternating order, to measure the overhead."""
    if not trace:
        return (False,)
    return (False, True) if i % 2 == 0 else (True, False)


def _unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".share", "_frac", "_ratio")):
        return "ratio"
    if metric.endswith("max_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
