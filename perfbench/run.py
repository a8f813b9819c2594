#!/usr/bin/env python3
"""msamp benchmark: a closed loop with one client in one Python process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
    python3 perfbench/run.py ... --smoke      # tiny sizes, for perfbench's own tests

NAME is recon_dense, campaign or cli_chain (see workloads.py); `all` runs
each workload in its own process and prints every metric by name with its
unit. Operation i+1 starts only after operation i returns. BLAS is pinned
to one thread, so the run uses at most two threads of the machine. Every
operation's output is checked outside its timed interval; a failed check
or a raised error counts as a failed operation, it does not stop the run.

--trace 0 reports the end-to-end metrics: operations run until their
summed adjusted latency (below) reaches --seconds and at least 100 have
run. setup_s is the median of nine set-ups (import in a fresh
interpreter, input generation and warm-up) spread over the run.

The end-to-end times are adjusted for the speed of the host. On a shared
machine the speed a process gets wanders by 10-20% from one second to the
next and between runs, for every kind of code alike: a pure-Python loop
slows as much as the numpy-heavy operations. So right after each
operation and each set-up a fixed pure-Python reference loop is timed,
and the measured time is scaled by REFERENCE_NOMINAL_S over the
reference's time (for an operation, the median reference time of it and
its REFERENCE_NEIGHBOURS neighbours on each side, since one reference
measurement is about as long as a short operation). The adjusted times
read as wall times on a host where the reference takes
REFERENCE_NOMINAL_S; a change to msamp moves them as it moves wall time,
since the reference runs no msamp code. The stop rule counts adjusted
time too, so a run does the same operations however fast the host is,
and campaign's plan pairs, whose costs differ, mix alike in every run.
The unadjusted wall-clock figures are printed as `wall.*` lines and kept
in the result file.

--trace 1 reports the per-layer metrics of tracing.py: rounds of one
untraced and one traced pass over the same fixed operations run until
--seconds have passed (at least two rounds); the work counts of every
traced pass must repeat exactly, and traced against untraced throughput
is the tracing overhead.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}. The run environment, the
result and (with --trace 1) the spans are also written under
.perfbench_runs/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("recon_dense", "campaign", "cli_chain")
# Set-up is repeated and its median reported, so one slow set-up does not
# read as a regression. An interpreter imports a module once, so each
# set-up times the import in a fresh interpreter.
SETUP_REPEATS = 9
# at least ten latencies beyond p90 in a full run
MIN_OPS = 100
# One reference measurement: the median of three bursts of REFERENCE_LOOPS
# iterations. REFERENCE_NOMINAL_S is the burst's typical time on the
# 2-vCPU x86_64 host (Python 3.11) the baseline was recorded on.
REFERENCE_LOOPS = 20_000
REFERENCE_NOMINAL_S = 1.7e-3
REFERENCE_NEIGHBOURS = 2
MAX_TRACEBACKS = 3


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" if the checkout is not a git repository."""
    # the ceiling keeps git from taking the commit of a repository around the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_seconds() -> float:
    """Time to import numpy and the workloads (and so msamp) in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import numpy, workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                           str(ROOT / "src")], capture_output=True, text=True, check=True)
    return float(proc.stdout)


def reference_seconds() -> float:
    """Time of the reference loop now, the median of three bursts."""
    bursts = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(REFERENCE_LOOPS):
            acc += k * k
        bursts.append(time.perf_counter() - t0)
    return statistics.median(bursts)


def latency_metrics(latencies: list[float], prefix: str = "") -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        f"{prefix}ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        f"{prefix}latency_p50_ms": (deciles[4] * 1e3, "ms"),
        f"{prefix}latency_p90_ms": (deciles[8] * 1e3, "ms"),
    }


class Loop:
    """Runs operations one after another and keeps latencies and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.ratios: list[float] = []
        self.failed = 0

    def op(self, i: int, untimed=contextlib.nullcontext) -> float:
        """Run operation i, check it under `untimed()`, return its latency."""
        t0 = time.perf_counter()
        try:
            out = self.workload.run_op(i)
        except Exception:  # a failed operation is counted, the run goes on
            latency = time.perf_counter() - t0
            self._fail(traceback.format_exc())
        else:
            latency = time.perf_counter() - t0
            try:
                with untimed():
                    ok, ratio = self.workload.check(i, out)
            except Exception:
                self._fail(traceback.format_exc())
            else:
                self.ratios.append(ratio)
                if not ok:
                    self._fail(f"operation {i} failed its check (error/tau {ratio:.6g})\n")
        self.latencies.append(latency)
        return latency

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            sys.stderr.write(message)


def measure_end_to_end(loop: Loop, seconds: float, min_ops: int, set_up):
    """Adjusted and wall latency metrics, and the results of set_up(1 .. SETUP_REPEATS-1).

    The set-ups are spread evenly over the run, between operations and
    outside their latencies, so that they see the host as the operations do.
    """
    busy, i, setups, refs = 0.0, 0, [], []
    while busy < seconds or i < min_ops:
        k = len(setups) + 1
        if k < SETUP_REPEATS and busy * SETUP_REPEATS >= k * seconds:
            setups.append(set_up(k))
        latency = loop.op(i)
        refs.append(reference_seconds())
        busy += latency * REFERENCE_NOMINAL_S / refs[-1]
        i += 1
    while len(setups) + 1 < SETUP_REPEATS:
        setups.append(set_up(len(setups) + 1))
    n = REFERENCE_NEIGHBOURS
    adjusted = [latency * REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - n):i + n + 1])
                for i, latency in enumerate(loop.latencies)]
    return latency_metrics(adjusted), latency_metrics(loop.latencies, "wall."), setups


def measure_traced(loop: Loop, seconds: float, spans_path: Path):
    """Per-layer metrics and whether every traced pass repeated its counts."""
    from tracing import Round, Tracer, exact_counts, layer_metrics, layer_totals

    tracer = Tracer()
    ops = range(loop.workload.trace_cycle)
    rounds, kept = [], []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        before = resource.getrusage(resource.RUSAGE_SELF)
        untraced = sum(loop.op(i) for i in ops)
        after = resource.getrusage(resource.RUSAGE_SELF)
        tracer.spans.clear()
        tracer.install()
        try:
            traced = 0.0
            for i in ops:
                tracer.op = i
                traced += loop.op(i, untimed=tracer.paused)
        finally:
            tracer.uninstall()
        rounds.append(Round(layer_totals(tracer.spans), traced, untraced,
                            after.ru_stime - before.ru_stime,
                            after.ru_minflt - before.ru_minflt))
        kept.append(list(tracer.spans))

    with open(spans_path, "w", encoding="utf-8") as f:
        for r, spans in enumerate(kept):
            for s in spans:
                f.write(json.dumps({"round": r, **s.as_dict()}) + "\n")

    counts = [exact_counts(r.totals) for r in rounds]
    repeated = all(c == counts[0] for c in counts)
    if not repeated:
        sys.stderr.write("work counts differ between traced passes over the same inputs\n")
    return layer_metrics(rounds, len(ops)), repeated


def run_one(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "msamp" / "__init__.py").is_file():
        print(f"error: no msamp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    from workloads import WORKLOADS  # imports msamp

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"tmp-{tag}-") as tmp:
        def set_up(r: int):
            """A new workload and its set-up times (wall, adjusted): inputs, warm-up, import."""
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, args.smoke, Path(tmp) / f"setup{r}")
            workload.setup()
            seconds = time.perf_counter() - t0 + import_seconds()
            return workload, (seconds, seconds * REFERENCE_NOMINAL_S / reference_seconds())

        workload, first_setup = set_up(0)
        loop = Loop(workload)
        wall = {}
        if args.trace:
            values, repeated = measure_traced(loop, args.seconds, OUT_DIR / f"spans-{tag}.jsonl")
            from tracing import LAYER_METRICS

            values["check.err_over_tau_max"] = max(loop.ratios, default=float("nan"))
            metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
        else:
            repeated = True
            # two latencies at least in a smoke run, for the quantiles
            metrics, wall, setups = measure_end_to_end(
                loop, args.seconds, 2 if args.smoke else MIN_OPS, lambda r: set_up(r)[1])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            )
            setups.append(first_setup)
            metrics["setup_s"] = (statistics.median(a for _, a in setups), "s")
            wall["wall.setup_s"] = (statistics.median(w for w, _ in setups), "s")

    attempted = len(loop.latencies)
    correct = loop.failed == 0 and repeated and bool(loop.ratios)
    # Reported with every run but not end-to-end metrics with a bound:
    # fail_rate reads 0, and a maximum over random draws spreads widely
    # between seeds. An error above tau(J) already fails its operation.
    checks = {
        "ops_attempted": (attempted, "count"),
        "fail_rate": (loop.failed / attempted, "ratio"),
        "err_over_tau_max": (max(loop.ratios, default=float("nan")), "ratio"),
    }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "reference": {"loops": REFERENCE_LOOPS, "nominal_s": REFERENCE_NOMINAL_S,
                      "neighbours": REFERENCE_NEIGHBOURS},
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "checks": {k: v for k, (v, _) in checks.items()},
                    "wall": {k: v for k, (v, _) in wall.items()}, **result},
                   indent=2) + "\n"
    )
    print("env " + json.dumps(env))
    for k, (v, u) in {**checks, **wall, **metrics}.items():
        print(f"{args.workload} {k} {v:.6g} {u}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(line)
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for perfbench's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
