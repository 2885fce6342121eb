"""Benchmark of the conespec pipeline: one seeded workload per run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): cli-cold, estimate-sweep,
spectrum-sweep, verify-checks. Each is a closed loop with one client:
the next request is sent when the previous one has returned. Every
output is checked against ``reference.py``, which does not use the
package. Run from the root of a checkout; the package is imported from
its ``src`` directory.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it runs each block twice in this process, plain and with
every public function of the package wrapped in a span (alternating which
goes first), and reports the per-layer metrics and the tracing overhead.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"report": ...}`` with sample counts, the accuracy record, the worst
checks, the outcome of the known-defect reproducers (``KNOWN_DEFECTS``,
sent once after the timed loop and counted in no metric) and the
environment. ``series.py`` runs many seeds and compares two sets of
results.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# the package is compiled afresh by every process, this one included, and
# nothing is written into the checkout
sys.dont_write_bytecode = True
# numpy asks the kernel for transparent huge pages on large arrays, and
# whether it gets them varies from run to run: peak_rss_mb of one seed
# moved by up to 25%. This process and its children (they inherit the
# environment) allocate in ordinary pages.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

from spans import PER_LAYER, Tracer, child_env, import_profile  # noqa: E402
from stats import percentile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3  # fresh processes per run; setup_s is their median
WORST_KEPT = 8

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)


def calibration_s() -> float:
    """A fixed pure-Python loop: context for host speed, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Tally:
    """Outcomes of the requests of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digits = 16.0
        self.digits_label = ""
        self.pools: dict[str, tuple[str, list[float]]] = {}
        self.worst: list[tuple[float, str, float, float]] = []  # min-heap of |err|/tol

    def record(self, req, out, exc) -> None:
        from workloads import Check

        self.attempted += 1
        if exc is not None:
            checks = [Check(f"{req.label}: raised {type(exc).__name__}: {exc}", math.inf, 0.0, False)]
        else:
            try:
                checks = req.check(out)
            except Exception as err:  # output the checker cannot read is wrong output
                checks = [Check(f"{req.label}: unreadable output ({type(err).__name__}: {err})", math.inf, 0.0, False)]
        bad = [c for c in checks if not c.ok]
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(bad[0].label)
        for c in checks:
            if c.pool:
                self.pools.setdefault(c.pool, (c.label, []))[1].append(c.err)
            elif c.digits:
                self._digits(c.err, c.label)
            ratio = c.err / c.tol if c.tol > 0 else (0.0 if c.err == 0.0 else math.inf)
            if ratio == ratio and not math.isinf(c.tol):
                item = (ratio, c.label, c.err, c.tol)
                if len(self.worst) < WORST_KEPT:
                    heapq.heappush(self.worst, item)
                elif ratio > self.worst[0][0]:
                    heapq.heapreplace(self.worst, item)

    def _digits(self, err: float, label: str) -> None:
        d = 16.0 if err == 0.0 else min(16.0, -math.log10(err)) if err == err else 0.0
        if d < self.digits:
            self.digits, self.digits_label = d, label

    def accuracy_digits(self) -> float:
        for label, errs in self.pools.values():
            self._digits(math.sqrt(math.fsum(e * e for e in errs) / len(errs)), label)
        return self.digits

    def accuracy_record(self) -> dict:
        return {
            "accuracy_digits_from": self.digits_label,
            "worst_by_err_over_tol": [
                {"label": label, "err": err, "tol": tol, "ratio": ratio}
                for ratio, label, err, tol in sorted(self.worst, reverse=True)
            ],
            "failures": self.failures,
        }


def run_block(block, tally: Tally, latencies: list[float]) -> float:
    """Send each request after the previous one returned; check outside
    the timed region. Returns the time spent waiting on the program."""
    busy = 0.0
    clock = time.perf_counter
    for req in block:
        exc = out = None
        t0 = clock()
        try:
            out = req.call()
        except Exception as err:  # a request that raises has failed
            exc = err
        dt = clock() - t0
        busy += dt
        latencies.append(dt)
        tally.record(req, out, exc)
        out = None
    return busy


def setup_samples(workload: str, env: dict) -> list[float]:
    from workloads import SETUP

    code = f"import time; t0 = time.perf_counter(); {SETUP[workload]}; print(time.perf_counter() - t0)"
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr[-800:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def steal_s() -> float:
    """CPU time the hypervisor gave to others, all CPUs (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment(env: dict, load_start: tuple, steal_start: float) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_s": steal_s() - steal_start,
        "child_env": {"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": env["PYTHONDONTWRITEBYTECODE"],
                      "NUMPY_MADVISE_HUGEPAGE": env["NUMPY_MADVISE_HUGEPAGE"]},
        "inherited_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def measure(workload: str, seed: int, seconds: float, cs) -> tuple[dict, dict, Tally]:
    """End-to-end metrics of a plain run."""
    from workloads import CLI, WORKLOADS

    tally = Tally()
    latencies: list[float] = []
    busy_total = 0.0
    blocks_run = 0
    blocks = WORKLOADS[workload](cs, seed)
    # whole blocks only, so every run has the same mix of requests
    while busy_total < seconds:
        busy_total += run_block(next(blocks), tally, latencies)
        blocks_run += 1
    # for cli-cold, the peak of the fresh processes that served requests
    peak_kib = CLI.peak_rss_kib if workload == "cli-cold" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = percentile(latencies, 90)
    metrics = {
        "ops_per_s": len(latencies) / busy_total,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * p90,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "accuracy_digits": tally.accuracy_digits(),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    samples = {
        "requests": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "blocks": blocks_run,
        "busy_s": busy_total,
        "fail_ratio": tally.failed / tally.attempted,
    }
    return metrics, samples, tally


def traced(workload: str, seed: int, seconds: float, cs, env: dict) -> tuple[dict, dict, Tally]:
    """Per-layer metrics: the same requests plain, then traced."""
    from workloads import CLI, WORKLOADS

    statement = "import conespec.cli" if workload in ("cli-cold", "verify-checks") else "import conespec"
    profiles = [import_profile(sys.executable, env, ROOT, statement) for _ in range(SETUP_SAMPLES)]
    metrics = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}
    if workload == "cli-cold":
        import conespec.cli

        CLI.in_process = conespec.cli  # replay the argv list through main()
    tally = Tally()
    blocks = WORKLOADS[workload](cs, seed)
    tracer = Tracer()
    plain = with_spans = 0.0
    # each block runs plain and traced back to back, alternating which
    # goes first, so host drift and warm caches fall on both sides
    while plain < 0.5 * seconds:
        block = next(blocks)
        tracer.request += 1
        for traced_pass in (False, True) if tracer.request % 2 else (True, False):
            if traced_pass:
                tracer.install()
                try:
                    with_spans += run_block(block, tally, [])
                finally:
                    tracer.uninstall()
            else:
                plain += run_block(block, tally, [])
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = with_spans / plain
    samples = {"blocks": tracer.request, "plain_s": plain, "traced_s": with_spans, "spans": len(tracer.spans),
               "self_s_by_layer": tracer.by_layer()}
    return metrics, samples, tally


def known_defects(workload: str, seed: int, cs) -> list[dict]:
    """Send the workload's known-defect reproducers once; report each one
    as still failing or as fixed. They count in no metric."""
    from workloads import KNOWN_DEFECTS

    outcomes = []
    for req in KNOWN_DEFECTS.get(workload, lambda cs, seed: [])(cs, seed):
        tally = Tally()
        run_block([req], tally, [])
        outcomes.append({"label": req.label, "still_fails": bool(tally.failed),
                         "failure": tally.failures[0] if tally.failures else ""})
    return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "estimate-sweep", "spectrum-sweep", "verify-checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conespec", "__init__.py")):
        print(f"no package sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    load_start, steal_start = os.getloadavg(), steal_s()
    sys.path.insert(0, SRC)
    env = child_env(ROOT)
    cal_start = calibration_s()
    import conespec as cs

    if not os.path.abspath(cs.__file__).startswith(SRC + os.sep):
        print(f"conespec imported from {cs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import CLI

    CLI.env, CLI.cwd = env, ROOT
    setup: list[float] = []
    if args.trace:
        metrics, samples, tally = traced(args.workload, args.seed, args.seconds, cs, env)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = setup_samples(args.workload, env)
        metrics, samples, tally = measure(args.workload, args.seed, args.seconds, cs)
        metrics["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    defects = known_defects(args.workload, args.seed, cs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "setup_samples_s": setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "accuracy": tally.accuracy_record(),
        "known_defects": defects,
        "calibration_s": {"start": cal_start, "end": calibration_s()},
        "environment": environment(env, load_start, steal_start),
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
