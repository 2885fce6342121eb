"""Layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of the package's layer
modules with a wrapper, separately in each module namespace that holds a
reference to it (``geometry.erfc_fn`` and ``special.erfc_fn`` are two
wrappers), so calls between layers are caught wherever they are looked
up. Spans are named after the defining module: ``<layer>.<function>``.
Per-point functions are only counted, so their time stays in the
caller's self time and tracing does not swamp them.

``import_profile`` reads ``python -X importtime`` for the import layer.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "domain", "mfun", "geometry", "special", "scaling", "heatkernel")
# evaluated once per quadrature node, series term or table row
POINT_FUNCTIONS = frozenset(
    {"erfc_fn", "bessel_i", "kernel_eval", "poisson_kernel", "gamma_fn", "log_gamma_fn", "lambda_of_nu"}
)

# Per-layer metrics of a traced run: name, unit, and the end-to-end
# metric (on which workload) a change to that layer should move.
IMPORT = "setup_s everywhere; latency_p50_ms and ops_per_s on cli-cold"
SERIES = "latency_p90_ms and peak_rss_mb on estimate-sweep (large modes); spectrum-sweep when run"
GEOMETRY = "latency_p90_ms and ops_per_s on estimate-sweep; <1% of cli-cold"
VERIFY = "ops_per_s, latency_p90_ms, accuracy_digits, peak_rss_mb on verify-checks"
PARSE = "latency_p50_ms on cli-cold (a small share); spectrum-sweep when run"
PER_LAYER = (
    ("import.total_s", "s", IMPORT),
    ("import.scipy_s", "s", IMPORT),
    ("import.numpy_s", "s", IMPORT),
    ("import.conespec_self_s", "s", IMPORT),
    ("import.modules_loaded", "count", IMPORT),
    ("cli.main.self_s", "s", PARSE),
    ("domain.parse_domain.calls", "count", PARSE),
    ("domain.parse_domain.self_s", "s", PARSE),
    ("domain.expand_named.self_s", "s", PARSE),
    ("mfun.domain_m.self_s", "s", SERIES),
    ("mfun.expand_series.calls", "count", SERIES),
    ("mfun.expand_series.self_s", "s", SERIES),
    ("mfun.expand_series.terms_out", "count", SERIES),
    ("mfun.asymptotics_from_form.self_s", "s", SERIES),
    ("geometry.regular_t_size.calls", "count", GEOMETRY),
    ("geometry.regular_t_size.self_s", "s", GEOMETRY),
    ("geometry.catalog_geometry.self_s", "s", GEOMETRY),
    ("special.gauss_hermite.calls", "count", GEOMETRY),
    ("special.gauss_hermite.self_s", "s", GEOMETRY),
    ("special.erfc_fn.calls", "count", GEOMETRY),
    ("scaling.estimate_pair.calls", "count", "latency_p90_ms on estimate-sweep"),
    ("scaling.estimate_pair.self_s", "s", "latency_p90_ms on estimate-sweep"),
    # modes requested / degrees expanded, from what scaling.expand_series returns
    ("scaling.flatten_useful_ratio", "ratio", "latency_p90_ms and peak_rss_mb on estimate-sweep"),
    ("geometry.general_t_size_fraction.calls", "count", VERIFY),
    ("geometry.general_t_size_fraction.self_s", "s", VERIFY),
    ("heatkernel.mzf_numeric_residual.self_s", "s", VERIFY),
    ("heatkernel.mhk_identity_residual.self_s", "s", VERIFY),
    ("heatkernel.arc_trace_identity_residual.self_s", "s", VERIFY),
    ("heatkernel.kernel_eval.calls", "count", VERIFY),
    ("special.adaptive_integrate.calls", "count", VERIFY),
    ("special.adaptive_integrate.self_s", "s", VERIFY),
    ("special.adaptive_integrate.evals", "count", VERIFY),
    # traced / plain wall time of the same blocks
    ("trace.overhead_ratio", "ratio", "none: the cost of tracing itself"),
)


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end, request)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            calls[name] += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans.append((sid, parent[0] if parent else -1, name, t0, t1, self.request))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_evals(self, args, kwargs):
        counts = self.counts
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            counts["special.adaptive_integrate.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _terms_out(self, args, kwargs, series) -> None:
        self.counts["mfun.expand_series.terms_out"] += len(series.terms)

    def _degrees_expanded(self, args, kwargs, series) -> None:
        self._terms_out(args, kwargs, series)
        self.counts["scaling.degrees_expanded"] += sum(m for _, m in series.terms)

    def _modes_requested(self, args, kwargs):
        self.counts["scaling.modes_requested"] += args[4] if len(args) > 4 else kwargs.get("modes", 5)
        return args, kwargs

    def _wrap(self, namespace: str, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ in POINT_FUNCTIONS:
            return self._count(name, fn)
        if name == "special.adaptive_integrate":
            return self._span(name, fn, before=self._count_evals)
        if name == "mfun.expand_series":
            after = self._degrees_expanded if namespace == "conespec.scaling" else self._terms_out
            return self._span(name, fn, after=after)
        if name == "scaling.estimate_pair":
            return self._span(name, fn, before=self._modes_requested)
        return self._span(name, fn)

    def install(self) -> None:
        owners = {f"conespec.{layer}" for layer in LAYERS}
        for modname in ["conespec", *sorted(owners)]:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in owners
                    and not attr.startswith("_")
                ):
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrap(modname, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- summary ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            layer_fn, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = float(self.calls.get(layer_fn, 0))
            elif kind == "self_s":
                out[name] = self.self_s.get(layer_fn, 0.0)
        out["special.adaptive_integrate.evals"] = float(self.counts["special.adaptive_integrate.evals"])
        out["mfun.expand_series.terms_out"] = float(self.counts["mfun.expand_series.terms_out"])
        expanded = self.counts["scaling.degrees_expanded"]
        # modes used / degrees expanded; 0 when the workload never scales
        out["scaling.flatten_useful_ratio"] = (
            self.counts["scaling.modes_requested"] / expanded if expanded else 0.0
        )
        return out

    def by_layer(self) -> dict[str, float]:
        """Self time summed per layer."""
        totals: defaultdict = defaultdict(float)
        for name, value in self.self_s.items():
            totals[name.split(".", 1)[0]] += value
        return {k: round(v, 6) for k, v in sorted(totals.items())}


def import_profile(python: str, env: dict, cwd: str, statement: str) -> dict[str, float]:
    """Import-layer numbers from ``-X importtime`` for one fresh import."""
    marker = "@@bench-import-start"
    code = f"import sys; sys.stderr.write({marker!r} + '\\n'); {statement}"
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", code],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
    lines = proc.stderr.split(marker + "\n", 1)[1].splitlines()
    total = scipy = numpy = own = 0
    modules = 0
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|", 2)
        self_us, cum_us = int(self_us), int(cum_us)
        top = name.strip()
        modules += 1
        if len(name) - len(name.lstrip()) <= 1:  # not nested under another import
            total += cum_us
        if top.split(".")[0] == "scipy":
            scipy += self_us
        elif top.split(".")[0] == "numpy":
            numpy += self_us
        elif top.split(".")[0] == "conespec":
            own += self_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": scipy / 1e6,
        "import.numpy_s": numpy / 1e6,
        "import.conespec_self_s": own / 1e6,
        "import.modules_loaded": float(modules),
    }


def child_env(root: str) -> dict:
    """Environment of every child interpreter: the checkout's sources on
    the path and no bytecode cache, so each fresh start compiles the
    package's modules the same way."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env
