"""The four seeded workloads: generated requests, program calls, checks.

A request is one call into the program (or one fresh CLI process). Its
output is checked against ``reference``, which never imports the
package. Requests come in blocks: each block holds the same mix of
request kinds, with its continuous inputs drawn from seeded sweeps, so every
run sees the same shape of work whatever its seed.

The timed blocks hold only requests the package is meant to get right.
Defects the package is known to have (ROADMAP item 4) are reproduced by
``KNOWN_DEFECTS``: a few requests per run, sent after the timed loop,
whose outcome is reported but counts in no metric and not in
``attempted`` or ``failed``.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref

INF = math.inf


@dataclass
class Check:
    label: str
    err: float  # relative error against a reference, or a residual
    tol: float
    digits: bool = True  # err is a relative error against an independent reference
    # outputs of a randomized method: their errors enter accuracy_digits
    # as one root mean square per run, not one by one
    pool: str = ""

    @property
    def ok(self) -> bool:
        return self.err <= self.tol  # NaN fails


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[Check]]


def flag(bad: bool) -> float:
    """Error of a pass/fail check: 0 when it holds, infinite when not."""
    return INF if bad else 0.0


def rel(x: float, r: float, floor: float = 0.0) -> float:
    scale = max(abs(r), floor)
    return abs(x - r) / scale if scale > 0.0 else abs(x - r)


class Sweep:
    """Seeded additive recurrence u_k = frac(u_0 + k / golden ratio).

    Every prefix of the sequence covers [0, 1) about evenly, so the mix of
    a run does not depend on how many requests it got through, and two
    seeds differ in their points, not in the share of cheap and costly
    inputs they draw."""

    STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: random.Random) -> None:
        self.u = rng.random()

    def __call__(self) -> float:
        self.u = (self.u + self.STEP) % 1.0
        return self.u

    def take(self, k: int) -> list[float]:
        return [self() for _ in range(k)]


def log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# --- domains ------------------------------------------------------------


def arc_text(p: int, q: int) -> str:
    return f"pi/{q}" if p == 1 else f"{p}*pi/{q}"


def random_factor(rng: random.Random, room: int) -> tuple[str, list]:
    kind = rng.choice(("S0", "T0", "Sphere", "T", "HalfSphere", "Arc"))
    if kind in ("S0", "T0"):
        return kind, [(kind,)]
    if kind == "Arc":
        q = rng.randint(1, 6)
        p = rng.randint(1, min(4, 2 * q - 1))
        return f"Arc({arc_text(p, q)})", [("Arc", p, q)]
    lo = 2 if kind == "HalfSphere" else 1
    n = rng.randint(lo, max(lo, min(8, room)))
    atoms = {"Sphere": [("S0",)] * n, "T": [("T0",)] * n}.get(kind, [("S0",)] * (n - 1) + [("T0",)])
    return f"{kind}({n})", atoms


def random_join(rng: random.Random, max_atoms: int, max_arcs: int = 2) -> tuple[str, list]:
    """Grammar-built join of catalog factors, with random grouping."""
    target = round(log_uniform(1, max_atoms, rng.random()))
    parts: list[str] = []
    atoms: list = []
    while len(atoms) < target:
        text, more = random_factor(rng, target - len(atoms))
        if more[0][0] == "Arc":
            if sum(a[0] == "Arc" for a in atoms) >= max_arcs:
                continue
        parts.append(text)
        atoms += more
    if len(parts) > 2 and rng.random() < 0.5:
        i = rng.randrange(len(parts) - 1)
        j = rng.randrange(i + 2, len(parts) + 1)
        parts[i:j] = ["(" + " * ".join(parts[i:j]) + ")"]
    return " * ".join(parts), atoms


def expansion_cost(atoms: list, dirichlet: bool, cutoff: float) -> int:
    """Term products the package's factor-by-factor expansion performs."""
    k = len(atoms)
    s0 = sum(a[0] == "S0" for a in atoms)
    powers: Counter = Counter({Fraction(1): -s0, Fraction(2): s0 - (k - 1)})
    start = 0.0
    for a in atoms:
        if a[0] == "Arc":
            powers[Fraction(a[2], a[1])] -= 1
            start += a[2] / a[1] if dirichlet else 0.0
        elif a[0] == "T0" and dirichlet:
            start += 1.0
    span = cutoff - start
    size, cost, den = 1, 0, 1
    for b, c in sorted(powers.items()):
        if c == 0 or span < 0:
            continue
        reach = math.floor(span / b) + 1
        length = reach if c < 0 else min(c + 1, reach)
        cost += size * length
        den = math.lcm(den, b.denominator)
        size = min(size * length, math.floor(span * den) + 1)
    return cost


# --- spectrum-sweep -------------------------------------------------------

SPECTRUM_BLOCK = 16
SPECTRUM_BUDGET = 300_000  # term products; about 0.1 s of expansion
SPECTRUM_CUTOFFS = (30.0, 1e4)


def check_series(label: str, terms, exact: list) -> list[Check]:
    if len(terms) != len(exact):
        return [Check(f"{label}: term count {len(terms)} vs {len(exact)}", INF, 0.0)]
    got_nu, got_m = zip(*terms) if terms else ((), ())
    want_nu, want_m = zip(*exact) if exact else ((), ())
    want = np.array(want_nu)
    worst_nu = float(np.max(np.abs(np.array(got_nu) - want) / np.maximum(want, 1.0), initial=0.0))
    worst_m = 0.0
    if got_m != want_m:
        worst_m = max(abs(m - rm) / rm for m, rm in zip(got_m, want_m))
    return [Check(f"{label}: degrees", worst_nu, 1e-12), Check(f"{label}: multiplicities", worst_m, 1e-12)]


def check_laurent(label: str, co, lr: ref.Laurent) -> list[Check]:
    return [
        Check(f"{label}: pole order", flag(co.pole_order != lr.pole_order), 0.0),
        Check(f"{label}: b0", rel(co.b0, lr.b0), 1e-11),
        Check(f"{label}: c0", rel(co.c0, lr.c0), 1e-11),
        Check(f"{label}: b1/b0", rel(co.b1 / co.b0, lr.b1 / lr.b0, 1.0), 1e-11),
        Check(f"{label}: b2/b0", rel(co.b2 / co.b0, lr.b2 / lr.b0, 1.0), 1e-11),
        Check(f"{label}: c1/c0", rel(co.c1 / co.c0, lr.c1 / lr.c0, 1.0), 1e-11),
        Check(f"{label}: gamma", rel(co.gamma, lr.gamma, 1.0), 1e-11),
    ]


def spectrum_request(cs, rng: random.Random, u: float) -> Request:
    while True:
        text, atoms = random_join(rng, 40)
        dirichlet = rng.random() < 0.5
        lo, hi = SPECTRUM_CUTOFFS
        if expansion_cost(atoms, dirichlet, lo) > SPECTRUM_BUDGET:
            continue
        while expansion_cost(atoms, dirichlet, hi) > SPECTRUM_BUDGET:
            hi *= 0.9
        break
    cutoff = ref.lattice_cutoff(atoms, log_uniform(lo, max(lo, hi), u))
    query = rng.uniform(0.0, cutoff)
    bc = cs.DIRICHLET if dirichlet else cs.NEUMANN
    label = f"spectrum {text} bc={bc} cutoff={cutoff:g}"

    def call():
        m = cs.domain_m(cs.parse_domain(text), bc)
        series = cs.expand_series(m, cutoff)
        return series.terms, cs.counting_function(series, query), cs.asymptotics_from_form(m)

    def check(out) -> list[Check]:
        terms, count, co = out
        exact = ref.exact_spectrum(atoms, dirichlet, cutoff)
        want = sum(m for nu, m in exact[: bisect.bisect_right(exact, (query, INF))])
        checks = check_series(label, terms, exact)
        checks.append(Check(f"{label}: W({query:g})", abs(count - want) / max(want, 1), 1e-12))
        return checks + check_laurent(label, co, ref.laurent(atoms, dirichlet))

    return Request(label, call, check)


def spectrum_blocks(cs, seed: int):
    rng = random.Random(seed)
    cutoffs = Sweep(rng)
    while True:
        yield [spectrum_request(cs, rng, cutoffs()) for _ in range(SPECTRUM_BLOCK)]


# --- estimate-sweep -------------------------------------------------------

# expanded reference degrees allowed per request: the package expands to
# 3*modes+10, which for T(n >= 4) grows like modes^(n-1)
DEGREES_LIMIT = 4_000_000
MODES_MAX = 2000
FAMILIES = (3, 4, 5, 6, "Cap", "Sector")
A2_KNOWN_WRONG = (4, 5, 6)  # corner loci of RegularT(n >= 4) are not carried in a2


@dataclass
class Pair:
    """A target with its matched reference, both as text and geometry."""

    label: str
    target: str
    reference: str
    ref_atoms: list
    target_geometry: ref.Geometry
    n: int


_REF_SPECTRUM: dict = {}


@lru_cache(maxsize=None)
def ref_geometry(atoms: tuple) -> ref.Geometry:
    return ref.atom_geometry(list(atoms))


def ref_spectrum(atoms: list, dirichlet: bool, cutoff: float) -> list:
    """Exact reference spectrum to at least ``cutoff``, cached."""
    key = (tuple(atoms), dirichlet)
    have = _REF_SPECTRUM.get(key)
    if have is None or have[0] < cutoff:
        reach = max(cutoff, 2 * have[0] if have else 16.0)
        have = (reach, ref.exact_spectrum(atoms, dirichlet, reach))
        _REF_SPECTRUM[key] = have
    return have[1]


def random_pair(rng: random.Random, family, u: float) -> Pair:
    """The target's shape parameter is set by u in [0, 1)."""
    if family == "Cap":
        theta = 0.3 + 2.5 * u
        return Pair(f"Cap({theta:.4g})", f"Cap(theta={theta!r})", "HalfSphere(3)",
                    [("S0",), ("S0",), ("T0",)], ref.cap_geometry(theta), 3)
    if family == "Sector":
        theta = 0.3 + 2.5 * u
        q = rng.randint(1, 6)
        p = rng.randint(1, 2 * q - 1)
        phi = p * math.pi / q
        return Pair(f"Sector({theta:.4g}, {arc_text(p, q)})",
                    f"Sector(theta={theta!r}, phi={arc_text(p, q)})",
                    f"Sector(theta=pi/2, phi={arc_text(p, q)})",
                    [("Arc", p, q), ("T0",)], ref.sector_geometry(theta, phi), 3)
    n = family
    # 1 - rho log-uniform: covers the Hermite escalation near rho ~ 0.9-0.99
    # and the transition-integral branch (c > 15, rho > 0.9956)
    rho = 1.0 - log_uniform(1e-3, 0.95, u)
    return Pair(f"RegularT({n}, {rho:.6g})", f"RegularT({n}, rho={rho!r})", f"T({n})",
                [("T0",)] * n, ref.regular_t_geometry(n, rho), n)


@lru_cache(maxsize=None)
def modes_cap(ref_atoms: tuple, dirichlet: bool) -> int:
    """Largest modes (<= 2000) whose expansion stays under DEGREES_LIMIT."""
    first = ref_spectrum(list(ref_atoms), dirichlet, 16.0)[0][0]
    fits = lambda m: ref.count_upto(list(ref_atoms), dirichlet, first + 3.0 * m + 10.0) <= DEGREES_LIMIT
    if fits(MODES_MAX):
        return MODES_MAX
    lo, hi = 1, MODES_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def reference_rows(pair: Pair, dirichlet: bool, method: str, modes: int):
    """Reference degrees, estimated degrees and eigenvalues, mode by mode."""
    cutoff = 16.0
    while sum(m for _, m in ref_spectrum(pair.ref_atoms, dirichlet, cutoff)) < modes:
        cutoff *= 2.0
    degrees = ref.flattened(ref_spectrum(pair.ref_atoms, dirichlet, cutoff), modes)
    t_in = ref.scaling_inputs(pair.target_geometry, dirichlet)
    r_in = ref.scaling_inputs(ref_geometry(tuple(pair.ref_atoms)), dirichlet)
    nu = ref.estimates(t_in, r_in, degrees, dirichlet, method)
    return degrees, nu, nu * (nu + pair.n - 2)


def check_rows(label: str, rows, degrees, nu, lam, tol: float) -> list[Check]:
    if len(rows) != len(degrees) or [r[0] for r in rows] != list(range(1, len(degrees) + 1)):
        return [Check(f"{label}: rows {len(rows)} vs {len(degrees)}", INF, 0.0)]
    got = np.array([r[1:] for r in rows], dtype=float)
    e_ref = np.max(np.abs(got[:, 0] - degrees) / np.maximum(degrees, 1.0))
    e_nu = np.max(np.abs(got[:, 1] - nu) / np.maximum(np.abs(nu), 1.0))
    e_lam = np.max(np.abs(got[:, 2] - lam) / np.maximum(np.abs(lam), 1.0))
    return [
        Check(f"{label}: reference degrees", float(e_ref), 1e-12),
        Check(f"{label}: nu", float(e_nu), tol),
        Check(f"{label}: lambda", float(e_lam), 2.0 * tol),
    ]


ESTIMATE_TOL = 1e-8  # sizes converge to 1e-9 relative; the verify suite allows 1e-8


def estimate_request(cs, pair: Pair, dirichlet: bool, method: str, u: float) -> Request:
    modes = max(1, round(log_uniform(1, modes_cap(tuple(pair.ref_atoms), dirichlet), u)))
    bc = cs.DIRICHLET if dirichlet else cs.NEUMANN
    label = f"estimate {pair.label} vs {pair.reference} {bc} {method} modes={modes}"

    def call():
        return cs.estimate_pair(cs.parse_domain(pair.target), cs.parse_domain(pair.reference), bc, method, modes).rows

    def check(rows) -> list[Check]:
        return check_rows(label, rows, *reference_rows(pair, dirichlet, method, modes), ESTIMATE_TOL)

    return Request(label, call, check)


def geometry_request(cs, pair: Pair, dirichlet: bool) -> Request:
    bc = cs.DIRICHLET if dirichlet else cs.NEUMANN
    label = f"catalog_geometry {pair.label} {bc}"
    want = pair.target_geometry

    def call():
        return cs.catalog_geometry(cs.parse_domain(pair.target), bc)

    def check(g) -> list[Check]:
        corners = sum(m * (math.pi**2 / a - a) / 6.0 for a, m in g.corners)
        return [
            Check(f"{label}: n", flag(g.n != want.n), 0.0),
            Check(f"{label}: area", rel(g.area, want.area), ESTIMATE_TOL),
            Check(f"{label}: boundary", rel(g.boundary, want.boundary), ESTIMATE_TOL),
            Check(f"{label}: bulk R", rel(g.bulk_R_integral, (want.n - 1) * (want.n - 2) * want.area, 1.0), ESTIMATE_TOL),
            Check(f"{label}: K integral", rel(g.boundary_K_integral, want.k_integral, 1.0), ESTIMATE_TOL),
            Check(f"{label}: corner term", rel(corners, want.corner_term, 1.0), ESTIMATE_TOL),
        ]

    return Request(label, call, check)


def size_request(cs, n: int, rho: float) -> Request:
    label = f"regular_t_size({n}, {rho:.6g})"
    return Request(
        label,
        lambda: cs.regular_t_size(n, rho),
        lambda v: [Check(label, rel(v, ref.regular_t_size(n, rho)), ESTIMATE_TOL)],
    )


def estimate_blocks(cs, seed: int):
    """Per block and target family: estimate_pair for both bcs x both
    methods, one catalog_geometry and, for the regular simplices, one
    regular_t_size, each on its own target. The quadratic estimates and
    the catalog_geometry of RegularT(n >= 4) depend on the a2 the package
    gets wrong, so those families get the linear estimates only (the
    defect is in ``estimate_defects``). Within each family the shape
    parameters and the modes follow one Sweep each, so every block does
    about the same amount of work."""
    rng = random.Random(seed)
    settings = [(d, m) for d in (True, False) for m in ("linear", "quadratic")]
    shapes = {family: Sweep(rng) for family in FAMILIES}
    modes = {family: Sweep(rng) for family in FAMILIES}
    largest = lambda: 1.0
    first = True
    while True:
        block = []
        for family in FAMILIES:
            shape = shapes[family]
            # the first block asks every family for its largest modes, in a
            # fixed order: memory grows like modes^(n-1), so each run then
            # reaches the same peak whatever its seed and length
            mode = largest if first else modes[family]
            a2_wrong = family in A2_KNOWN_WRONG
            for dirichlet, method in settings:
                if not (a2_wrong and method == "quadratic"):
                    block.append(estimate_request(cs, random_pair(rng, family, shape()), dirichlet, method, mode()))
            if not a2_wrong:
                block.append(geometry_request(cs, random_pair(rng, family, shape()), rng.random() < 0.5))
            if family in (3, 4, 5, 6):
                block.append(size_request(cs, family, 1.0 - log_uniform(1e-3, 0.95, shape())))
        if not first:
            rng.shuffle(block)
        first = False
        yield block


def estimate_defects(cs, seed: int) -> list[Request]:
    """The a2 of RegularT(n >= 4) misses the corner loci: one quadratic
    estimate and one catalog_geometry of a seeded such target."""
    rng = random.Random(seed)
    pair = random_pair(rng, rng.choice(A2_KNOWN_WRONG), rng.random())
    dirichlet = rng.random() < 0.5
    # modes <= 40 keeps the reference expansion cheap for n up to 6
    return [estimate_request(cs, pair, dirichlet, "quadratic", rng.random() * math.log(40) / math.log(MODES_MAX)),
            geometry_request(cs, pair, dirichlet)]


# --- verify-checks --------------------------------------------------------


def residual_request(label: str, call, tol: float, digits: bool = True) -> Request:
    """A residual function: its value must not exceed tol. Identity
    residuals of O(1) quantities are absolute errors and count as digits."""
    return Request(label, call, lambda v: [Check(label, abs(v), tol, digits)])


def verify_line_checks(text: str) -> list[Check]:
    checks = []
    pat = re.compile(r"^\[(\w+)\] (ok|FAIL) (.*): residual (\S+) \(tol (\S+)\)$")
    for line in text.splitlines():
        m = pat.match(line)
        if m:
            checks.append(Check(f"verify [{m[1]}] {m[3]}", float(m[4]), float(m[5]), False))
    if not checks or not text.rstrip().endswith("PASS: 0 failing check(s)"):
        checks.append(Check("verify --suite all: PASS line", INF, 0.0, False))
    return checks


def paper_reference() -> dict[str, float]:
    """Published comparison rows, computed from the reference formulas."""
    t3 = [("T0",)] * 3
    half = [("S0",), ("S0",), ("T0",)]
    t3_in = ref.scaling_inputs(ref.atom_geometry(t3), True)
    hs_in = ref.scaling_inputs(ref.atom_geometry(half), True)
    tetra = ref.scaling_inputs(ref.regular_t_geometry(3, 0.5), True)
    cap = ref.scaling_inputs(ref.cap_geometry(math.pi / 3), True)
    phi = 2.0 * math.pi / 3.0
    sector = ref.scaling_inputs(ref.sector_geometry(math.acos(-1.0 / math.sqrt(3.0)), phi), True)
    sector_ref = ref.scaling_inputs(ref.atom_geometry([("Arc", 2, 3), ("T0",)]), True)
    one = lambda t, r, m, deg: float(ref.estimates(t, r, np.array([deg]), True, m)[0])
    rows = {}
    nu = one(tetra, t3_in, "linear", 3.0)
    rows["tetrahedral triangle linear nu1"] = nu
    rows["tetrahedral triangle linear lambda1"] = nu * (nu + 1)
    nu = one(tetra, t3_in, "quadratic", 3.0)
    rows["tetrahedral triangle quadratic lambda1"] = nu * (nu + 1)
    nu = one(cap, hs_in, "linear", 1.0)
    rows["cap pi/3 linear lambda1"] = nu * (nu + 1)
    sector_first = 1.5 + 1.0  # Arc(2pi/3) * T0: lowest degree b + 1, b = 3/2
    for method in ("linear", "quadratic"):
        nu = one(sector, sector_ref, method, sector_first)
        rows[f"sector {method} lambda1"] = nu * (nu + 1)
    for k, v in enumerate(ref.flat_limit_linear(math.pi, 2 * math.pi, hs_in, [1.0, 2.0, 3.0]), 1):
        rows[f"cap flat limit nu{k}*delta"] = v
    tri_area = math.sqrt(3.0) / 4.0
    for k, v in enumerate(ref.flat_limit_linear(tri_area, 3.0, t3_in, [3.0, 5.0]), 1):
        rows[f"triangle flat limit sqrt(lambda{k})*delta"] = v
    rows["triangle flat limit quadratic sqrt(lambda1)*delta"] = ref.flat_limit_quadratic(
        tri_area, 3.0, [math.pi / 3] * 3, t3_in, [3.0])[0]
    return rows


def paper_checks(rows: list[dict], print_tol: float) -> list[Check]:
    """Each row against the reference value, and its status against the
    published target; the target margin is recorded as |err|/tol."""
    want = paper_reference()
    checks = []
    if sorted(r["case"] for r in rows) != sorted(want):
        return [Check("paper: row set", INF, 0.0)]
    for r in rows:
        case = f"paper: {r['case']}"
        checks.append(Check(case, rel(r["computed"], want[r["case"]]), print_tol + ESTIMATE_TOL,
                            print_tol < PRINT_TOL["table"]))
        margin = abs(r["computed"] - r["target"])
        checks.append(Check(f"{case} vs published target", margin, r["tol"], False))
        if (r["status"] == "pass") != (margin <= r["tol"]):
            checks.append(Check(f"{case}: status {r['status']}", INF, 0.0, False))
    return checks


def cli_in_process(cs_cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cs_cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def random_correlation(rng: random.Random, n: int, equi: bool) -> tuple[np.ndarray, float, str]:
    """Equicorrelated or block-diagonal (blocks of size <= 3, rows
    permuted) correlation matrix with its exact orthant fraction."""
    if equi:
        rho = rng.uniform(0.05, 0.9)
        r = np.full((n, n), rho)
        np.fill_diagonal(r, 1.0)
        return r, 2.0**-n * ref.regular_t_fraction(n, rho), f"equicorrelated n={n} rho={rho:.4g}"
    sizes = [3, 1] if n == 4 else [3, 2]
    if rng.random() < 0.5:
        sizes = [2, 2] if n == 4 else [2, 3]
    r = np.eye(n)
    exact = 1.0
    at = 0
    for s in sizes:
        block = np.eye(s)
        for i in range(s):
            for j in range(i + 1, s):
                block[i, j] = block[j, i] = rng.uniform(-0.45, 0.9)
        if np.linalg.eigvalsh(block)[0] < 0.05:
            block = 0.5 * (block + np.eye(s))
        r[at:at + s, at:at + s] = block
        exact *= ref.orthant_fraction_small(block)
        at += s
    perm = list(range(n))
    rng.shuffle(perm)
    return r[np.ix_(perm, perm)], exact, f"block-diagonal n={n} blocks={sizes}"


def verify_blocks(cs, seed: int):
    import conespec.cli as cli

    rng = random.Random(seed)
    sweep = {k: Sweep(rng) for k in ("arc", "nu", "x", "mzf", "orthant", "mhk", "poisson", "functional", "pairing", "ode", "size")}
    catalog = ("HalfSphere(3)", "Sphere(2)", "T(3)")

    def functional(kind: str, n: int, z: float) -> Request:
        atoms = {"T": [("T0",)] * n, "Sphere": [("S0",)] * n, "HalfSphere": [("S0",)] * (n - 1) + [("T0",)]}[kind]
        gamma = ref.laurent(atoms, True).gamma
        label = f"functional {kind}({n}) z={z:.4g}"
        return residual_request(
            label, lambda: cs.functional_equation_residual(cs.domain_m(cs.parse_domain(f"{kind}({n})"), cs.DIRICHLET), n, gamma, z),
            1e-12)

    def pairing(n: int, z: float) -> Request:
        def call():
            d = cs.parse_domain(f"T({n})")
            return cs.dirichlet_neumann_pairing_residual(cs.domain_m(d, cs.DIRICHLET), cs.domain_m(d, cs.NEUMANN), n, z)
        return residual_request(f"pairing T({n}) z={z:.4g}", call, 1e-12)

    def recurrence(nu: float, x: float) -> Request:
        from scipy.special import iv
        label = f"I recurrence nu={nu:.4g} x={x:.4g}"

        def call():
            lo, mid, hi = cs.bessel_i(nu - 0.5, x), cs.bessel_i(nu + 0.5, x), cs.bessel_i(nu + 1.5, x)
            return mid, abs(lo - hi - (2.0 * nu + 1.0) / x * mid) / mid

        def check(out) -> list[Check]:
            mid, res = out
            return [Check(label, res, 1e-11), Check(f"I_{nu + 0.5:g}({x:.4g}) vs scipy", rel(mid, float(iv(nu + 0.5, x))), 1e-12)]

        return Request(label, call, check)

    def mhk(expr: str, s: float) -> Request:
        return residual_request(f"trace {expr} s={s:.4g}", lambda: cs.mhk_identity_residual(cs.parse_domain(expr), cs.DIRICHLET, s), 1e-5)

    def poisson(n: int, z: float) -> Request:
        def call():
            return cs.adaptive_integrate(
                lambda th: cs.poisson_kernel(n, th, z) * cs.sphere_size(n - 1) * math.sin(th) ** (n - 2),
                0.0, math.pi, tol_rel=1e-12) - 1.0
        return residual_request(f"poisson normalization n={n} z={z:.4g}", call, 1e-8)

    def size(n: int, rho: float, exact: float | None, tol: float) -> Request:
        label = f"|T_({rho:.4g})^{n - 1}|"
        want = exact if exact is not None else ref.regular_t_size(n, rho)
        return Request(label, lambda: cs.regular_t_size(n, rho), lambda v: [Check(label, rel(v, want), tol)])

    def orthant(r: np.ndarray, exact: float, label: str) -> Request:
        # the QMC contract bounds the standard error by 1e-3; the repo's
        # own test allows 2e-3 absolute
        return Request(f"general_t_size_fraction {label}", lambda: cs.general_t_size_fraction(r),
                       lambda v: [Check(f"general_t_size_fraction {label}", abs(v - exact), 2e-3, False),
                                  Check("general_t_size_fraction QMC (relative, rms)", rel(v, exact), INF,
                                        pool="qmc")])

    def weyl() -> Request:
        """The weyl suite: W(nu) against the Weyl law at the midpoints
        between degrees of T(3) in [12, 30]."""
        atoms = [("T0",)] * 3
        lr = ref.laurent(atoms, True)
        exact = ref.exact_spectrum(atoms, True, 40.0)
        degrees = [nu for nu, _ in exact]
        mids = [(a + b) / 2 for a, b in zip(degrees, degrees[1:]) if 12 <= (a + b) / 2 <= 30]

        def call():
            m = cs.domain_m(cs.parse_domain("T(3)"), cs.DIRICHLET)
            series = cs.expand_series(m, 40.0)
            co = cs.asymptotics_from_form(m)
            return [(nu, cs.counting_function(series, nu), cs.weyl_asymptotic(co, nu)) for nu in mids]

        def check(rows) -> list[Check]:
            checks = []
            for nu, w, asym in rows:
                want_w = sum(m for d, m in exact if d <= nu)
                want_a = lr.b0 * nu**2 / 2 + lr.b1 * nu + lr.b2
                checks += [Check(f"W({nu:g})", abs(w - want_w) / want_w, 1e-12),
                           Check(f"Weyl asymptotic({nu:g})", rel(asym, want_a), 1e-12),
                           Check(f"Weyl W({nu:g}) vs law", abs(w - asym) / w, 0.01, False)]
            return checks

        return Request("weyl T(3)", call, check)

    def small_rho() -> Request:
        def call():
            r2 = cs.regular_t_small_rho_residual(4, 1e-2)
            r3 = cs.regular_t_small_rho_residual(4, 1e-3)
            return 100.0 * r3 / r2
        return residual_request("small-rho order (ratio >= 100)", call, 1.0, digits=False)

    def main_request(argv: list[str], checker) -> Request:
        label = "main " + " ".join(argv)

        def check(out) -> list[Check]:
            code, text, err = out
            return [Check(f"{label}: exit {code}", flag(code != 0), 0.0, False)] + checker(text)

        return Request(label, lambda: cli_in_process(cli, argv), check)

    while True:
        block: list[Request] = []
        # each verify suite's own parameter sets
        block += [residual_request(f"arc-trace r={r}", lambda r=r: cs.arc_trace_identity_residual(r), 1e-10)
                  for r in (0.01, 1.0, 3.0)]
        block += [recurrence(nu, x) for nu in (0.5, 1.0, 3.0) for x in (0.5, 2.0, 10.0)]
        block += [residual_request(f"mzf free-space n={n} z=0.4", lambda n=n: cs.mzf_numeric_residual("free_space", n, 0.4), 1e-8)
                  for n in (1, 2, 3)]
        block += [residual_request(f"mzf orthant(2) z={z}", lambda z=z: cs.mzf_numeric_residual("orthant", 2, z), 1e-6)
                  for z in (0.2, 0.5, 0.8)]
        block += [mhk(expr, s) for expr in ("T(3)", "Sphere(2)", "HalfSphere(3)") for s in (0.3, 0.5, 1.0)]
        block += [poisson(n, 0.5) for n in (2, 3, 4)]
        block += [functional(kind, n, z) for kind in ("T", "Sphere", "HalfSphere") for n in range(2, 6)
                  for z in (0.3, 0.5, 0.7)]
        block += [pairing(n, z) for n in range(2, 6) for z in (0.3, 0.5, 0.7)]
        block += [size(n, 0.5, ref.sphere_size(n) / (n + 1), 1e-8) for n in range(2, 7)]
        block += [size(3, i / 10, 3.0 * math.acos(-i / 10) - math.pi, 1e-9) for i in range(1, 10)]
        block += [residual_request(f"recursion ODE n={n} rho={rho}",
                                   lambda n=n, rho=rho: cs.regular_t_recursion_residual(n, rho), 1e-5, digits=False)
                  for n in (3, 4, 5) for rho in (0.2, 0.4)]
        block += [small_rho(), weyl()]
        # seeded extra points inside each function's documented domain. The
        # calls above 12 ms (mzf orthant, QMC, verify --suite all, small-s
        # traces, slow sizes) are kept to about 7% of a block and the 5-12 ms
        # recursion checks to about 15%, so p90 falls among the latter and
        # not on the edge between two cost classes.
        block += [residual_request(f"arc-trace r={r:.4g}", lambda r=r: cs.arc_trace_identity_residual(r), 1e-10)
                  for r in (0.01 + 9.99 * u for u in sweep["arc"].take(10))]
        block += [recurrence(0.5 + 4.5 * sweep["nu"](), 0.1 + 29.9 * sweep["x"]()) for _ in range(12)]
        block += [residual_request(f"mzf free-space n={n} z={z:.4g}", lambda n=n, z=z: cs.mzf_numeric_residual("free_space", n, z), 1e-8)
                  for n, z in ((rng.randint(1, 6), 0.1 + 0.8 * u) for u in sweep["mzf"].take(8))]
        z = 0.1 + 0.8 * sweep["orthant"]()
        block.append(residual_request(f"mzf orthant(2) z={z:.4g}", lambda z=z: cs.mzf_numeric_residual("orthant", 2, z), 1e-6))
        block += [mhk(rng.choice(catalog), 0.25 + 1.75 * u) for u in sweep["mhk"].take(2)]
        block += [poisson(rng.randint(2, 6), 0.9 * u) for u in sweep["poisson"].take(8)]
        block += [functional(rng.choice(("T", "Sphere", "HalfSphere")), rng.randint(2, 6), 0.3 + 0.4 * u)
                  for u in sweep["functional"].take(64)]
        block += [pairing(rng.randint(2, 6), 0.3 + 0.4 * u) for u in sweep["pairing"].take(10)]
        block += [residual_request(f"recursion ODE n={n} rho={rho:.4g}",
                                   lambda n=n, rho=rho: cs.regular_t_recursion_residual(n, rho), 1e-5, digits=False)
                  for n, rho in ((rng.randint(3, 5), 0.1 + 0.35 * u) for u in sweep["ode"].take(20))]
        block += [size(rng.randint(2, 6), 1.0 - log_uniform(1e-3, 0.95, u), None, 1e-8) for u in sweep["size"].take(3)]
        block += [orthant(*random_correlation(rng, n, equi)) for n in (4, 5) for equi in (True, False)]
        # the CLI's own suites and the paper table, in process
        block.append(main_request(["verify", "--suite", "all"], verify_line_checks))
        block.append(main_request(["paper", "--format", "json"], lambda text: paper_checks(json.loads(text), 0.0)))
        rng.shuffle(block)
        yield block


# --- cli-cold ------------------------------------------------------------

# Inputs the CLI should refuse with a typed error (exit 2, 3 or 4, no
# traceback). Each of them fails today, so they are known defects, sent
# after the timed loop and not in the timed cycles: one per cli-cold run,
# all of them in process per verify-checks run.
ROBUSTNESS_PROBES = (
    ["spectrum", "Arc(pi/0)"],
    ["spectrum", "Sphere(1000)"],
    ["spectrum", "T(3)", "--max-nu", "nan"],
    ["estimate", "--target", "RegularT(3, rho=0.5)", "--reference", "T(3)", "--modes", "-3"],
    ["estimate", "--target", "RegularT(3, rho=0.5)", "--reference", "T(3)", "--modes", "0"],
    ["coeffs", "Sector(theta=4, phi=9)"],
    # a2 misses the corners where the edges of two arcs meet: this is
    # T(4), whose a2 is 8.6359, but the package reports 23.44
    ["coeffs", "Arc(pi/2)*Arc(pi/2)"],
)
# Left out because they do not terminate on the seed: spectrum "T(3)"
# --max-nu 1e9, and estimate Cap(theta=0.0001) vs HalfSphere(3) with
# --bc neumann --method quadratic.

ESTIMATE_PAIRS = (
    ("RegularT(3, rho=0.5)", "T(3)"),
    ("Cap(theta=pi/3)", "HalfSphere(3)"),
    ("Sector(theta=%r, phi=2*pi/3)" % math.acos(-1.0 / math.sqrt(3.0)), "Sector(theta=pi/2, phi=2*pi/3)"),
)

PRINT_TOL = {"table": 5.000001e-6, "csv": 5.000001e-12, "json": 1e-12}


def parse_rows(text: str, fmt: str) -> list[tuple[int, float, int, float]]:
    if fmt == "json":
        return [(r["k"], r["nu"], r["multiplicity"], r["lambda"]) for r in json.loads(text)]
    lines = text.strip().splitlines()[1:]
    sep = "," if fmt == "csv" else None
    rows = []
    for line in lines:
        k, nu, m, lam = line.split(sep)
        rows.append((int(k), float(nu), int(m), float(lam)))
    return rows


def check_printed_rows(label: str, rows, want, fmt: str, tol: float = 0.0) -> list[Check]:
    """want: (nu, multiplicity, lambda) per row, exact or reference; tol is
    the program's own tolerance, on top of the printed precision."""
    if len(rows) != len(want) or [r[0] for r in rows] != list(range(1, len(want) + 1)):
        return [Check(f"{label}: rows {len(rows)} vs {len(want)}", INF, 0.0)]
    tol += PRINT_TOL[fmt]
    digits = fmt != "table"  # six printed digits say nothing about the numerics
    # an empty table is right when no degree lies below the cutoff
    e_nu = max((rel(r[1], w[0], 1.0) for r, w in zip(rows, want)), default=0.0)
    e_m = max((abs(r[2] - w[1]) / w[1] for r, w in zip(rows, want)), default=0.0)
    e_lam = max((rel(r[3], w[2], 1.0) for r, w in zip(rows, want)), default=0.0)
    return [Check(f"{label}: nu", e_nu, tol, digits), Check(f"{label}: multiplicity", e_m, 0.0, digits),
            Check(f"{label}: lambda", e_lam, tol, digits)]


def coeffs_reference(kind: str, arg, dirichlet: bool) -> dict[str, float]:
    if kind == "atoms":
        geom = ref.atom_geometry(arg)
    elif kind == "Cap":
        geom = ref.cap_geometry(arg)
    elif kind == "Sector":
        geom = ref.sector_geometry(*arg)
    else:
        geom = ref.regular_t_geometry(3, arg)
    si = ref.scaling_inputs(geom, dirichlet)
    n = geom.n
    ell = 0.5 * (n - 2)
    r1 = ell - 0.5 * si.gamma
    b2 = 0.5 * si.c0 * (r1 * r1 - ell * ell / (n - 2) - 0.25 * si.gamma**2 + geom.a2 / ((n - 2) * geom.area))
    a1 = (-1.0 if dirichlet else 1.0) * 0.5 * math.sqrt(math.pi) * geom.boundary
    return {"n": n, "area": geom.area, "boundary": geom.boundary, "c0": si.c0, "c1": si.c1, "gamma": si.gamma,
            "a0": geom.area, "a1": a1, "a2": geom.a2, "b0": si.c0, "b1": si.c0 * r1, "b2": b2, "p": si.p, "q": si.q}


def cli_cycle(rng: random.Random, index: int, seed: int) -> list[Request]:
    """One cycle: spectrum, estimate, size, coeffs, paper."""
    fmt = ("table", "csv", "json")[(seed + index) % 3]
    cycle: list[Request] = []

    # spectrum of a catalog join, cutoff <= 60
    text, atoms = random_join(rng, 8)
    dirichlet = rng.random() < 0.5
    cutoff = ref.lattice_cutoff(atoms, rng.uniform(5.0, 60.0))
    bc = "dirichlet" if dirichlet else "neumann"
    argv = ["spectrum", text, "--max-nu", repr(cutoff), "--bc", bc, "--format", fmt]

    def spectrum_check(text_out, atoms=atoms, dirichlet=dirichlet, cutoff=cutoff, fmt=fmt, label=" ".join(argv)):
        n = ref.ambient_dim(atoms)
        want = [(float(nu), m, float(nu * (nu + n - 2))) for nu, m in ref.exact_spectrum(atoms, dirichlet, cutoff)]
        return check_printed_rows(label, parse_rows(text_out, fmt), want, fmt)

    cycle.append(cli_request(argv, spectrum_check))

    # estimate: the README and paper pairs
    target, reference = ESTIMATE_PAIRS[rng.randrange(len(ESTIMATE_PAIRS))]
    method = rng.choice(("linear", "quadratic"))
    modes = rng.randint(1, 12)
    dirichlet = rng.random() < 0.7
    bc = "dirichlet" if dirichlet else "neumann"
    efmt = rng.choice(("table", "csv", "json"))
    argv = ["estimate", "--target", target, "--reference", reference, "--method", method,
            "--modes", str(modes), "--bc", bc, "--format", efmt]
    pair = {"T(3)": Pair("tetra", target, reference, [("T0",)] * 3, ref.regular_t_geometry(3, 0.5), 3),
            "HalfSphere(3)": Pair("cap", target, reference, [("S0",), ("S0",), ("T0",)], ref.cap_geometry(math.pi / 3), 3),
            }.get(reference) or Pair("sector", target, reference, [("Arc", 2, 3), ("T0",)],
                                     ref.sector_geometry(math.acos(-1.0 / math.sqrt(3.0)), 2 * math.pi / 3), 3)

    def estimate_check(text_out, pair=pair, dirichlet=dirichlet, method=method, modes=modes, fmt=efmt, label=" ".join(argv)):
        _, nu, lam = reference_rows(pair, dirichlet, method, modes)
        grouped: list[list] = []
        for v, l in zip(nu, lam):
            if grouped and abs(grouped[-1][0] - v) <= 1e-9:
                grouped[-1][1] += 1
            else:
                grouped.append([float(v), 1, float(l)])
        return check_printed_rows(label, parse_rows(text_out, fmt), grouped, fmt, ESTIMATE_TOL)

    cycle.append(cli_request(argv, estimate_check))

    # size of a catalog domain
    choice = rng.randrange(4)
    if choice == 0:
        n, rho = rng.randint(3, 6), rng.uniform(0.05, 0.95)
        expr, area = f"RegularT({n}, rho={rho!r})", ref.regular_t_size(n, rho)
    elif choice == 1:
        theta = rng.uniform(0.3, 2.8)
        expr, area = f"Cap(theta={theta!r})", ref.cap_geometry(theta).area
    elif choice == 2:
        theta, q = rng.uniform(0.3, 2.8), rng.randint(1, 6)
        p = rng.randint(1, 2 * q - 1)
        expr, area = f"Sector(theta={theta!r}, phi={arc_text(p, q)})", ref.sector_geometry(theta, p * math.pi / q).area
    else:
        expr, join_atoms = random_join(rng, 8)
        area = ref.atom_fractions(join_atoms)[0] * ref.sphere_size(ref.ambient_dim(join_atoms))
    argv = ["size", expr]
    cycle.append(cli_request(argv, lambda t, area=area, label=" ".join(argv): [
        Check(label, rel(float(t.strip()), area), PRINT_TOL["csv"] + ESTIMATE_TOL)]))

    # coeffs of a domain whose a2 is complete; joins with two arcs are
    # a known defect (ROBUSTNESS_PROBES)
    choice = rng.randrange(4)
    dirichlet = rng.random() < 0.5
    if choice == 0:
        while True:
            expr, atoms = random_join(rng, 8, max_arcs=1)
            if ref.ambient_dim(atoms) >= 3:
                break
        want = coeffs_reference("atoms", atoms, dirichlet)
    elif choice == 1:
        theta = rng.uniform(0.3, 2.8)
        expr, want = f"Cap(theta={theta!r})", coeffs_reference("Cap", theta, dirichlet)
    elif choice == 2:
        theta, q = rng.uniform(0.3, 2.8), rng.randint(1, 6)
        p = rng.randint(1, 2 * q - 1)
        expr = f"Sector(theta={theta!r}, phi={arc_text(p, q)})"
        want = coeffs_reference("Sector", (theta, p * math.pi / q), dirichlet)
    else:
        rho = rng.uniform(0.05, 0.95)
        expr, want = f"RegularT(3, rho={rho!r})", coeffs_reference("RegularT3", rho, dirichlet)
    argv = ["coeffs", expr, "--bc", "dirichlet" if dirichlet else "neumann"]

    def coeffs_check(text_out, want=want, label=" ".join(argv)):
        got = dict(line.split(" = ") for line in text_out.strip().splitlines())
        if sorted(got) != sorted(want):
            return [Check(f"{label}: keys", INF, 0.0)]
        # relative, or absolute below 1; sizes inside may carry ESTIMATE_TOL
        return [Check(f"{label}: {k}", rel(float(got[k]), v, 1.0), PRINT_TOL["csv"] + ESTIMATE_TOL)
                for k, v in want.items()]

    cycle.append(cli_request(argv, coeffs_check))

    # the paper table
    pfmt = ("json", "csv", "table")[(seed + index) % 3]
    argv = ["paper", "--format", pfmt]

    def paper_parse(text_out, fmt=pfmt):
        if fmt == "json":
            return paper_checks(json.loads(text_out), 0.0)
        if fmt == "csv":
            rows = [dict(zip(("case", "computed", "target", "tol", "status"), line.rsplit(",", 4)))
                    for line in text_out.strip().splitlines()[1:]]
            for r in rows:
                r["computed"], r["target"], r["tol"] = float(r["computed"]), float(r["target"]), float(r["tol"])
            return paper_checks(rows, PRINT_TOL["csv"])
        rows = []
        for line in text_out.strip().splitlines()[:-1]:
            head, computed, target, status = line.rsplit(None, 3)
            rows.append({"case": head.strip(), "computed": float(computed), "target": float(target),
                         "tol": PAPER_TOLS.get(head.strip(), 0.0), "status": status})
        return paper_checks(rows, PRINT_TOL["table"]) + [
            Check("paper table PASS line", flag(not text_out.rstrip().endswith("PASS: 0 failing row(s)")), 0.0, False)]

    cycle.append(cli_request(argv, paper_parse))
    return cycle


def cli_defects(cs, seed: int) -> list[Request]:
    """One robustness reproducer, rotating with the seed."""
    return [cli_request(list(ROBUSTNESS_PROBES[seed % len(ROBUSTNESS_PROBES)]), None)]


def verify_defects(cs, seed: int) -> list[Request]:
    """Every robustness reproducer, replayed through the CLI's main() in
    process, where each takes milliseconds."""
    import conespec.cli as cli

    def refused(argv: list[str]) -> Request:
        label = "main " + " ".join(argv)
        return Request(label, lambda: cli_in_process(cli, argv), lambda out: refused_checks(label, out))

    return [refused(list(argv)) for argv in ROBUSTNESS_PROBES]


PAPER_TOLS = {
    "tetrahedral triangle linear nu1": 1e-3,
    "tetrahedral triangle linear lambda1": 2e-3,
    "tetrahedral triangle quadratic lambda1": 5e-4,
    "cap pi/3 linear lambda1": 1e-3,
    "sector linear lambda1": 1e-3,
    "sector quadratic lambda1": 1e-3,
    "cap flat limit nu1*delta": 5e-4,
    "cap flat limit nu2*delta": 5e-4,
    "cap flat limit nu3*delta": 5e-4,
    "triangle flat limit sqrt(lambda1)*delta": 1e-3,
    "triangle flat limit sqrt(lambda2)*delta": 1e-3,
    "triangle flat limit quadratic sqrt(lambda1)*delta": 5e-4,
}


@dataclass
class CliContext:
    """How a CLI request runs: a fresh interpreter, or main() in process."""

    python: str = sys.executable
    env: dict = field(default_factory=dict)
    cwd: str = "."
    in_process: object = None  # the conespec.cli module when replaying in process
    # largest peak RSS of a child that served a timed request
    peak_rss_kib: int = 0


CLI = CliContext()


def run_child(cmd: list[str], env: dict, cwd: str, timeout: float = 120.0) -> tuple[int, str, str, int]:
    """Run a child process to its end: exit code, stdout, stderr, and the
    child's own peak RSS in KiB (from wait4, so no other child mixes in)."""
    with subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out: list[str] = []
            reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
            reader.start()
            err = proc.stderr.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out[0], err, usage.ru_maxrss


def refused_checks(label: str, out) -> list[Check]:
    """The input was refused with a typed error: its documented exit code
    (2, 3 or 4) and no traceback."""
    code, _, stderr = out
    bad = code not in (2, 3, 4) or "Traceback" in stderr
    return [Check(f"{label}: exit {code}{' with traceback' if 'Traceback' in stderr else ''}",
                  INF if bad else 0.0, 0.0, False)]


def cli_request(argv: list[str], checker) -> Request:
    """checker None: the input must be refused with a typed error."""
    label = "conespec " + " ".join(argv)

    def call():
        if CLI.in_process is not None:
            try:
                return cli_in_process(CLI.in_process, argv)
            except Exception as exc:  # an uncaught error is what a fresh process would die of
                return 1, "", f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n"
        code, stdout, stderr, rss_kib = run_child([CLI.python, "-m", "conespec.cli", *argv], CLI.env, CLI.cwd)
        CLI.peak_rss_kib = max(CLI.peak_rss_kib, rss_kib)
        return code, stdout, stderr

    def check(out) -> list[Check]:
        code, stdout, stderr = out
        if checker is None:
            return refused_checks(label, out)
        checks = [Check(f"{label}: exit {code}", flag(code != 0), 0.0, False)]
        if code == 0 and checker is not None:
            checks += checker(stdout)
        return checks

    return Request(label, call, check)


def cli_blocks(cs, seed: int):
    rng = random.Random(seed)
    index = 0
    while True:
        yield cli_cycle(rng, index, seed)
        index += 1


WORKLOADS = {
    "cli-cold": cli_blocks,
    "estimate-sweep": estimate_blocks,
    "spectrum-sweep": spectrum_blocks,
    "verify-checks": verify_blocks,
}

# requests that reproduce known defects, sent once per run after the timed loop
KNOWN_DEFECTS = {
    "cli-cold": cli_defects,
    "estimate-sweep": estimate_defects,
    "verify-checks": verify_defects,
}

# what a fresh process does before it can serve the first request
SETUP = {
    "cli-cold": "import conespec.cli",
    "estimate-sweep": (
        "import conespec as cs; cs.estimate_pair(cs.parse_domain('RegularT(3, rho=0.5)'),"
        " cs.parse_domain('T(3)'), cs.DIRICHLET, 'linear', 1)"
    ),
    "spectrum-sweep": (
        "import conespec as cs; m = cs.domain_m(cs.parse_domain('T(3)'), cs.DIRICHLET);"
        " cs.counting_function(cs.expand_series(m, 30.0), 9.0); cs.asymptotics_from_form(m)"
    ),
    "verify-checks": (
        "import conespec as cs, conespec.cli; cs.arc_trace_identity_residual(1.0);"
        " cs.regular_t_size(3, 0.5)"
    ),
}
