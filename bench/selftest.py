"""Self-test of the benchmark: references, checkers, and one block each.

    python3 bench/selftest.py

1. The references agree with independent closed forms and with mpmath.
2. Every checker accepts the program's real output and rejects a
   deliberately perturbed copy (a multiplicity + 1, lambda * (1 + 1e-6),
   a residual above its tolerance, ...), so the correctness gate is real.
3. One block of each workload, at its smallest size, passes its checks.

Exits 0 when everything holds, 1 otherwise. It makes no timing asserts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def passes(req, out) -> bool:
    return all(c.ok for c in req.check(out))


# --- 1. references -----------------------------------------------------------


def check_references() -> None:
    import mpmath

    mpmath.mp.dps = 30
    for n, rho in ((3, 0.3), (4, 0.9), (5, 0.99), (6, 0.999)):
        c = mpmath.sqrt(mpmath.mpf(rho) / (1 - mpmath.mpf(rho)))
        f = lambda u: mpmath.exp(-u * u) * mpmath.erfc(c * u) ** n
        pts = [-mpmath.inf, -1 / c, 0, 1 / c, mpmath.inf]
        exact = mpmath.quad(f, pts) / mpmath.sqrt(mpmath.pi)
        err = abs(ref.regular_t_fraction(n, rho) - float(exact)) / float(exact)
        expect(err < 1e-13, f"regular_t_fraction({n}, {rho}) vs mpmath: rel err {err:.2e}")
    for n in range(2, 7):
        err = abs(ref.regular_t_size(n, 0.5) / (ref.sphere_size(n) / (n + 1)) - 1)
        expect(err < 1e-14, f"|T_(1/2)^{n - 1}| = |S^{n - 1}|/{n + 1}: rel err {err:.2e}")
    # harmonic polynomials of degree nu on R^n: C(nu+n-1, n-1) - C(nu+n-3, n-1)
    for n in (2, 3, 5, 9):
        got = dict(ref.exact_spectrum([("S0",)] * n, True, 40.5))
        want = {nu: math.comb(nu + n - 1, n - 1) - (math.comb(nu + n - 3, n - 1) if nu >= 2 else 0)
                for nu in range(41)}
        expect(all(got.get(float(nu), 0) == m for nu, m in want.items()),
               f"Sphere({n}) multiplicities = dimensions of spherical harmonics")
    # Dirichlet T(n): harmonic polynomials odd in every variable, x1...xn * even harmonic part
    for n in (2, 3, 4):
        got = dict(ref.exact_spectrum([("T0",)] * n, True, 30.5))
        want = {n + 2 * j: math.comb(j + n - 2, n - 2) for j in range(16) if n + 2 * j <= 30}
        expect(got == {float(k): v for k, v in want.items()}, f"T({n}) Dirichlet multiplicities")
    # Laurent data against a numeric evaluation of the exact series
    atoms = [("Arc", 2, 3), ("T0",), ("S0",)]
    lr = ref.laurent(atoms, True)
    series = ref.exact_spectrum(atoms, True, 4000.5)
    s = 0.02
    value = sum(m * math.exp(-s * nu) for nu, m in series)
    n = lr.pole_order + 1
    approx = lr.b0 * s ** (1 - n) + lr.b1 * s ** (2 - n) + lr.b2 * s ** (3 - n)
    expect(abs(value - approx) / value < 1e-4, f"Laurent expansion of Arc(2pi/3)*T0*S0 at s = {s}")
    # the corner formula of T_(rho) at rho = 0 against the a2 read off the spectrum of T(n)
    for n in (3, 4, 5, 6):
        a = ref.regular_t_geometry(n, 0.0).a2
        b = ref.atom_geometry([("T0",)] * n).a2
        expect(abs(a - b) < 1e-12 * abs(b), f"a2 of T({n}): corner formula {a:.12g} = spectral {b:.12g}")
    # a cap of colatitude pi/2 is the hemisphere, a sector reaching the equator is Arc(phi)*T0
    expect(abs(ref.cap_geometry(math.pi / 2).a2 - ref.atom_geometry([("S0",), ("S0",), ("T0",)]).a2) < 1e-12,
           "a2 of Cap(pi/2) = a2 of HalfSphere(3)")
    expect(abs(ref.sector_geometry(math.pi / 2, 2 * math.pi / 3).a2 - ref.atom_geometry([("Arc", 2, 3), ("T0",)]).a2)
           < 1e-12, "a2 of Sector(pi/2, 2pi/3) = a2 of Arc(2pi/3)*T0")


# --- 2. checkers reject perturbed output ----------------------------------------


def perturbed(req, out, mutate, what: str) -> None:
    expect(passes(req, out), f"{what}: real output accepted")
    expect(not passes(req, mutate(out)), f"{what}: perturbed output rejected")


def check_checkers(cs, cli) -> None:
    spectrum = next(wl.spectrum_blocks(cs, 3))[0]
    out = spectrum.call()

    def plus_one(o):
        terms, count, co = o
        return ((terms[0][0], terms[0][1] + 1),) + tuple(terms[1:]), count, co

    perturbed(spectrum, out, plus_one, f"spectrum-sweep multiplicity + 1 ({spectrum.label})")
    perturbed(spectrum, out, lambda o: (o[0], o[1] + 1 + o[1] // 10**9, o[2]),
              "spectrum-sweep counting function + max(1, 1e-9 of it)")
    perturbed(spectrum, out, lambda o: (o[0], o[1], dataclasses.replace(o[2], b2=o[2].b2 * (1 + 1e-9) + 1e-9)),
              "spectrum-sweep b2 * (1 + 1e-9)")

    rng = random.Random(5)
    pair = wl.random_pair(rng, 3, 0.4)
    est = wl.estimate_request(cs, pair, True, "linear", 0.6)
    out = est.call()
    bump = lambda o: (o[0][:3] + (o[0][3] * (1 + 1e-6),),) + tuple(o[1:])
    perturbed(est, out, bump, f"estimate-sweep lambda * (1 + 1e-6) ({est.label})")
    geo = wl.geometry_request(cs, pair, False)
    perturbed(geo, geo.call(), lambda g: dataclasses.replace(g, area=g.area * (1 + 1e-6)), "catalog_geometry area * (1 + 1e-6)")
    size = wl.size_request(cs, 5, 0.97)
    perturbed(size, size.call(), lambda v: v * (1 + 1e-6), "regular_t_size * (1 + 1e-6)")
    wrong = wl.geometry_request(cs, wl.random_pair(rng, 4, 0.3), True)
    expect(not passes(wrong, wrong.call()), "catalog_geometry of RegularT(4): missing corners caught")
    for req in wl.estimate_defects(cs, 3):
        expect(not passes(req, req.call()), f"known defect reproduced: {req.label}")

    verify = next(wl.verify_blocks(cs, 2))
    residual = next(r for r in verify if r.label.startswith("mzf free-space"))
    v = residual.call()
    tol = residual.check(v)[0].tol
    perturbed(residual, v, lambda x: 2.0 * tol, f"verify residual above its tolerance ({residual.label})")
    main_verify = next(r for r in verify if r.label == "main verify --suite all")
    out = main_verify.call()
    perturbed(main_verify, out, lambda o: (o[0], o[1].replace("PASS: 0 failing", "FAIL: 1 failing"), o[2]),
              "main verify --suite all: failing summary rejected")
    lines = out[1].splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("[bessel] ok"))
    lines[first] = lines[first].rsplit(" (tol ", 1)[0].rsplit("residual ", 1)[0] + "residual 1 (tol 1e-10)"
    expect(not passes(main_verify, (0, "\n".join(lines) + "\n", "")), "main verify --suite all: residual above tol rejected")
    paper = next(r for r in verify if r.label.startswith("main paper"))
    out = paper.call()

    def nudge(o):
        rows = json.loads(o[1])
        rows[0]["computed"] *= 1 + 1e-6
        return o[0], json.dumps(rows), o[2]

    perturbed(paper, out, nudge, "paper row computed * (1 + 1e-6)")
    orthant = next(r for r in verify if r.label.startswith("general_t_size_fraction"))
    perturbed(orthant, orthant.call(), lambda v: v + 3e-3, "general_t_size_fraction + 3e-3")

    wl.CLI.in_process = cli
    try:
        cycle = wl.cli_cycle(random.Random(4), 0, 1)  # seed 1, cycle 0: csv
        spec = cycle[0]
        out = spec.call()

        def bump_csv(o):
            rows = o[1].splitlines()
            k, nu, m, lam = rows[1].split(",")
            rows[1] = ",".join((k, nu, m, repr(float(lam) * (1 + 1e-6) + 1e-6)))
            return o[0], "\n".join(rows) + "\n", o[2]

        perturbed(spec, out, bump_csv, f"cli spectrum csv lambda * (1 + 1e-6) ({spec.label})")

        def more_m(o):
            rows = o[1].splitlines()
            k, nu, m, lam = rows[1].split(",")
            rows[1] = ",".join((k, nu, str(int(m) + 1), lam))
            return o[0], "\n".join(rows) + "\n", o[2]

        perturbed(spec, out, more_m, "cli spectrum csv multiplicity + 1")
        expect(len(cycle) == 5, "cli cycle: no robustness reproducer among the timed requests")
        probe = wl.cli_defects(cs, 1)[0]
        expect(passes(probe, (2, "", "parse error: ...\n")), "robustness probe: exit 2 accepted")
        expect(not passes(probe, (1, "", "Traceback (most recent call last):\n")), "robustness probe: traceback rejected")
        expect(not passes(probe, (0, "k nu\n", "")), "robustness probe: exit 0 rejected")
    finally:
        wl.CLI.in_process = None


# --- 3. one block of each workload --------------------------------------------


def check_blocks(cs) -> None:
    import run

    env = __import__("spans").child_env(ROOT)
    wl.CLI.env, wl.CLI.cwd = env, ROOT
    for name, blocks in wl.WORKLOADS.items():
        tally = run.Tally()
        run.run_block(next(blocks(cs, 11)), tally, [])
        expect(tally.attempted > 0 and tally.failed == 0,
               f"{name}: one block, {tally.attempted} requests, failures: {tally.failures}")


def main() -> int:
    import conespec as cs
    import conespec.cli as cli

    check_references()
    check_checkers(cs, cli)
    check_blocks(cs)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
