"""Command-line front end.

Exit codes: 0 ok, 2 parse error, 3 numeric failure, 4 unsupported
operation. Numbers print with 12 significant digits in csv/json and 6 in
table format.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Sequence

from .domain import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    ambient_dim,
    parse_domain,
)
from .errors import (
    CutoffExceeded,
    DimensionError,
    DimensionMismatch,
    InsufficientModes,
    NegativeDiscriminant,
    NonIntegerMultiplicity,
    NotPositiveDefinite,
    ParseError,
    QuadratureFailure,
    RootNotBracketed,
    ToleranceNotMet,
    UnsupportedAtom,
    UnsupportedDomain,
)
from .geometry import (
    catalog_geometry,
    heat_coeffs,
    regular_t_recursion_residual,
    regular_t_size,
    regular_t_small_rho_residual,
    scaling_inputs,
    sphere_size,
    weyl_coeffs_geometric,
)
from .heatkernel import (
    arc_trace_identity_residual,
    mhk_identity_residual,
    mzf_numeric_residual,
    poisson_kernel,
)
from .mfun import (
    asymptotics_from_form,
    counting_function,
    dirichlet_neumann_pairing_residual,
    domain_m,
    expand_series,
    functional_equation_residual,
    weyl_asymptotic,
)
from .scaling import estimate_pair, flat_limit_linear, flat_limit_quadratic
from .special import adaptive_integrate, bessel_i

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_UNSUPPORTED = 4

_NUMERIC_ERRORS = (
    CutoffExceeded,
    InsufficientModes,
    NegativeDiscriminant,
    NonIntegerMultiplicity,
    NotPositiveDefinite,
    QuadratureFailure,
    RootNotBracketed,
    ToleranceNotMet,
    OverflowError,
)
_UNSUPPORTED_ERRORS = (UnsupportedAtom, UnsupportedDomain, DimensionMismatch)


def _fmt(x: float, digits: int) -> str:
    if isinstance(x, int):
        return str(x)
    return format(x, f".{digits}g")


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    """rows: list of {k, nu, multiplicity, lambda}."""
    keys = ("k", "nu", "multiplicity", "lambda")
    if fmt == "csv":
        out.write(",".join(keys) + "\n")
        for r in rows:
            out.write(",".join(_fmt(r[key], 12) for key in keys) + "\n")
    elif fmt == "json":
        out.write(
            json.dumps(
                [{key: r[key] for key in keys} for r in rows],
                default=float,
            )
            + "\n"
        )
    else:
        widths = {"k": 4, "nu": 14, "multiplicity": 14, "lambda": 14}
        out.write("".join(key.rjust(widths[key]) for key in keys) + "\n")
        for r in rows:
            out.write(
                "".join(_fmt(r[key], 6).rjust(widths[key]) for key in keys) + "\n"
            )


def _bc(tag: str) -> BoundaryCondition:
    return DIRICHLET if tag == "dirichlet" else NEUMANN


def _cmd_spectrum(args, out) -> int:
    d = parse_domain(args.expr)
    bc = _bc(args.bc)
    series = expand_series(domain_m(d, bc), args.max_nu)
    n = ambient_dim(d)
    rows = [
        {"k": k, "nu": nu, "multiplicity": m, "lambda": nu * (nu + n - 2) + 0.0}
        for k, (nu, m) in enumerate(series.terms, start=1)
    ]
    _emit_rows(rows, args.format, out)
    return EXIT_OK


def _cmd_estimate(args, out) -> int:
    target = parse_domain(args.target)
    ref = parse_domain(args.reference)
    report = estimate_pair(
        target, ref, _bc(args.bc), method=args.method, modes=args.modes
    )
    rows = [
        {"k": k, "nu": nu, "multiplicity": m, "lambda": lam}
        for k, (nu, m, lam) in enumerate(report.multiplicity_grouped(), start=1)
    ]
    _emit_rows(rows, args.format, out)
    return EXIT_OK


def _cmd_size(args, out) -> int:
    d = parse_domain(args.expr)
    g = catalog_geometry(d, DIRICHLET)
    out.write(_fmt(g.area, 12) + "\n")
    return EXIT_OK


def _cmd_coeffs(args, out) -> int:
    d = parse_domain(args.expr)
    g = catalog_geometry(d, _bc(args.bc))
    hc = heat_coeffs(g)
    si = scaling_inputs(g)
    b0, b1, b2 = weyl_coeffs_geometric(g)
    for name, value in (
        ("n", g.n),
        ("area", g.area),
        ("boundary", g.boundary),
        ("c0", si.c0),
        ("c1", si.c1),
        ("gamma", si.gamma),
        ("a0", hc.a0),
        ("a1", hc.a1),
        ("a2", hc.a2),
        ("b0", b0),
        ("b1", b1),
        ("b2", b2),
        ("p", si.p),
        ("q", si.q),
    ):
        out.write(f"{name} = {_fmt(float(value), 12)}\n")
    return EXIT_OK


# --- verify suites ----------------------------------------------------

Check = tuple[str, float, float]  # (label, residual, tolerance)


def _suite_bessel() -> list[Check]:
    checks = [
        (f"arc-trace r={r}", arc_trace_identity_residual(r), 1e-10)
        for r in (0.01, 1.0, 3.0)
    ]
    for nu in (0.5, 1.0, 3.0):
        for x in (0.5, 2.0, 10.0):
            res = abs(
                bessel_i(nu - 0.5, x)
                - bessel_i(nu + 1.5, x)
                - (2.0 * nu + 1.0) / x * bessel_i(nu + 0.5, x)
            ) / bessel_i(nu + 0.5, x)
            checks.append((f"I recurrence nu={nu} x={x}", res, 1e-11))
    return checks


def _suite_mzf() -> list[Check]:
    checks = [
        (f"free-space n={n} z=0.4", mzf_numeric_residual("free_space", n, 0.4), 1e-8)
        for n in (1, 2, 3)
    ]
    checks += [
        (f"orthant(2) z={z}", mzf_numeric_residual("orthant", 2, z), 1e-6)
        for z in (0.2, 0.5, 0.8)
    ]
    return checks


def _suite_mhk() -> list[Check]:
    checks: list[Check] = []
    for expr in ("T(3)", "Sphere(2)", "HalfSphere(3)"):
        d = parse_domain(expr)
        for s in (0.3, 0.5, 1.0):
            checks.append(
                (f"trace {expr} s={s}", mhk_identity_residual(d, DIRICHLET, s), 1e-5)
            )
    for n in (2, 3, 4):
        norm = adaptive_integrate(
            lambda th: poisson_kernel(n, th, 0.5)
            * sphere_size(n - 1)
            * math.sin(th) ** (n - 2),
            0.0,
            math.pi,
            tol_rel=1e-12,
        )
        checks.append((f"poisson normalization n={n}", abs(norm - 1.0), 1e-8))
    return checks


def _suite_functional() -> list[Check]:
    checks: list[Check] = []
    zs = (0.3, 0.5, 0.7)
    for kind in ("T", "Sphere", "HalfSphere"):
        for n in range(2 if kind != "HalfSphere" else 2, 6):
            expr = f"{kind}({n})"
            d = parse_domain(expr)
            m = domain_m(d, DIRICHLET)
            gamma = scaling_inputs(catalog_geometry(d, DIRICHLET)).gamma
            for z in zs:
                checks.append(
                    (
                        f"functional {expr} z={z}",
                        functional_equation_residual(m, n, gamma, z),
                        1e-12,
                    )
                )
    for n in range(2, 6):
        d = parse_domain(f"T({n})")
        m_d = domain_m(d, DIRICHLET)
        m_n = domain_m(d, NEUMANN)
        for z in zs:
            checks.append(
                (
                    f"pairing T({n}) z={z}",
                    dirichlet_neumann_pairing_residual(m_d, m_n, n, z),
                    1e-12,
                )
            )
    return checks


def _suite_sizes() -> list[Check]:
    checks: list[Check] = []
    for n in range(2, 7):
        exact = sphere_size(n) / (n + 1)
        res = abs(regular_t_size(n, 0.5) - exact) / exact
        checks.append((f"|T_(1/2)^{n - 1}| vs |S^{n - 1}|/{n + 1}", res, 1e-8))
    for i in range(1, 10):
        rho = i / 10.0
        exact = 3.0 * math.acos(-rho) - math.pi
        checks.append(
            (f"|T_(rho)^2| rho={rho}", abs(regular_t_size(3, rho) - exact), 1e-9)
        )
    for n in (3, 4, 5):
        for rho in (0.2, 0.4):
            checks.append(
                (
                    f"recursion ODE n={n} rho={rho}",
                    regular_t_recursion_residual(n, rho),
                    1e-5,
                )
            )
    # residual of the small-rho expansion is O(rho^3): dropping rho by 10
    # must shrink it by ~1000; demand at least 100.
    r2 = regular_t_small_rho_residual(4, 1e-2)
    r3 = regular_t_small_rho_residual(4, 1e-3)
    ratio = r2 / r3 if r3 > 0.0 else math.inf
    checks.append(("small-rho order (ratio >= 100)", 100.0 / ratio, 1.0))
    return checks


def _suite_weyl() -> list[Check]:
    d = parse_domain("T(3)")
    series = expand_series(domain_m(d, DIRICHLET), 40.0)
    co = asymptotics_from_form(domain_m(d, DIRICHLET))
    degrees = series.flattened()
    checks: list[Check] = []
    mids = sorted(
        {0.5 * (a + b) for a, b in zip(degrees, degrees[1:]) if a != b}
    )
    for nu in mids:
        if not 12.0 <= nu <= 30.0:
            continue
        w = counting_function(series, nu)
        rel = abs(w - weyl_asymptotic(co, nu)) / w
        checks.append((f"Weyl W({nu:g})", rel, 0.01))
    return checks


_SUITES: dict[str, Callable[[], list[Check]]] = {
    "bessel": _suite_bessel,
    "mzf": _suite_mzf,
    "mhk": _suite_mhk,
    "functional": _suite_functional,
    "sizes": _suite_sizes,
    "weyl": _suite_weyl,
}


def _cmd_verify(args, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        try:
            checks = _SUITES[name]()
        except _NUMERIC_ERRORS as exc:
            out.write(f"[{name}] FAIL {exc}\n")
            failed += 1
            continue
        for label, residual, tol in checks:
            ok = residual <= tol
            status = "ok" if ok else "FAIL"
            out.write(
                f"[{name}] {status} {label}: residual {_fmt(residual, 6)}"
                f" (tol {_fmt(tol, 6)})\n"
            )
            failed += 0 if ok else 1
    out.write(f"{'PASS' if failed == 0 else 'FAIL'}: {failed} failing check(s)\n")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# --- paper reproduction ----------------------------------------------


def _paper_rows() -> list[dict]:
    rows: list[dict] = []

    def add(case: str, computed: float, target: float, tol: float) -> None:
        rows.append(
            {
                "case": case,
                "computed": computed,
                "target": target,
                "tol": tol,
                "status": "pass" if abs(computed - target) <= tol else "FAIL",
            }
        )

    tetra = parse_domain("RegularT(3, rho=0.5)")
    octant = parse_domain("T(3)")
    lin = estimate_pair(tetra, octant, DIRICHLET, "linear", 1).rows[0]
    add("tetrahedral triangle linear nu1", lin[2], 1.826, 1e-3)
    add("tetrahedral triangle linear lambda1", lin[3], 5.162, 2e-3)
    quad = estimate_pair(tetra, octant, DIRICHLET, "quadratic", 1).rows[0]
    add("tetrahedral triangle quadratic lambda1", quad[3], 5.1606, 5e-4)

    cap = parse_domain("Cap(theta=pi/3)")
    half = parse_domain("HalfSphere(3)")
    cap_lin = estimate_pair(cap, half, DIRICHLET, "linear", 1).rows[0]
    add("cap pi/3 linear lambda1", cap_lin[3], 4.949, 1e-3)

    theta = math.acos(-1.0 / math.sqrt(3.0))
    phi = 2.0 * math.pi / 3.0
    sector = parse_domain(f"Sector(theta={theta!r}, phi={phi!r})")
    sector_ref = parse_domain(f"Sector(theta=pi/2, phi={phi!r})")
    s_lin = estimate_pair(sector, sector_ref, DIRICHLET, "linear", 1).rows[0]
    add("sector linear lambda1", s_lin[3], 5.1046, 1e-3)
    s_quad = estimate_pair(sector, sector_ref, DIRICHLET, "quadratic", 1).rows[0]
    add("sector quadratic lambda1", s_quad[3], 5.0187, 1e-3)

    hs_in = scaling_inputs(catalog_geometry(half, DIRICHLET))
    cap_flat = flat_limit_linear(math.pi, 2.0 * math.pi, hs_in, [1.0, 2.0, 3.0])
    for k, (val, tgt) in enumerate(zip(cap_flat, (2.4142, 3.8284, 5.2426)), start=1):
        add(f"cap flat limit nu{k}*delta", val, tgt, 5e-4)

    t3_in = scaling_inputs(catalog_geometry(octant, DIRICHLET))
    tri_area, tri_len = math.sqrt(3.0) / 4.0, 3.0
    tri_lin = flat_limit_linear(tri_area, tri_len, t3_in, [3.0, 5.0])
    for k, (val, tgt) in enumerate(zip(tri_lin, (7.273, 11.083)), start=1):
        add(f"triangle flat limit sqrt(lambda{k})*delta", val, tgt, 1e-3)
    tri_quad = flat_limit_quadratic(
        tri_area, tri_len, [math.pi / 3.0] * 3, t3_in, [3.0]
    )
    add("triangle flat limit quadratic sqrt(lambda1)*delta", tri_quad[0], 7.2613, 5e-4)
    return rows


def _cmd_paper(args, out) -> int:
    rows = _paper_rows()
    keys = ("case", "computed", "target", "tol", "status")
    if args.format == "csv":
        out.write(",".join(keys) + "\n")
        for r in rows:
            out.write(
                ",".join(
                    r[key] if isinstance(r[key], str) else _fmt(r[key], 12)
                    for key in keys
                )
                + "\n"
            )
    elif args.format == "json":
        out.write(json.dumps(rows) + "\n")
    else:
        width = max(len(r["case"]) for r in rows) + 2
        for r in rows:
            out.write(
                f"{r['case']:<{width}}{_fmt(r['computed'], 6):>12}"
                f"{_fmt(r['target'], 6):>12}{r['status']:>8}\n"
            )
    bad = sum(r["status"] != "pass" for r in rows)
    if args.format == "table":
        out.write(f"{'PASS' if bad == 0 else 'FAIL'}: {bad} failing row(s)\n")
    return EXIT_OK if bad == 0 else EXIT_NUMERIC


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conespec",
        description="Exact spectra and eigenvalue estimates on join-product "
        "spherical domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True, bc=True):
        if bc:
            p.add_argument(
                "--bc", choices=("dirichlet", "neumann"), default="dirichlet"
            )
        if fmt:
            p.add_argument(
                "--format", choices=("table", "csv", "json"), default="table"
            )

    p = sub.add_parser("spectrum", help="exact spectrum of a domain")
    p.add_argument("expr")
    p.add_argument("--max-nu", type=_positive_finite, default=30.0)
    add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("estimate", help="scaled eigenvalue estimate")
    p.add_argument("--target", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--method", choices=("linear", "quadratic"), default="linear")
    p.add_argument("--modes", type=_positive_int, default=5)
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("size", help="domain size (area on the sphere)")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("coeffs", help="geometric and asymptotic coefficients")
    p.add_argument("expr")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite",
        choices=("all", "bessel", "mzf", "mhk", "functional", "sizes", "weyl"),
        default="all",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("paper", help="reproduce the published comparisons")
    add_common(p, bc=False)
    p.set_defaults(func=_cmd_paper)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return args.func(args, out)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except DimensionError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except _UNSUPPORTED_ERRORS as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
