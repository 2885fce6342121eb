"""Numeric checks tying the spectral function to the cone heat kernel.

These routines exist to be *verified*, not consumed: each returns a
residual that should vanish up to quadrature/truncation error if the
closed forms elsewhere in the package are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .domain import BoundaryCondition, DomainExpr, ambient_dim
from .errors import DomainError, ToleranceNotMet
from .mfun import domain_m, expand_series
from .special import adaptive_integrate, bessel_i
from .geometry import sphere_size


@dataclass(frozen=True)
class TruncationControl:
    max_terms: int = 64
    target_tol: float = 1e-10


@dataclass(frozen=True)
class ExplicitKernel:
    """Closed-form heat kernels on the cones solvable by images."""

    kind: str  # free_line | half_line_dirichlet | half_line_neumann | free_space | orthant
    n: int = 1


def kernel_eval(
    k: ExplicitKernel, x: Sequence[float], xp: Sequence[float], tau: float
) -> float:
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    x = list(x)
    xp = list(xp)
    if k.kind == "free_line":
        return _free_line(x[0], xp[0], tau)
    if k.kind == "half_line_dirichlet":
        _check_halfline(x[0], xp[0])
        return _free_line(x[0], xp[0], tau) - _free_line(x[0], -xp[0], tau)
    if k.kind == "half_line_neumann":
        _check_halfline(x[0], xp[0])
        return _free_line(x[0], xp[0], tau) + _free_line(x[0], -xp[0], tau)
    if k.kind == "free_space":
        r2 = sum((a - b) ** 2 for a, b in zip(x, xp))
        return (2.0 * math.pi * tau) ** (-0.5 * k.n) * math.exp(-r2 / (2.0 * tau))
    if k.kind == "orthant":
        # product of half-line Dirichlet kernels; the image form is
        # overflow-free where the sinh product is not
        val = 1.0
        for a, b in zip(x, xp):
            _check_halfline(a, b)
            val *= _free_line(a, b, tau) - _free_line(a, -b, tau)
        return val
    raise DomainError(f"unknown kernel kind {k.kind!r}")


def _free_line(x: float, xp: float, tau: float) -> float:
    return math.exp(-((x - xp) ** 2) / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)


def _check_halfline(x: float, xp: float) -> None:
    if x < 0.0 or xp < 0.0:
        raise DomainError("coordinate outside the cone")


def arc_trace_identity_residual(
    r: float, tc: TruncationControl = TruncationControl()
) -> float:
    """Quadrant-arc identity: the angular integral of the n = 2 series
    solution against the closed form obtained by Laplace inversion.

    e^{-r^2} sum_{k>=1} I_{2k}(r^2) vs
    1/4 - I_0(r^2) e^{-r^2}/2 + e^{-2 r^2}/4.
    """
    if r <= 0.0 or r > 10.0:
        raise DomainError("r must lie in (0, 10]")
    x = r * r
    damp = math.exp(-x)
    series = damp * sum(bessel_i(2 * k, x) for k in range(1, tc.max_terms + 1))
    closed = 0.25 - 0.5 * bessel_i(0.0, x) * damp + 0.25 * math.exp(-2.0 * x)
    residual = abs(series - closed)
    if residual > tc.target_tol:
        raise ToleranceNotMet(
            f"arc trace residual {residual:g} > {tc.target_tol:g} at K = {tc.max_terms}"
        )
    return residual


def mzf_numeric_residual(kind: str, n: int, z: float, tol: float = 1e-8) -> float:
    """Deviation of the spectral-function integral
    (1-z^2) z^{-n/2} int d^n x e^{-(1-z)^2 r^2 / (2z)} f(x, x, 1)
    from the closed form, by adaptive quadrature on the diagonal kernel.
    """
    if not 0.1 <= z <= 0.9:
        raise DomainError("z must lie in [0.1, 0.9]")
    c = (1.0 - z) ** 2 / (2.0 * z)
    if kind == "free_space":
        # integrand is radial: (2 pi)^{-n/2} e^{-c r^2} over R^n
        integral = sphere_size(n) * adaptive_integrate(
            lambda r: r ** (n - 1) * math.exp(-c * r * r) * (2.0 * math.pi) ** (-0.5 * n),
            0.0,
            40.0 / math.sqrt(2.0 * c),
            tol_rel=1e-12,
        )
        closed = (1.0 - z * z) * (1.0 - z) ** -n
    elif kind == "orthant" and n == 2:
        # the orthant kernel is a product of half-line kernels and the
        # weight is separable, so the 2-D integral is a square
        kern = ExplicitKernel("half_line_dirichlet")
        box = math.sqrt(42.0 / c)  # e^{-c box^2} ~ 6e-19
        integral = adaptive_integrate(
            lambda x: math.exp(-c * x * x) * kernel_eval(kern, (x,), (x,), 1.0),
            0.0,
            box,
            tol_rel=1e-12,
        ) ** n
        closed = z**n * (1.0 - z * z) ** (1 - n)
    else:
        raise DomainError(f"unsupported spectral-integral case {kind!r}, n = {n}")
    value = (1.0 - z * z) * z ** (-0.5 * n) * integral
    residual = abs(value - closed)
    if residual > tol:
        raise ToleranceNotMet(f"spectral-integral residual {residual:g} > {tol:g}")
    return residual


def mhk_identity_residual(
    d: DomainExpr,
    bc: BoundaryCondition,
    s: float,
    tol: float = 1e-6,
) -> float:
    """Residual of the trace identity
    M(e^{-s}) = (e^{ls}/sqrt(pi)) int_0^inf dt/sqrt(t)
                e^{-t - l^2 s^2/(4t)} Tr e^{(s^2/4t) Lap},
    with l = (n-2)/2, the trace summed over the exact spectrum.
    """
    if not 0.05 <= s <= 2.0:
        raise DomainError("s must lie in [0.05, 2]")
    n = ambient_dim(d)
    ell = 0.5 * (n - 2)
    form = domain_m(d, bc)
    # u = sqrt(t); upper limit where e^{-u^2} is negligible
    u_max = math.sqrt(-math.log(1e-18))
    t_max = u_max * u_max
    # truncate the trace where the slowest (largest-t) Gaussian kills it
    eps_min = s * s / (4.0 * t_max)
    nu_max = math.sqrt(-math.log(1e-16) / eps_min) + 2.0 * abs(ell) + 5.0
    series = expand_series(form, nu_max)

    def trace(t: float) -> float:
        return sum(m * math.exp(-t * nu * (nu + 2.0 * ell)) for nu, m in series.terms)

    def integrand(u: float) -> float:
        t = u * u
        if t == 0.0:
            return 0.0
        return 2.0 * math.exp(-t - ell * ell * s * s / (4.0 * t)) * trace(
            s * s / (4.0 * t)
        )

    integral = adaptive_integrate(integrand, 0.0, u_max, tol_rel=1e-10)
    rhs = math.exp(ell * s) / math.sqrt(math.pi) * integral
    residual = abs(rhs - form.eval(math.exp(-s)))
    if residual > tol:
        raise ToleranceNotMet(f"trace-identity residual {residual:g} > {tol:g}")
    return residual


def poisson_kernel(n: int, theta: float, z: float) -> float:
    """Full-sphere zonal kernel (Poisson kernel of the unit n-ball)."""
    if n < 2 or not 0.0 <= z < 1.0 or not 0.0 <= theta <= math.pi:
        raise DomainError("need n >= 2, 0 <= z < 1, theta in [0, pi]")
    denom = (1.0 - 2.0 * z * math.cos(theta) + z * z) ** (0.5 * n)
    return (1.0 - z * z) / denom / sphere_size(n)
