"""Areas, boundary sizes, corner data and asymptotic coefficients.

Sizes are measured on the unit sphere S^{n-1} the domain lives on.
Each join factor carries its size, boundary, K-integral and corner data
as fractions of unit-sphere sizes; one product rule folds them over the
factors of a join (see :func:`_join_cone`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (
    AtomS0,
    AtomT0,
    BoundaryCondition,
    DomainExpr,
    Named,
    expand_named,
    factors,
)
from .errors import NotPositiveDefinite, UnsupportedDomain
from .special import adaptive_integrate, erfc_fn, gamma_fn, gauss_legendre


def sphere_size(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2); |S^0| = 2."""
    if n < 1:
        raise ValueError(f"sphere_size requires n >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


@dataclass(frozen=True)
class DomainGeometry:
    n: int
    area: float
    boundary: float
    bulk_R_integral: float
    boundary_K_integral: float
    corners: tuple[tuple[float, float], ...]  # (angle, (n-3)-measure of locus)
    bc: BoundaryCondition


@dataclass(frozen=True)
class HeatCoeffs:
    a0: float
    a1: float
    a2: float


@dataclass(frozen=True)
class ScalingInputs:
    gamma: float
    p: float
    q: float
    c0: float
    c1: float
    n: int
    area: float


# --- regular T_(rho) sizes (adaptive panels over the erfc integrand) ----


def _regular_t_fraction_of_t(n: int, rho: float) -> float:
    """f_n(rho) = |T_(rho)^{n-1}| / |T^{n-1}|: the 1-D erfc integral
    (1/sqrt(pi)) int e^{-u^2} erfc(cu)^n du, c = sqrt(rho / (1 - rho)),
    by adaptive Gauss-Legendre panels anchored at the transition of
    width 1/c around u = 0."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if n <= 1 or rho == 0.0:
        return 1.0
    c = math.sqrt(rho / (1.0 - rho))
    f = lambda u: math.exp(-u * u) * erfc_fn(c * u) ** n
    # e^{-u^2} leaves nothing past |u| = 9, and erfc underflows to 0 past
    # 26.7, so nothing lives beyond 27/c either
    width = min(1.0 / c, 9.0)
    pieces = (-9.0, -width, 0.0, width, min(9.0, 27.0 * width))
    # the integral is at least sqrt(pi) (f_n >= 1 for rho >= 0), so an
    # absolute tolerance on each piece bounds the relative error
    return sum(
        adaptive_integrate(f, a, b, tol_abs=1e-12, tol_rel=0.0)
        for a, b in zip(pieces, pieces[1:])
        if a < b
    ) / math.sqrt(math.pi)


def regular_t_size(n: int, rho: float) -> float:
    """|T_(rho)^{n-1}|, with |T^{n-1}| = 2^{-n} |S^{n-1}|."""
    if n < 1:
        raise ValueError(f"regular_t_size requires n >= 1, got {n}")
    return 2.0 ** (-n) * sphere_size(n) * _regular_t_fraction_of_t(n, rho)


def regular_t_boundary_size(n: int, rho: float) -> float:
    """|dT_(rho)^{n-1}|: n congruent segments, each a T_(rho') of one
    dimension less with rho' = rho / (1 + rho)."""
    if n < 2:
        raise ValueError(f"regular_t_boundary_size requires n >= 2, got {n}")
    return n * regular_t_size(n - 1, rho / (1.0 + rho))


def regular_t_recursion_residual(n: int, rho: float, h: float = 1e-4) -> float:
    """Residual of df_n/drho = n(n-1)/(pi sqrt(1-rho^2)) f_{n-2}(rho/(1+2rho)).

    Central finite difference with step h on the quadrature values.
    """
    if n < 3:
        raise ValueError("recursion check needs n >= 3")
    deriv = (
        _regular_t_fraction_of_t(n, rho + h) - _regular_t_fraction_of_t(n, rho - h)
    ) / (2.0 * h)
    rhs = (
        n
        * (n - 1)
        / (math.pi * math.sqrt(1.0 - rho * rho))
        * _regular_t_fraction_of_t(n - 2, rho / (1.0 + 2.0 * rho))
    )
    return abs(deriv - rhs)


def regular_t_small_rho_residual(n: int, rho: float) -> float:
    """f_n(rho) minus its quadratic small-rho expansion; O(rho^3)."""
    expansion = (
        1.0
        + n * (n - 1) * rho / math.pi
        + n * (n - 1) * (n - 2) * (n - 3) * rho * rho / (2.0 * math.pi**2)
    )
    return _regular_t_fraction_of_t(n, rho) - expansion


# --- general rho-matrix orthant fractions -----------------------------


# Gauss-Legendre nodes per Plackett integral, and the largest dimension
# served: n = 8 nests three levels of them, 38 s a call at 40 nodes on
# a 2-vCPU VM
_PLACKETT_NODES = 40
_PLACKETT_MAX_N = 7


def general_t_size_fraction(rho_matrix: Sequence[Sequence[float]]) -> float:
    """Size fraction |T_rho^{n-1}| / |S^{n-1}|: the orthant probability
    P_n(rho) of a centered Gaussian with correlation matrix rho.

    Closed forms for n <= 3. Beyond, Plackett's identity integrated along
    R(t) = (1-t) I + t rho, with rho_ij t = sin(theta):
    P_n = 2^{-n} + (1/2pi) sum_{i<j} int_0^{arcsin rho_ij} P_{n-2}(C_ij) dtheta,
    C_ij the correlation of the other coordinates given X_i = X_j = 0,
    down to the closed forms. Each integral takes a fixed 40-node
    Gauss-Legendre rule, graded toward the upper limit. Deterministic.
    Relative error, against the same sums at 100-1000 nodes: <= 1e-13
    when the smallest eigenvalue of rho is >= 5e-3, <= 3e-10 down to
    5e-4, <= 6e-8 down to 5e-5. n >= 8 raises UnsupportedDomain.
    """
    rho = np.asarray(rho_matrix, dtype=float)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho_matrix must be square")
    n = rho.shape[0]
    if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
        raise ValueError("rho_matrix must have unit diagonal")
    if not np.allclose(rho, rho.T, atol=1e-12):
        raise ValueError("rho_matrix must be symmetric")
    try:
        np.linalg.cholesky(rho)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if n > _PLACKETT_MAX_N:
        raise UnsupportedDomain(
            f"orthant fraction supports n <= {_PLACKETT_MAX_N}, got n = {n}"
        )
    return float(_orthant(rho))


def _orthant(r: np.ndarray) -> np.ndarray:
    """Orthant probabilities of a stack r[..., n, n] of correlation matrices."""
    n = r.shape[-1]
    if n <= 1:
        return np.full(r.shape[:-2], 0.5**n)
    if n == 2:
        return np.arccos(-r[..., 0, 1]) / (2.0 * math.pi)
    if n == 3:
        total = sum(np.arccos(-r[..., i, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        return (total - math.pi) / (4.0 * math.pi)
    rule = gauss_legendre(_PLACKETT_NODES)
    x, w = np.array(rule.nodes), np.array(rule.weights)
    eye = np.eye(n - 2)
    total = np.full(r.shape[:-2], 0.5**n)
    for i, j in itertools.combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        rho = r[..., i, j, None]
        # theta = arcsin(rho_ij) (1 - (1-x)^2/4) grades the nodes toward
        # t = 1, next to which an ill-conditioned rho puts the nearest
        # singularity of the integrand (where R(t) turns singular)
        arc = np.arcsin(rho)
        sin_theta = np.sin(arc * (1.0 - 0.25 * (1.0 - x) ** 2))  # = rho_ij t
        dtheta = 0.5 * arc * (1.0 - x)  # d theta / dx
        t = (sin_theta / np.where(rho == 0.0, 1.0, rho))[..., None, None]
        s = sin_theta[..., None, None]
        a = r[..., None, rest, i]
        b = r[..., None, rest, j]
        ab = a[..., :, None] * b[..., None, :]
        # covariance of the rest given X_i = X_j = 0, along R(t)
        cov = (1.0 - t) * eye + t * r[..., None, rest, :][..., rest] - t * t * (
            a[..., :, None] * a[..., None, :]
            + b[..., :, None] * b[..., None, :]
            - s * (ab + np.swapaxes(ab, -1, -2))
        ) / (1.0 - s * s)
        d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
        inner = _orthant(cov / (d[..., :, None] * d[..., None, :]))
        total += np.sum(dtheta * w * inner, axis=-1) / (2.0 * math.pi)
    return total


# --- cone data of join factors, folded by the product rule -----------


def _regular_t_fraction(m: int, sigma: float) -> float:
    """t(m, sigma) = |T_(sigma)^{m-1}| / |S^{m-1}|, in closed form for m <= 3."""
    if m == 1:
        return 0.5
    if m == 2:
        return math.acos(-sigma) / (2.0 * math.pi)
    if m == 3:
        return (3.0 * math.acos(-sigma) - math.pi) / (4.0 * math.pi)
    return 2.0**-m * _regular_t_fraction_of_t(m, sigma)


def _cone(d: DomainExpr) -> tuple[int, float, float, float, tuple[tuple[float, float], ...]]:
    """Cone data (n, f, g, k, corners) of one join factor after
    expand_named: S0, T0, Arc, Cap, Sector or RegularT(n >= 3).

    f = |Omega| / |S^{n-1}|, g = |dOmega| / |S^{n-2}|, k = (integral of
    the boundary's geodesic curvature) / |S^{n-3}|, and each corner locus
    is (dihedral angle, |locus| / |S^{n-3}|). An arc's corner is the apex
    of its cone.
    """
    if isinstance(d, AtomS0):
        return 1, 1.0, 0.0, 0.0, ()
    if isinstance(d, AtomT0):
        return 1, 0.5, 1.0, 0.0, ()
    if d.kind == "Arc":
        return 2, d.angle / (2.0 * math.pi), 1.0, 0.0, ((d.angle, 1.0),)
    if d.kind == "Cap":
        # (1 - cos theta) / 2, without its cancellation at small theta
        theta = d.angle
        return 3, math.sin(0.5 * theta) ** 2, math.sin(theta), math.pi * math.cos(theta), ()
    if d.kind == "Sector":
        theta, phi = d.angle, d.angle2
        f = phi * math.sin(0.5 * theta) ** 2 / (2.0 * math.pi)
        g = (phi * math.sin(theta) + 2.0 * theta) / (2.0 * math.pi)
        # only the cap-arc edge is non-geodesic; it meets both meridians
        # at right angles
        return 3, f, g, 0.5 * phi * math.cos(theta), ((phi, 0.5), (0.5 * math.pi, 1.0))
    # RegularT: facets are T_(rho/(1+rho)) of one dimension less, and the
    # C(n,2) codim-2 faces T_(rho/(1+2rho)) of two dimensions less meet
    # at the dihedral angle arccos(-rho)
    n, rho = d.n, d.rho
    g = n * _regular_t_fraction(n - 1, rho / (1.0 + rho))
    face = math.comb(n, 2) * _regular_t_fraction(n - 2, rho / (1.0 + 2.0 * rho))
    return n, _regular_t_fraction(n, rho), g, 0.0, ((math.acos(-rho), face),)


def _join_cone(d: DomainExpr) -> tuple[int, float, float, float, dict[float, float]]:
    """Cone data of d, folded over its join factors.

    The cone of a join is the product C1 x C2, whose boundary is
    dC1 x C2 and C1 x dC2, meeting at right angles along dC1 x dC2. So
    f = f1 f2, g = g1 f2 + f1 g2, k = k1 f2 + f1 k2 and
    corners = c1 f2 + f1 c2 + (pi/2, g1 g2); corners are merged by angle.
    """
    n, f, g, k = 0, 1.0, 0.0, 0.0
    corners: dict[float, float] = {}
    for part in factors(expand_named(d)):
        n2, f2, g2, k2, c2 = _cone(part)
        corners = {angle: m * f2 for angle, m in corners.items()}
        for angle, m in c2:
            corners[angle] = corners.get(angle, 0.0) + f * m
        if g * g2:
            corners[0.5 * math.pi] = corners.get(0.5 * math.pi, 0.0) + g * g2
        n, f, g, k = n + n2, f * f2, g * f2 + f * g2, k * f2 + f * k2
    return n, f, g, k, corners


def size_fraction(d: DomainExpr) -> float:
    return _join_cone(d)[1]


def catalog_geometry(d: DomainExpr, bc: BoundaryCondition) -> DomainGeometry:
    """Geometric data of a catalog domain or join of catalog domains."""
    n, f, g, k, corners = _join_cone(d)
    area = f * sphere_size(n)
    # K-integral and corner loci live on S^{n-3}
    edge = sphere_size(n - 2) if n >= 3 else 0.0
    return DomainGeometry(
        n=n,
        area=area,
        boundary=g * (sphere_size(n - 1) if n >= 2 else 1.0),
        bulk_R_integral=(n - 1) * (n - 2) * area,
        boundary_K_integral=k * edge,
        corners=tuple((angle, m * edge) for angle, m in corners.items()) if edge else (),
        bc=bc,
    )


def cap_geometry(theta: float, n: int, bc: BoundaryCondition) -> DomainGeometry:
    """Spherical cap of angular radius theta on S^{n-1}, any n >= 3."""
    if n == 3:
        return catalog_geometry(Named("Cap", angle=theta), bc)
    boundary_sphere = sphere_size(n - 1)
    area = boundary_sphere * adaptive_integrate(
        lambda t: math.sin(t) ** (n - 2), 0.0, theta, tol_rel=1e-12
    )
    boundary = boundary_sphere * math.sin(theta) ** (n - 2)
    k = (n - 2) * math.cos(theta) / math.sin(theta)
    return DomainGeometry(
        n=n,
        area=area,
        boundary=boundary,
        bulk_R_integral=(n - 1) * (n - 2) * area,
        boundary_K_integral=k * boundary,
        corners=(),
        bc=bc,
    )


def heat_coeffs(g: DomainGeometry) -> HeatCoeffs:
    """Small-time heat-trace coefficients a0, a1, a2 with corner terms."""
    sign = -1.0 if g.bc.is_dirichlet else 1.0
    a1 = sign * 0.5 * math.sqrt(math.pi) * g.boundary
    corner_sum = sum(
        measure * (math.pi**2 / angle - angle) / 6.0 for angle, measure in g.corners
    )
    a2 = g.bulk_R_integral / 6.0 + g.boundary_K_integral / 3.0 + corner_sum
    return HeatCoeffs(a0=g.area, a1=a1, a2=a2)


def weyl_coeffs_geometric(g: DomainGeometry) -> tuple[float, float, float]:
    """Weyl coefficients b0, b1, b2 from area/boundary/a2 data alone.

    b0 = c0, b1/b0 = l - gamma/2,
    2 b2/b0 = (b1/b0)^2 - l^2/(n-2) - gamma^2/4 + a2/((n-2)|Omega|);
    the b2 formula needs n >= 3 (it divides by n - 2).
    """
    si = scaling_inputs(g)
    ell = 0.5 * (g.n - 2)
    b0 = si.c0
    r1 = ell - 0.5 * si.gamma
    b1 = b0 * r1
    if g.n <= 2:
        b2 = math.nan
    else:
        a2 = heat_coeffs(g).a2
        b2 = 0.5 * b0 * (
            r1 * r1
            - ell * ell / (g.n - 2)
            - 0.25 * si.gamma**2
            + a2 / ((g.n - 2) * g.area)
        )
    return b0, b1, b2


def scaling_inputs(g: DomainGeometry) -> ScalingInputs:
    """gamma, c0, c1 and the quadratic-combination parameters p, q."""
    if g.n < 2:
        raise UnsupportedDomain("scaling inputs need ambient dimension >= 2")
    if not g.area > 0.0:
        raise OverflowError(f"boundary / area overflows: the area is {g.area}")
    sign = 1.0 if g.bc.is_dirichlet else -1.0
    gamma = sign * 0.5 * sphere_size(g.n) / sphere_size(g.n - 1) * g.boundary / g.area
    c0 = 2.0 * g.area / sphere_size(g.n)
    c1 = -0.5 * (1.0 + gamma) * c0
    ell = 0.5 * (g.n - 2)
    p = ell - 0.5 * gamma
    a2 = heat_coeffs(g).a2
    q = -ell * ell - 0.25 * (g.n - 2) * gamma * gamma + a2 / g.area
    if not (math.isfinite(gamma) and math.isfinite(q)):
        raise OverflowError(f"scaling inputs out of range: gamma {gamma}, q {q}")
    return ScalingInputs(gamma=gamma, p=p, q=q, c0=c0, c1=c1, n=g.n, area=g.area)
