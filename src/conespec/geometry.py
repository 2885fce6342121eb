"""Areas, boundary sizes, corner data and asymptotic coefficients.

Sizes are measured on the unit sphere S^{n-1} the domain lives on.
Size fractions (|Omega|/|S^{n-1}|) are multiplicative under the join
product; boundary fractions (|dOmega|/|S^{n-2}|) obey the product rule
g_12 = g_1 f_2 + f_1 g_2 that follows from splitting the boundary of a
join into its two segment families.
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
    ambient_dim,
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


# --- per-domain fractions, boundaries, corners ------------------------


def _fractions(d: DomainExpr) -> tuple[int, float, float]:
    """(cone dim, size fraction, boundary fraction) of a catalog domain."""
    if isinstance(d, AtomS0):
        return 1, 1.0, 0.0
    if isinstance(d, AtomT0):
        return 1, 0.5, 1.0
    if isinstance(d, Named):
        if d.kind == "Sphere":
            return d.n, 1.0, 0.0
        if d.kind == "T":
            return d.n, 2.0**-d.n, d.n * 2.0 ** (1 - d.n)
        if d.kind == "HalfSphere":
            return d.n, 0.5, 1.0
        if d.kind == "Arc":
            return 2, d.angle / (2.0 * math.pi), 1.0
        if d.kind == "RegularT":
            n = d.n
            f = regular_t_size(n, d.rho) / sphere_size(n)
            g = regular_t_boundary_size(n, d.rho) / sphere_size(n - 1)
            return n, f, g
        if d.kind == "Cap":
            theta = d.angle
            return 3, 0.5 * (1.0 - math.cos(theta)), math.sin(theta)
        if d.kind == "Sector":
            theta, phi = d.angle, d.angle2
            f = phi * (1.0 - math.cos(theta)) / (4.0 * math.pi)
            g = (phi * math.sin(theta) + 2.0 * theta) / (2.0 * math.pi)
            return 3, f, g
    n1, f1, g1 = _fractions(d.left)
    n2, f2, g2 = _fractions(d.right)
    return n1 + n2, f1 * f2, g1 * f2 + f1 * g2


def size_fraction(d: DomainExpr) -> float:
    return _fractions(d)[1]


def _atom_join_corners(parts: list[DomainExpr], n: int) -> list[tuple[float, float]]:
    """Corner loci of a join of S0/T0/Arc atoms.

    Boundary segments come from each T0 (one segment) and each arc (two
    edge segments, behaving as half-fraction rays). Distinct segments
    meet at right angles except the two edges of one arc, which meet at
    the arc's opening angle. Every locus has cone dimension n-2; its
    measure is its size fraction times |S^{n-3}|.
    """
    if n < 3:
        return []
    total_f = 1.0
    for p in parts:
        total_f *= _fractions(p)[1]
    t0_fracs = [0.5 for p in parts if isinstance(p, AtomT0)]
    arcs = [p for p in parts if isinstance(p, Named) and p.kind == "Arc"]
    sphere_m = sphere_size(n - 2)
    corners: list[tuple[float, float]] = []

    def locus_measure(drop: float, point_fraction: float) -> float:
        # drop: product of the fractions of the removed factors
        return total_f / drop * point_fraction * sphere_m

    q = len(t0_fracs)
    for i in range(q):
        for _ in range(i + 1, q):
            corners.append((0.5 * math.pi, locus_measure(0.25, 1.0)))
    for arc in arcs:
        f_arc = arc.angle / (2.0 * math.pi)
        # the arc's own two edges meet at its opening angle
        corners.append((arc.angle, locus_measure(f_arc, 1.0)))
        # each edge meets every T0 segment at a right angle
        for _ in range(2 * q):
            corners.append((0.5 * math.pi, locus_measure(f_arc * 0.5, 0.5)))
    for i, arc in enumerate(arcs):
        for other in arcs[i + 1 :]:
            f_pair = (arc.angle / (2.0 * math.pi)) * (other.angle / (2.0 * math.pi))
            for _ in range(4):
                corners.append((0.5 * math.pi, locus_measure(f_pair * 0.25, 0.25)))
    return corners


def _corners(d: DomainExpr, n: int) -> tuple[tuple[float, float], ...]:
    expanded = expand_named(d)
    parts = factors(expanded)
    if all(
        isinstance(p, (AtomS0, AtomT0)) or (isinstance(p, Named) and p.kind == "Arc")
        for p in parts
    ):
        return tuple(_atom_join_corners(parts, n))
    if isinstance(expanded, Named):
        if expanded.kind == "Cap":
            return ()
        if expanded.kind == "Sector":
            return (
                (expanded.angle2, 1.0),
                (0.5 * math.pi, 1.0),
                (0.5 * math.pi, 1.0),
            )
        if expanded.kind == "RegularT" and expanded.n == 3:
            return ((math.acos(-expanded.rho), 1.0),) * 3
    # corner loci with varying or unknown dihedral data (e.g. RegularT on
    # S^3 and above, mixed joins of irreducible factors) are not carried
    return ()


def catalog_geometry(d: DomainExpr, bc: BoundaryCondition) -> DomainGeometry:
    """Geometric data of a catalog domain or join of catalog domains."""
    n, f, g = _fractions(d)
    area = f * sphere_size(n)
    boundary = g * (sphere_size(n - 1) if n >= 2 else 1.0)
    bulk = (n - 1) * (n - 2) * area
    expanded = expand_named(d)
    if isinstance(expanded, Named) and expanded.kind == "Cap":
        k_integral = math.cos(expanded.angle) / math.sin(expanded.angle) * boundary
    elif isinstance(expanded, Named) and expanded.kind == "Sector":
        # only the cap-arc edge is non-geodesic
        k_integral = expanded.angle2 * math.cos(expanded.angle)
    else:
        # all other catalog boundaries are pieces of great spheres
        k_integral = 0.0
    return DomainGeometry(
        n=n,
        area=area,
        boundary=boundary,
        bulk_R_integral=bulk,
        boundary_K_integral=k_integral,
        corners=_corners(d, n),
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
    sign = 1.0 if g.bc.is_dirichlet else -1.0
    gamma = sign * 0.5 * sphere_size(g.n) / sphere_size(g.n - 1) * g.boundary / g.area
    c0 = 2.0 * g.area / sphere_size(g.n)
    c1 = -0.5 * (1.0 + gamma) * c0
    ell = 0.5 * (g.n - 2)
    p = ell - 0.5 * gamma
    a2 = heat_coeffs(g).a2
    q = -ell * ell - 0.25 * (g.n - 2) * gamma * gamma + a2 / g.area
    return ScalingInputs(gamma=gamma, p=p, q=q, c0=c0, c1=c1, n=g.n, area=g.area)
