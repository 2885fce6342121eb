"""Reference values computed without the package under test.

Everything here is written from the mathematics, not from the package's
code paths: exact spectra by integer prefix sums over a rational lattice,
Laurent data by exact power-series arithmetic in Fractions, domain sizes
by a composite Gauss-Legendre rule over scipy's erfc, and the scaling
estimates from their defining formulas. The package is never imported
here.

A join of S0, T0 and arcs is a list of atoms; the irreducible shapes
(the regular simplices T_(rho), caps and sectors) have their own
geometry functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import erfc

PI = math.pi
# atoms: ("S0",), ("T0",) or ("Arc", p, q) for the arc of angle p*pi/q
Atom = tuple


def sphere_size(n: int) -> float:
    """|S^{n-1}|; |S^0| = 2."""
    return 2.0 * PI ** (n / 2.0) / math.gamma(n / 2.0)


# --- exact spectra ------------------------------------------------------


def _lattice(atoms: list[Atom]) -> int:
    den = 1
    for a in atoms:
        if a[0] == "Arc":
            den = math.lcm(den, a[1])
    return den


def _divide(a: np.ndarray, step: int) -> np.ndarray:
    """Multiply the series by 1/(1 - z^step): prefix sums per residue class."""
    n = len(a)
    rows = -(-n // step)
    padded = np.zeros(rows * step, dtype=a.dtype)
    padded[:n] = a
    return np.cumsum(padded.reshape(rows, step), axis=0).reshape(-1)[:n]


def _shift(a: np.ndarray, step: int) -> np.ndarray:
    out = np.zeros_like(a)
    if step < len(a):
        out[step:] = a[: len(a) - step]
    return out


def _expand(atoms: list[Atom], dirichlet: bool, size: int, den: int, dtype) -> np.ndarray:
    a = np.zeros(size, dtype=dtype)
    a[0] = 1
    for atom in atoms:
        if atom[0] == "S0":  # degrees 0 and 1: constants and x
            a = a + _shift(a, den)
        elif atom[0] == "T0":  # Dirichlet keeps x only, Neumann the constant
            if dirichlet:
                a = _shift(a, den)
        else:  # sin / cos (k pi s / phi) on an arc of angle phi
            step = atom[2] * (den // atom[1])
            if dirichlet:
                a = _shift(a, step)
            a = _divide(a, step)
    for _ in range(len(atoms) - 1):  # each join divides by (1 - z^2)
        a = _divide(a, 2 * den)
    return a


def exact_spectrum(atoms: list[Atom], dirichlet: bool, cutoff: float) -> list[tuple[float, int]]:
    """(degree, multiplicity) of every degree <= cutoff. Multiplicities
    are exact integers; a degree is the float nearest its lattice value."""
    den = _lattice(atoms)
    size = math.floor(cutoff * den + 1e-7) + 1
    shadow = _expand(atoms, dirichlet, size, den, np.float64)
    exact = shadow.max() < 2.0**62
    a = _expand(atoms, dirichlet, size, den, np.int64 if exact else object)
    return [(int(i) / den, int(a[i])) for i in np.flatnonzero(a)]


def count_upto(atoms: list[Atom], dirichlet: bool, cutoff: float) -> float:
    """Number of degrees <= cutoff counted with multiplicity (floating point)."""
    den = _lattice(atoms)
    return float(_expand(atoms, dirichlet, math.floor(cutoff * den + 1e-7) + 1, den, np.float64).sum())


def lattice_cutoff(atoms: list[Atom], x: float) -> float:
    """A cutoff near x halfway between two lattice degrees."""
    den = _lattice(atoms)
    return (math.floor(x * den) + 0.5) / den


# --- Laurent data at z = 1 ------------------------------------------------


def _mul(a: list, b: list) -> list:
    """Product of two series in s truncated after s^2."""
    return [a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[1] * b[1] + a[2] * b[0]]


def _pow(a: list, c: int) -> list:
    """(1 + x s + y s^2)^c truncated after s^2, any integer c."""
    _, x, y = a
    return [Fraction(1), c * x, c * y + Fraction(c * (c - 1), 2) * x * x]


@dataclass(frozen=True)
class Laurent:
    """M(e^{-s}) = b0 s^{1-n} + b1 s^{2-n} + b2 s^{3-n} + ..., and the
    matching c0, c1 of M(z) in powers of 1/(1-z)."""

    pole_order: int
    b0: float
    b1: float
    b2: float
    c0: float
    c1: float
    gamma: float


def laurent(atoms: list[Atom], dirichlet: bool) -> Laurent:
    """Exact expansion of the product of atom spectra and join factors:
    S0 gives 1 + e^{-s}; T0 gives e^{-s} (Dirichlet) or 1; an arc with
    b = pi/phi gives e^{-bs}/(1 - e^{-bs}) or 1/(1 - e^{-bs}); each join
    divides by 1 - e^{-2s}. With 1 - e^{-bs} = bs (1 - bs/2 + b^2 s^2/6 - ...)
    the product is lead * s^power * (1 + e1 s + e2 s^2 + ...)."""
    s0 = sum(a[0] == "S0" for a in atoms)
    t0 = sum(a[0] == "T0" for a in atoms)
    bs = [Fraction(a[2], a[1]) for a in atoms if a[0] == "Arc"]
    joins = len(atoms) - 1
    shift = Fraction(t0) + sum(bs) if dirichlet else Fraction(0)  # e^{-shift s}
    rest = [Fraction(1), -shift, shift * shift / 2]
    rest = _mul(rest, _pow([1, Fraction(-1, 2), Fraction(1, 4)], s0))
    lead = Fraction(2) ** s0
    for b, c in [(b, -1) for b in bs] + [(Fraction(2), -joins)]:
        lead *= b**c
        rest = _mul(rest, _pow([1, -b / 2, b * b / 6], c))
    power = -len(bs) - joins
    n = 1 - power
    b0, b1, b2 = lead * rest[0], lead * rest[1], lead * rest[2]
    gamma = (n - 2) - 2 * b1 / b0
    # s^{-k} = (1-z)^{-k} (1 - k(1-z)/2 + ...) with s = -log z
    c1 = b1 - Fraction(n - 1, 2) * b0
    return Laurent(n - 1, float(b0), float(b1), float(b2), float(b0), float(c1), float(gamma))


# --- sizes ------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


def _panels(edges: list[float], per: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        grid = np.linspace(a, b, per + 1)
        mid = 0.5 * (grid[1:] + grid[:-1])[:, None]
        half = 0.5 * (grid[1:] - grid[:-1])[:, None]
        xs.append((mid + half * _GL_X).ravel())
        ws.append((half * _GL_W).ravel())
    return np.concatenate(xs), np.concatenate(ws)


@lru_cache(maxsize=4096)
def regular_t_fraction(n: int, rho: float) -> float:
    """f_n(rho) = (1/sqrt(pi)) int e^{-u^2} erfc(c u)^n du, c^2 = rho/(1-rho):
    the orthant probability of n equicorrelated normals, times 2^n."""
    if n <= 1 or rho == 0.0:
        return 1.0
    c = math.sqrt(rho / (1.0 - rho))
    w = min(1.0 / c, 1.0)
    # panels resolve the step of width ~1/c at u = 0; the Gaussian tail
    # is below 1e-35 past |u| = 9
    edges = [-9.0, -4.0, -2.0, -w, -w / 4, 0.0, w / 4, w, 2.0, 4.0, 9.0]
    edges = sorted(set(edges))
    x, wt = _panels(edges, 6)
    vals = np.exp(-x * x) * erfc(c * x) ** n
    return float(np.dot(wt, vals)) / math.sqrt(PI)


def regular_t_size(n: int, rho: float) -> float:
    return 2.0**-n * sphere_size(n) * regular_t_fraction(n, rho)


def orthant_fraction_small(r: np.ndarray) -> float:
    """Orthant probability of a centered normal with correlation r, n <= 3."""
    n = r.shape[0]
    if n == 1:
        return 0.5
    if n == 2:
        return math.acos(-r[0, 1]) / (2.0 * PI)
    angles = math.acos(-r[0, 1]) + math.acos(-r[0, 2]) + math.acos(-r[1, 2])
    return (angles - PI) / (4.0 * PI)


# --- geometry and scaling ---------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    n: int
    area: float
    boundary: float
    k_integral: float  # integral of the boundary's geodesic curvature
    corner_term: float  # sum over codim-2 loci of |locus| (pi^2/a - a)/6

    @property
    def a2(self) -> float:
        return (self.n - 1) * (self.n - 2) * self.area / 6.0 + self.k_integral / 3.0 + self.corner_term


def _corner(angle: float) -> float:
    return (PI * PI / angle - angle) / 6.0


def regular_t_geometry(n: int, rho: float) -> Geometry:
    """Regular simplex T_(rho) on S^{n-1}: facets are T_(rho/(1+rho)) of
    one dimension less, the C(n,2) codim-2 faces are T_(rho/(1+2rho)) of
    two dimensions less meeting at the dihedral angle arccos(-rho)."""
    area = regular_t_size(n, rho)
    boundary = n * regular_t_size(n - 1, rho / (1.0 + rho)) if n >= 2 else 0.0
    corners = 0.0
    if n >= 3:
        face = regular_t_size(n - 2, rho / (1.0 + 2.0 * rho))
        corners = math.comb(n, 2) * face * _corner(math.acos(-rho))
    return Geometry(n, area, boundary, 0.0, corners)


def cap_geometry(theta: float) -> Geometry:
    area = 2.0 * PI * (1.0 - math.cos(theta))
    boundary = 2.0 * PI * math.sin(theta)
    return Geometry(3, area, boundary, 2.0 * PI * math.cos(theta), 0.0)


def sector_geometry(theta: float, phi: float) -> Geometry:
    """Cap of colatitude theta cut to azimuth phi: apex angle phi, two
    right angles where the meridians meet the circle of latitude."""
    area = phi * (1.0 - math.cos(theta))
    boundary = phi * math.sin(theta) + 2.0 * theta
    return Geometry(3, area, boundary, phi * math.cos(theta), _corner(phi) + 2.0 * _corner(PI / 2))


def atom_fractions(atoms: list[Atom]) -> tuple[float, float]:
    """(size fraction, boundary fraction) of a join of atoms: size
    fractions multiply; boundary fractions obey g12 = g1 f2 + f1 g2."""
    f, g = 1.0, 0.0
    for atom in atoms:
        if atom[0] == "S0":
            fa, ga = 1.0, 0.0
        elif atom[0] == "T0":
            fa, ga = 0.5, 1.0
        else:
            fa, ga = atom[1] / (2.0 * atom[2]), 1.0
        f, g = f * fa, g * fa + f * ga
    return f, g


def ambient_dim(atoms: list[Atom]) -> int:
    """Cone dimension: 1 per S0 or T0, 2 per arc."""
    return sum(2 if a[0] == "Arc" else 1 for a in atoms)


def atom_geometry(atoms: list[Atom], dirichlet: bool = True) -> Geometry:
    """Geometry of a join of atoms, with a2 recovered from the spectrum:
    2 b2/b0 = (b1/b0)^2 - l^2/(n-2) - gamma^2/4 + a2/((n-2)|Omega|)."""
    n = ambient_dim(atoms)
    f, g = atom_fractions(atoms)
    area = f * sphere_size(n)
    boundary = g * (sphere_size(n - 1) if n >= 2 else 1.0)
    if n < 3:
        return Geometry(n, area, boundary, 0.0, 0.0)
    lr = laurent(atoms, dirichlet)
    ell = 0.5 * (n - 2)
    r1, r2 = lr.b1 / lr.b0, lr.b2 / lr.b0
    a2 = (2.0 * r2 - r1 * r1 + ell * ell / (n - 2) + 0.25 * lr.gamma**2) * (n - 2) * area
    bulk = (n - 1) * (n - 2) * area / 6.0
    return Geometry(n, area, boundary, 0.0, a2 - bulk)


@dataclass(frozen=True)
class Inputs:
    n: int
    area: float
    gamma: float
    p: float
    q: float
    c0: float
    c1: float


def scaling_inputs(g: Geometry, dirichlet: bool) -> Inputs:
    sign = 1.0 if dirichlet else -1.0
    gamma = sign * 0.5 * sphere_size(g.n) / sphere_size(g.n - 1) * g.boundary / g.area
    ell = 0.5 * (g.n - 2)
    p = ell - 0.5 * gamma
    q = -ell * ell - 0.25 * (g.n - 2) * gamma * gamma + g.a2 / g.area
    c0 = 2.0 * g.area / sphere_size(g.n)
    return Inputs(g.n, g.area, gamma, p, q, c0, -0.5 * (1.0 + gamma) * c0)


def _cubic_root(p: float, q: float, rhs: np.ndarray) -> np.ndarray:
    """Nonnegative root of (nu+p)^3 + 1.5 q nu - p^3 = rhs, by bisection
    then Newton, vectorized over rhs."""
    lo = np.zeros_like(rhs)
    hi = np.ones_like(rhs)
    f = lambda x: (x + p) ** 3 + 1.5 * q * x - p**3 - rhs
    while np.any(f(hi) < 0.0):
        hi = np.where(f(hi) < 0.0, 2.0 * hi, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(2):
        d = 3.0 * (x + p) ** 2 + 1.5 * q
        x = np.where(d > 0.0, x - f(x) / np.where(d > 0.0, d, 1.0), x)
    return np.maximum(x, 0.0)


def estimates(t: Inputs, r: Inputs, degrees: np.ndarray, dirichlet: bool, method: str) -> np.ndarray:
    """Scaled degree estimates nu_k of the target from reference degrees."""
    n = t.n
    beta = (r.area / t.area) ** (1.0 / (n - 1))
    nu0 = degrees
    if dirichlet and method == "linear":
        alpha = 0.5 * (t.gamma - beta * r.gamma + (beta - 1.0) * (n - 2))
        return alpha + beta * nu0
    if dirichlet:
        return -t.p + np.sqrt(beta**2 * ((nu0 + r.p) ** 2 + r.q) - t.q)
    if method == "linear":
        return -t.p + np.sqrt(t.p * t.p + beta**2 * nu0 * (nu0 + 2.0 * r.p))
    rhs = beta**3 * ((nu0 + r.p) ** 3 + 1.5 * r.q * nu0 - r.p**3)
    return _cubic_root(t.p, t.q, rhs)


def flattened(spectrum: list[tuple[Fraction, int]], modes: int) -> np.ndarray:
    out: list[float] = []
    for nu, m in spectrum:
        out.extend([nu] * min(m, modes - len(out)))
        if len(out) >= modes:
            break
    return np.array(out)


def flat_limit_linear(area_c: float, boundary_c: float, r: Inputs, degrees: list[float]) -> list[float]:
    """nu_k * delta as the target shrinks: area ~ area_c delta^2, boundary
    ~ boundary_c delta, on S^2."""
    b = math.sqrt(r.area / area_c)
    return [0.5 * boundary_c / area_c + b * (nu0 - 0.5 * (r.gamma - 1.0)) for nu0 in degrees]


def flat_limit_quadratic(
    area_c: float, boundary_c: float, angles: list[float], r: Inputs, degrees: list[float]
) -> list[float]:
    g = boundary_c / area_c
    turning = 2.0 * PI - sum(PI - a for a in angles)  # Gauss-Bonnet
    q = -0.25 * g * g + (turning / 3.0 + sum(_corner(a) for a in angles)) / area_c
    return [0.5 * g + math.sqrt(r.area / area_c * ((nu0 + r.p) ** 2 + r.q) - q) for nu0 in degrees]
