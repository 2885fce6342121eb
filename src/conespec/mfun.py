"""Closed-form spectral functions and their expansions.

A spectral function M(z) = sum_nu m_nu z^nu collects the degrees nu
(lambda = nu(nu+n-2)) and multiplicities of the Laplacian on a spherical
domain. For join products of S0, T0 and arcs it has the factorized form
z^a * prod (1 - z^{b_i})^{c_i}, which this module builds, expands into an
exact (nu, multiplicity) series, and differentiates into the asymptotic
coefficients that drive the scaling estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .domain import (
    AtomS0,
    AtomT0,
    BoundaryCondition,
    DomainExpr,
    Named,
    capabilities,
    expand_named,
    factors,
)
from .errors import (
    CutoffExceeded,
    NonIntegerMultiplicity,
    UnsupportedAtom,
    UnsupportedDomain,
)

MERGE_TOL = 1e-9  # absolute tolerance when merging exponents
# most term products one expansion may take: 11x the largest that the
# tests, verify, paper or benchmark requests take (4.4e5), about 3 s
# at 0.55 us a product on a 2-vCPU VM
MAX_TERM_PRODUCTS = 5_000_000


@dataclass(frozen=True)
class ClosedFormM:
    """M(z) = z^a * prod_i (1 - z^{b_i})^{c_i}, valid on 0 < z < 1."""

    prefactor_exponent: float
    factors: tuple[tuple[float, int], ...]

    @property
    def pole_order(self) -> int:
        return -sum(c for _, c in self.factors)

    def first_exponent(self) -> float:
        """Degree nu_1 of the lowest term (additive under join)."""
        return self.prefactor_exponent

    def eval(self, z: float) -> float:
        """Evaluate the factor form at real z > 0, z not a pole."""
        val = z**self.prefactor_exponent
        for b, c in self.factors:
            val *= (1.0 - z**b) ** c
        return val


def _merge_factors(pairs: Iterable[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    merged: list[tuple[float, int]] = []
    for b, c in sorted(pairs):
        if merged and abs(merged[-1][0] - b) <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + c)
        else:
            merged.append((b, c))
    return tuple((b, c) for b, c in merged if c != 0)


def make_form(a: float, pairs: Iterable[tuple[float, int]]) -> ClosedFormM:
    return ClosedFormM(a, _merge_factors(pairs))


def atomic_m(atom: DomainExpr, bc: BoundaryCondition) -> ClosedFormM:
    """Spectral function of a single atom: S0, T0 or Arc(phi)."""
    if isinstance(atom, AtomS0):
        # 1 + z, written (1-z^2)/(1-z) to expose the pole structure
        return make_form(0.0, [(2.0, 1), (1.0, -1)])
    if isinstance(atom, AtomT0):
        return make_form(1.0 if bc.is_dirichlet else 0.0, [])
    if isinstance(atom, Named) and atom.kind == "Arc":
        b = math.pi / atom.angle
        if math.isinf(b):
            raise OverflowError(f"pi / {atom.angle} overflows")
        return make_form(b if bc.is_dirichlet else 0.0, [(b, -1)])
    raise UnsupportedAtom(f"no closed-form M for atom {atom}")


def join_m(m1: ClosedFormM, m2: ClosedFormM) -> ClosedFormM:
    """Product rule: M = M1 * M2 / (1 - z^2)."""
    return make_form(
        m1.prefactor_exponent + m2.prefactor_exponent,
        list(m1.factors) + list(m2.factors) + [(2.0, -1)],
    )


def domain_m(d: DomainExpr, bc: BoundaryCondition) -> ClosedFormM:
    """Closed-form M(z) for a spectrum-exact domain."""
    if not capabilities(d).spectrum_exact:
        raise UnsupportedDomain(f"{d} has no closed-form spectral function")
    parts = factors(expand_named(d))
    form = atomic_m(parts[0], bc)
    for part in parts[1:]:
        form = join_m(form, atomic_m(part, bc))
    return form


@dataclass(frozen=True)
class SpectralSeries:
    """Sorted (degree, multiplicity) terms up to a cutoff degree."""

    terms: tuple[tuple[float, int], ...]
    cutoff: float

    def flattened(self, limit: int | None = None) -> list[float]:
        """Degrees repeated by multiplicity, in increasing order; only the
        first `limit` of them when a limit is given."""
        out: list[float] = []
        for nu, m in self.terms:
            if limit is not None and m >= limit - len(out):
                return out + [nu] * (limit - len(out))
            out.extend([nu] * m)
        return out


def _multiply(
    series: dict[float, int], poly: list[tuple[float, int]], nu_max: float
) -> dict[float, int]:
    out: dict[float, int] = {}
    bound = nu_max + MERGE_TOL
    for e1, c1 in series.items():
        for e2, c2 in poly:
            e = e1 + e2
            if e > bound:
                continue
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _factor_poly(b: float, c: int, length: int) -> list[tuple[float, int]]:
    """The first `length` terms of the binomial series of (1 - z^b)^c."""
    if c > 0:
        return [(b * j, (-1) ** j * math.comb(c, j)) for j in range(length)]
    return [(b * j, math.comb(j - c - 1, j)) for j in range(length)]


def expand_series(m: ClosedFormM, nu_max: float) -> SpectralSeries:
    """Exact binomial expansion of the factor form, truncated at nu_max.

    Multiplicities are accumulated as integers. An expansion that would
    take more than MAX_TERM_PRODUCTS term products raises CutoffExceeded
    before it starts the multiplication that crosses the limit.
    """
    if nu_max <= 0:
        raise ValueError("nu_max must be positive")
    span = nu_max - m.prefactor_exponent + MERGE_TOL
    series: dict[float, int] = {m.prefactor_exponent: 1}
    work = 0
    for b, c in m.factors:
        length = math.floor(span / b) + 1 if span >= 0.0 else 0
        if c > 0:
            length = min(length, c + 1)
        work += len(series) * length
        if work > MAX_TERM_PRODUCTS:
            raise CutoffExceeded(f"expansion to nu = {nu_max:g} takes over "
                                 f"{MAX_TERM_PRODUCTS} term products")
        series = _multiply(series, _factor_poly(b, c, length), nu_max)
    # merge exponents that agree within tolerance
    merged: list[tuple[float, int]] = []
    for nu, coeff in sorted(series.items()):
        if merged and nu - merged[-1][0] <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + coeff)
        else:
            merged.append((nu, coeff))
    terms: list[tuple[float, int]] = []
    for nu, coeff in merged:
        if nu > nu_max + MERGE_TOL or coeff == 0:
            continue
        if coeff < 0:
            raise NonIntegerMultiplicity(f"negative multiplicity {coeff} at nu = {nu}")
        terms.append((nu, coeff))
    return SpectralSeries(tuple(terms), nu_max)


def counting_function(s: SpectralSeries, nu: float) -> int:
    """W(nu): number of degrees <= nu counted with multiplicity."""
    if nu > s.cutoff:
        raise CutoffExceeded(f"nu = {nu} beyond series cutoff {s.cutoff}")
    return sum(m for deg, m in s.terms if deg <= nu)


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Expansion data at the z = 1 (s = 0) singularity.

    c0, c1 are the leading Laurent coefficients in powers of 1/(1-z);
    b0, b1, b2 those of M(e^{-s}) in powers of 1/s; gamma the normalized
    boundary-to-area ratio recovered from b1/b0 = (n-2)/2 - gamma/2.
    """

    pole_order: int
    c0: float
    c1: float
    b0: float
    b1: float
    b2: float
    gamma: float


def asymptotics_from_form(m: ClosedFormM) -> AsymptoticCoeffs:
    """Expand M(e^{-s}) = b0/s^{n-1} + b1/s^{n-2} + b2/s^{n-3} + ...

    Each factor contributes (1 - e^{-bs}) = bs * exp(-bs/2) * sinhc(bs/2),
    so log of the regular part is s*L1 + s^2*L2 + O(s^4) with
    L1 = -a - sum c_i b_i / 2 and L2 = sum c_i b_i^2 / 24.
    """
    a = m.prefactor_exponent
    n = m.pole_order + 1
    b0 = 1.0
    l1 = -a
    l2 = 0.0
    for b, c in m.factors:
        b0 *= b**c
        l1 -= c * b / 2.0
        l2 += c * b * b / 24.0
    b1 = b0 * l1
    b2 = b0 * (l2 + 0.5 * l1 * l1)
    gamma = (n - 2) - 2.0 * l1
    c0 = b0
    c1 = -0.5 * (1.0 + gamma) * c0
    return AsymptoticCoeffs(m.pole_order, c0, c1, b0, b1, b2, gamma)


def b2_numeric_check(m: ClosedFormM, s: float = 1e-2) -> float:
    """Richardson estimate of b2 from M(e^{-s}); cross-checks the algebra."""
    co = asymptotics_from_form(m)
    n = m.pole_order + 1

    def rem(sv: float) -> float:
        val = m.eval(math.exp(-sv))
        return (val - co.b0 * sv ** (1 - n) - co.b1 * sv ** (2 - n)) * sv ** (n - 3)

    return 2.0 * rem(0.5 * s) - rem(s)


def functional_equation_residual(
    m: ClosedFormM, n: int, gamma: float, z: float
) -> float:
    """|M(1/z) - (-1)^{n-1} z^{n-2-gamma} M(z)| for 0 < z < 1."""
    if not 0.0 < z < 1.0:
        raise ValueError("z must lie in (0, 1)")
    lhs = m.eval(1.0 / z)
    rhs = (-1.0) ** (n - 1) * z ** (n - 2 - gamma) * m.eval(z)
    return abs(lhs - rhs)


def dirichlet_neumann_pairing_residual(
    m_d: ClosedFormM, m_n: ClosedFormM, n: int, z: float
) -> float:
    """|M_D(1/z) - (-1)^{n-1} z^{n-2} M_N(z)|."""
    lhs = m_d.eval(1.0 / z)
    rhs = (-1.0) ** (n - 1) * z ** (n - 2) * m_n.eval(z)
    return abs(lhs - rhs)


def weyl_asymptotic(co: AsymptoticCoeffs, nu: float) -> float:
    """Leading Weyl-law approximation of the counting function W(nu)."""
    n = co.pole_order + 1
    total = co.b0 * nu ** (n - 1) / math.factorial(n - 1)
    total += co.b1 * nu ** (n - 2) / math.factorial(n - 2)
    if n >= 3:
        total += co.b2 * nu ** (n - 3) / math.factorial(n - 3)
    return total
