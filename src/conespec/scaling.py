"""Eigenvalue estimation by scaling a reference spectrum.

The degree nu (lambda = nu(nu+n-2)) of a target domain is estimated from
a reference domain either linearly, nu = alpha + beta*nu0, or through the
quadratic combination (nu+p)^2 + q scaled by beta^2. Parameters come from
area, boundary and heat-trace data of the two domains. Neumann variants
preserve nu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import BoundaryCondition, DomainExpr, ambient_dim
from .errors import (
    DimensionMismatch,
    InsufficientModes,
    NegativeDiscriminant,
    RootNotBracketed,
    UnsupportedDomain,
)
from .geometry import ScalingInputs, catalog_geometry, scaling_inputs
from .mfun import SpectralSeries, domain_m, expand_series


def lambda_of_nu(nu: float, n: int) -> float:
    """Laplacian eigenvalue from the degree: lambda = nu(nu + n - 2)."""
    return nu * (nu + n - 2) + 0.0  # the + 0.0 normalizes -0.0


@dataclass(frozen=True)
class LinearScaling:
    alpha: float
    beta: float
    n: int


@dataclass(frozen=True)
class QuadraticScaling:
    beta: float
    p_t: float
    q_t: float
    p_r: float
    q_r: float
    n: int


@dataclass(frozen=True)
class EstimateReport:
    rows: tuple[tuple[int, float, float, float], ...]  # (k, nu_ref, nu_est, lambda_est)
    method: str
    target_label: str = ""
    reference_label: str = ""

    def multiplicity_grouped(self) -> list[tuple[float, int, float]]:
        """(nu_est, multiplicity, lambda_est) with ties regrouped."""
        out: list[tuple[float, int, float]] = []
        for _, _, nu, lam in self.rows:
            if out and abs(out[-1][0] - nu) <= 1e-9:
                out[-1] = (out[-1][0], out[-1][1] + 1, out[-1][2])
            else:
                out.append((nu, 1, lam))
        return out


def _check_pair(target: ScalingInputs, ref: ScalingInputs) -> None:
    if target.n != ref.n:
        raise DimensionMismatch(
            f"target n = {target.n} vs reference n = {ref.n}"
        )


def _beta(target: ScalingInputs, ref: ScalingInputs) -> float:
    return (ref.area / target.area) ** (1.0 / (target.n - 1))


def linear_params(target: ScalingInputs, ref: ScalingInputs) -> LinearScaling:
    _check_pair(target, ref)
    beta = _beta(target, ref)
    n = target.n
    alpha = 0.5 * (target.gamma - beta * ref.gamma + (beta - 1.0) * (n - 2))
    return LinearScaling(alpha=alpha, beta=beta, n=n)


def quadratic_params(target: ScalingInputs, ref: ScalingInputs) -> QuadraticScaling:
    _check_pair(target, ref)
    return QuadraticScaling(
        beta=_beta(target, ref),
        p_t=target.p,
        q_t=target.q,
        p_r=ref.p,
        q_r=ref.q,
        n=target.n,
    )


def _flatten(ref_series: SpectralSeries, modes: int) -> list[float]:
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    flat = ref_series.flattened(modes)
    if len(flat) < modes:
        raise InsufficientModes(
            f"reference series has {len(flat)} modes, {modes} requested"
        )
    return flat


def _report(method: str, degrees: list[float], estimates: list[float], n: int) -> EstimateReport:
    rows = tuple(
        (k + 1, nu0, nu, lambda_of_nu(nu, n))
        for k, (nu0, nu) in enumerate(zip(degrees, estimates))
    )
    return EstimateReport(rows=rows, method=method)


def estimate_linear(
    sc: LinearScaling, ref_series: SpectralSeries, modes: int
) -> EstimateReport:
    degrees = _flatten(ref_series, modes)
    estimates = [sc.alpha + sc.beta * nu0 for nu0 in degrees]
    return _report("linear", degrees, estimates, sc.n)


def estimate_quadratic(
    sc: QuadraticScaling, ref_series: SpectralSeries, modes: int
) -> EstimateReport:
    degrees = _flatten(ref_series, modes)
    estimates = []
    for k, nu0 in enumerate(degrees, start=1):
        disc = sc.beta**2 * ((nu0 + sc.p_r) ** 2 + sc.q_r) - sc.q_t
        if disc < 0.0:
            raise NegativeDiscriminant(k, disc)
        estimates.append(-sc.p_t + math.sqrt(disc))
    return _report("quadratic", degrees, estimates, sc.n)


def estimate_neumann(
    sc: LinearScaling | QuadraticScaling,
    target: ScalingInputs,
    ref: ScalingInputs,
    ref_series: SpectralSeries,
    modes: int,
) -> EstimateReport:
    """Neumann variants: scale nu(nu+2p) (linear) or the cubic
    (nu+p)^3 + (3/2)q nu - p^3 (quadratic); both fix nu = 0."""
    degrees = _flatten(ref_series, modes)
    beta = sc.beta
    estimates = []
    if isinstance(sc, LinearScaling):
        p_t, p_r = target.p, ref.p
        for nu0 in degrees:
            rhs = beta**2 * nu0 * (nu0 + 2.0 * p_r)
            estimates.append(-p_t + math.sqrt(p_t * p_t + rhs))
        return _report("neumann-linear", degrees, estimates, sc.n)
    p_t, q_t, p_r, q_r = sc.p_t, sc.q_t, sc.p_r, sc.q_r
    for nu0 in degrees:
        rhs = beta**3 * ((nu0 + p_r) ** 3 + 1.5 * q_r * nu0 - p_r**3)
        estimates.append(_cubic_root(p_t, q_t, rhs))
    return _report("neumann-quadratic", degrees, estimates, sc.n)


def _cubic_root(p: float, q: float, rhs: float) -> float:
    """Nonnegative root nu of (nu + p)^3 + 1.5 q nu - p^3 = rhs.

    With x = nu + p this is x^3 + 1.5 q x = r, r = p^3 + 1.5 q p + rhs.
    Its largest real root comes from Cardano's formula, in the form that
    takes the cube root on the side without cancellation, or from the
    trigonometric form when there are three real roots. One Newton step
    on nu (nu^3 + 3p nu^2 + (3p^2 + 1.5q) nu = rhs, free of the p^3
    cancellation) polishes it. rhs < 0 leaves no nonnegative root when
    p >= 0.
    """
    if rhs < 0.0:
        raise RootNotBracketed(f"no nonnegative root for right-hand side {rhs:g}")
    if rhs == 0.0:
        # nu = 0, or the larger root of nu^2 + 3p nu + 3p^2 + 1.5q when
        # positive: the mode nu0 = 0 maps to 0 exactly
        d = -3.0 * p * p - 6.0 * q
        return max(0.0, 0.5 * (math.sqrt(d) - 3.0 * p)) if d > 0.0 else 0.0
    # solve in units of s, in which every coefficient is at most 1, so
    # that nothing below overflows or underflows
    s = max(p, math.sqrt(abs(q)), rhs ** (1.0 / 3.0))
    p, q, rhs = p / s, q / s / s, rhs / s / s / s
    a = 0.5 * q  # one third of the linear coefficient in x
    r = p**3 + 1.5 * q * p + rhs
    disc = 0.25 * r * r + a**3
    if disc >= 0.0:
        u = math.copysign((0.5 * abs(r) + math.sqrt(disc)) ** (1.0 / 3.0), r)
        x = u - a / u if u else 0.0
    else:
        m = math.sqrt(-a)
        x = 2.0 * m * math.cos(math.acos(max(-1.0, min(1.0, 0.5 * r / m**3))) / 3.0)
    nu = x - p
    slope = 3.0 * x * x + 1.5 * q
    if slope > 0.0:
        nu -= (nu * (nu * (nu + 3.0 * p) + 3.0 * p * p + 1.5 * q) - rhs) / slope
    return s * max(0.0, nu)


def flat_reference_estimate(
    area: float,
    boundary: float,
    flat_area: float,
    flat_boundary: float,
    flat_eigenvalues: list[float],
    n: int = 3,
) -> EstimateReport:
    """Estimate sphere-domain degrees from a similar flat domain's
    eigenvalues; the flat length scale cancels out."""
    shift = 0.5 * (
        boundary / area - flat_boundary / math.sqrt(area * flat_area) - 1.0
    )
    estimates = [
        shift + math.sqrt(flat_area * lam / area) for lam in flat_eigenvalues
    ]
    degrees = [math.sqrt(lam) for lam in flat_eigenvalues]
    return _report("flat-reference", degrees, estimates, n)


def flat_limit_linear(
    area_coeff: float,
    boundary_coeff: float,
    ref: ScalingInputs,
    ref_degrees: list[float],
) -> list[float]:
    """Shrinking-domain limit of the linear estimate on S^2.

    The target scales as area = area_coeff * delta^2 and boundary =
    boundary_coeff * delta; returned values are the finite coefficients
    nu_k * delta.
    """
    g = boundary_coeff / area_coeff
    b = math.sqrt(ref.area / area_coeff)
    return [0.5 * g + b * (nu0 - 0.5 * (ref.gamma - 1.0)) for nu0 in ref_degrees]


def flat_limit_quadratic(
    area_coeff: float,
    boundary_coeff: float,
    corner_angles: list[float],
    ref: ScalingInputs,
    ref_degrees: list[float],
) -> list[float]:
    """Shrinking-domain limit of the quadratic estimate on S^2.

    The boundary of the limiting flat domain carries total geodesic
    turning 2 pi minus the exterior angles (Gauss-Bonnet), which is what
    survives of the K-integral in the a2 coefficient.
    """
    g = boundary_coeff / area_coeff
    b2 = ref.area / area_coeff
    corner_term = sum(
        (math.pi**2 / phi - phi) / 6.0 for phi in corner_angles
    )
    turning = 2.0 * math.pi - sum(math.pi - phi for phi in corner_angles)
    q_coeff = -0.25 * g * g + (turning / 3.0 + corner_term) / area_coeff
    return [
        0.5 * g + math.sqrt(b2 * ((nu0 + ref.p) ** 2 + ref.q) - q_coeff)
        for nu0 in ref_degrees
    ]


def estimate_pair(
    target: DomainExpr,
    reference: DomainExpr,
    bc: BoundaryCondition,
    method: str = "linear",
    modes: int = 5,
) -> EstimateReport:
    """End-to-end estimate: geometry of both domains, exact spectrum of
    the reference, scaled estimate of the target."""
    t_in = scaling_inputs(catalog_geometry(target, bc))
    r_in = scaling_inputs(catalog_geometry(reference, bc))
    form = domain_m(reference, bc)
    # the expansion is exact below its cutoff, so the first `modes` degrees
    # do not depend on it: start low and double, as the mode count grows
    # like cutoff^(n-1)
    cutoff = max(30.0, form.first_exponent() + 10.0)
    series = expand_series(form, cutoff)
    while sum(m for _, m in series.terms) < modes:
        cutoff *= 2.0
        series = expand_series(form, cutoff)
    if bc.is_dirichlet:
        if method == "linear":
            report = estimate_linear(linear_params(t_in, r_in), series, modes)
        elif method == "quadratic":
            report = estimate_quadratic(quadratic_params(t_in, r_in), series, modes)
        else:
            raise UnsupportedDomain(f"unknown method {method!r}")
    else:
        if method == "linear":
            sc: LinearScaling | QuadraticScaling = linear_params(t_in, r_in)
        elif method == "quadratic":
            sc = quadratic_params(t_in, r_in)
        else:
            raise UnsupportedDomain(f"unknown method {method!r}")
        report = estimate_neumann(sc, t_in, r_in, series, modes)
    return EstimateReport(
        rows=report.rows,
        method=report.method,
        target_label=str(target),
        reference_label=str(reference),
    )
