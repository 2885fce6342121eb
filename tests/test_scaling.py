import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.domain import DIRICHLET, NEUMANN, parse_domain
from conespec.errors import (
    DimensionMismatch,
    InsufficientModes,
    RootNotBracketed,
    UnsupportedDomain,
)
from conespec.geometry import catalog_geometry, scaling_inputs
from conespec.mfun import domain_m, expand_series
from conespec.scaling import (
    _cubic_root,
    estimate_linear,
    estimate_pair,
    estimate_quadratic,
    flat_limit_linear,
    flat_limit_quadratic,
    flat_reference_estimate,
    lambda_of_nu,
    linear_params,
    quadratic_params,
)


def inputs(text, bc=DIRICHLET):
    return scaling_inputs(catalog_geometry(parse_domain(text), bc))


def ref_series(text, bc=DIRICHLET, nu_max=40.0):
    return expand_series(domain_m(parse_domain(text), bc), nu_max)


class TestParams:
    def test_self_scaling_is_identity(self):
        t3 = inputs("T(3)")
        sc = linear_params(t3, t3)
        assert sc.beta == pytest.approx(1.0, abs=1e-15)
        assert sc.alpha == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linear_params(inputs("T(3)"), inputs("T(4)"))
        with pytest.raises(DimensionMismatch):
            quadratic_params(inputs("T(3)"), inputs("Sphere(4)"))

    def test_beta_from_areas(self):
        # T(3) covers 1/8 of the sphere, HalfSphere(3) covers 1/2
        sc = linear_params(inputs("T(3)"), inputs("HalfSphere(3)"))
        assert sc.beta == pytest.approx(2.0, rel=1e-14)


class TestSelfAndExactScaling:
    def test_self_scaling_reproduces_spectrum(self):
        t3 = inputs("T(3)")
        series = ref_series("T(3)")
        report = estimate_linear(linear_params(t3, t3), series, 8)
        for _, nu0, nu, lam in report.rows:
            assert nu == pytest.approx(nu0, abs=1e-12)
            assert lam == pytest.approx(lambda_of_nu(nu0, 3), abs=1e-11)

    def test_t_to_half_sphere_exact(self):
        # T(n) and HalfSphere(n) lie on the same exact scaling family
        for n in (3, 4):
            report = estimate_pair(
                parse_domain(f"HalfSphere({n})"),
                parse_domain(f"T({n})"),
                DIRICHLET,
                method="linear",
                modes=10,
            )
            exact = ref_series(f"HalfSphere({n})").flattened()
            for (_, _, nu, _), nu_exact in zip(report.rows, exact):
                assert nu == pytest.approx(nu_exact, abs=1e-10)

    def test_quadratic_self_scaling(self):
        t3 = inputs("T(3)")
        report = estimate_quadratic(quadratic_params(t3, t3), ref_series("T(3)"), 5)
        for _, nu0, nu, _ in report.rows:
            assert nu == pytest.approx(nu0, abs=1e-12)


class TestPaperNumbers:
    def test_tetrahedral_linear(self):
        report = estimate_pair(
            parse_domain("RegularT(3, rho=0.5)"),
            parse_domain("T(3)"),
            DIRICHLET,
            method="linear",
            modes=1,
        )
        _, _, nu1, lam1 = report.rows[0]
        assert nu1 == pytest.approx(1.826, abs=1e-3)
        assert lam1 == pytest.approx(5.162, abs=2e-3)

    def test_tetrahedral_quadratic(self):
        report = estimate_pair(
            parse_domain("RegularT(3, rho=0.5)"),
            parse_domain("T(3)"),
            DIRICHLET,
            method="quadratic",
            modes=1,
        )
        assert report.rows[0][3] == pytest.approx(5.1606, abs=5e-4)

    def test_cap_linear(self):
        report = estimate_pair(
            parse_domain("Cap(theta=pi/3)"),
            parse_domain("HalfSphere(3)"),
            DIRICHLET,
            method="linear",
            modes=1,
        )
        assert report.rows[0][3] == pytest.approx(4.949, abs=1e-3)

    def test_cap_quadratic_equals_linear(self):
        # on S^2 the cap's quadratic combination collapses onto the
        # linear one: identical estimates, not merely close
        lin = estimate_pair(
            parse_domain("Cap(theta=pi/3)"),
            parse_domain("HalfSphere(3)"),
            DIRICHLET,
            method="linear",
            modes=4,
        )
        quad = estimate_pair(
            parse_domain("Cap(theta=pi/3)"),
            parse_domain("HalfSphere(3)"),
            DIRICHLET,
            method="quadratic",
            modes=4,
        )
        for (_, _, a, _), (_, _, b, _) in zip(lin.rows, quad.rows):
            assert a == pytest.approx(b, abs=1e-10)

    def test_sector(self):
        theta = math.acos(-1.0 / math.sqrt(3.0))
        phi = 2.0 * math.pi / 3.0
        target = parse_domain(f"Sector(theta={theta!r}, phi={phi!r})")
        ref = parse_domain(f"Sector(theta=pi/2, phi={phi!r})")
        lin = estimate_pair(target, ref, DIRICHLET, method="linear", modes=1)
        assert lin.rows[0][3] == pytest.approx(5.1046, abs=1e-3)
        quad = estimate_pair(target, ref, DIRICHLET, method="quadratic", modes=1)
        assert quad.rows[0][3] == pytest.approx(5.0187, abs=1e-3)


class TestNeumann:
    def test_preserves_zero_mode_linear(self):
        report = estimate_pair(
            parse_domain("RegularT(3, rho=0.5)"),
            parse_domain("T(3)"),
            NEUMANN,
            method="linear",
            modes=3,
        )
        assert report.rows[0][1] == 0.0
        assert report.rows[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_preserves_zero_mode_quadratic(self):
        report = estimate_pair(
            parse_domain("RegularT(3, rho=0.5)"),
            parse_domain("T(3)"),
            NEUMANN,
            method="quadratic",
            modes=3,
        )
        assert report.rows[0][2] == pytest.approx(0.0, abs=1e-11)

    def test_nonzero_modes_positive(self):
        report = estimate_pair(
            parse_domain("RegularT(3, rho=0.5)"),
            parse_domain("T(3)"),
            NEUMANN,
            method="linear",
            modes=4,
        )
        assert all(nu > 0 for _, _, nu, _ in report.rows[1:])


    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.floats(0.0, 1e5),
        st.floats(-1e9, 1e9),
        st.one_of(st.just(0.0), st.floats(0.0, 1e15)),
    )
    def test_cubic_root_against_mpmath(self, p, q, rhs):
        # largest root of x^3 + 1.5 q x = r, x = nu + p, by Newton from above
        with mpmath.workdps(50):
            a, r = 1.5 * mpmath.mpf(q), mpmath.mpf(p) ** 3 + 1.5 * mpmath.mpf(q) * p + rhs
            x = 2 * (1 + abs(r) ** (mpmath.mpf(1) / 3) + mpmath.sqrt(abs(a)))
            for _ in range(3000):
                step = (x**3 + a * x - r) / (3 * x * x + a)
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -40 * (1 + abs(x)):
                    break
            want = float(max(x - p, 0))
        assert abs(_cubic_root(p, q, rhs) - want) <= 1e-13 * max(1.0, want)

    def test_cubic_root_needs_nonnegative_rhs(self):
        with pytest.raises(RootNotBracketed):
            _cubic_root(1.0, 0.0, -1e-3)


    def test_huge_multiplicities_flatten_to_modes(self):
        # Sphere(40) reaches multiplicities near 1e19 by nu = 30
        d = parse_domain("Sphere(40)")
        report = estimate_pair(d, d, DIRICHLET, method="linear", modes=3)
        assert [r[2] for r in report.rows] == pytest.approx([0.0, 1.0, 1.0])


class TestMonotonicity:
    def test_lambda1_decreases_as_domain_grows(self):
        previous = math.inf
        for rho in (0.0, 0.25, 0.5):
            report = estimate_pair(
                parse_domain(f"RegularT(3, rho={rho})"),
                parse_domain("T(3)"),
                DIRICHLET,
                method="linear",
                modes=1,
            )
            lam1 = report.rows[0][3]
            assert lam1 < previous
            previous = lam1


class TestFlatLimits:
    def test_cap_flat_limit(self):
        hs = inputs("HalfSphere(3)")
        got = flat_limit_linear(math.pi, 2 * math.pi, hs, [1.0, 2.0, 3.0])
        for val, expect in zip(got, (2.4142, 3.8284, 5.2426)):
            assert val == pytest.approx(expect, abs=5e-4)

    def test_cap_flat_quadratic_equals_linear(self):
        hs = inputs("HalfSphere(3)")
        lin = flat_limit_linear(math.pi, 2 * math.pi, hs, [1.0, 2.0, 3.0])
        quad = flat_limit_quadratic(math.pi, 2 * math.pi, [], hs, [1.0, 2.0, 3.0])
        for a, b in zip(lin, quad):
            assert a == pytest.approx(b, abs=1e-12)

    def test_triangle_flat_limit(self):
        t3 = inputs("T(3)")
        got = flat_limit_linear(math.sqrt(3) / 4, 3.0, t3, [3.0, 5.0])
        assert got[0] == pytest.approx(7.273, abs=1e-3)
        assert got[1] == pytest.approx(11.083, abs=1e-3)

    def test_triangle_flat_quadratic(self):
        t3 = inputs("T(3)")
        got = flat_limit_quadratic(
            math.sqrt(3) / 4, 3.0, [math.pi / 3] * 3, t3, [3.0]
        )
        assert got[0] == pytest.approx(7.2613, abs=5e-4)

    def test_flat_reference_estimate_scale_invariance(self):
        # doubling the flat domain's linear scale must not change the
        # estimated spherical degrees
        lam = [7.273**2, 11.083**2]
        a = flat_reference_estimate(0.8, 3.2, 1.0, 4.0, lam)
        b = flat_reference_estimate(0.8, 3.2, 4.0, 8.0, [x / 4.0 for x in lam])
        for (_, _, x, _), (_, _, y, _) in zip(a.rows, b.rows):
            assert x == pytest.approx(y, rel=1e-12)


class TestCutoff:
    def test_large_modes_match_a_long_expansion(self):
        # the expansion starts low and doubles; its first degrees are those
        # of an expansion far past the last mode
        target = parse_domain("Sector(theta=1.2, phi=pi/6)")
        reference = parse_domain("Sector(theta=pi/2, phi=pi/6)")
        modes = 300
        for bc in (DIRICHLET, NEUMANN):
            form = domain_m(reference, bc)
            long = expand_series(form, form.first_exponent() + 3.0 * modes + 10.0)
            rows = estimate_pair(target, reference, bc, modes=modes).rows
            assert [r[1] for r in rows] == long.flattened()[:modes]


class TestErrors:
    def test_insufficient_modes(self):
        series = ref_series("T(3)", nu_max=5.0)  # holds degrees 3 and 5 only
        t3 = inputs("T(3)")
        with pytest.raises(InsufficientModes):
            estimate_linear(linear_params(t3, t3), series, 50)

    def test_modes_below_one_rejected(self):
        for modes in (0, -3):
            with pytest.raises(ValueError):
                estimate_pair(
                    parse_domain("RegularT(3, rho=0.5)"), parse_domain("T(3)"),
                    DIRICHLET, modes=modes,
                )

    def test_unknown_method(self):
        with pytest.raises(UnsupportedDomain):
            estimate_pair(
                parse_domain("T(3)"), parse_domain("T(3)"), DIRICHLET, method="cubic"
            )
