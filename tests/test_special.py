import math

import mpmath
import pytest

from conespec.errors import DomainError, QuadratureFailure
from conespec.special import (
    adaptive_integrate,
    bessel_i,
    erfc_fn,
    gamma_fn,
    gauss_hermite,
    gauss_legendre,
    integrate_sequence,
    log_gamma_fn,
    quadrature,
)

mpmath.mp.dps = 30


class TestGamma:
    def test_against_mpmath(self):
        for x in (0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 25.5, 50.0):
            ref = float(mpmath.gamma(x))
            assert gamma_fn(x) == pytest.approx(ref, rel=1e-14)

    def test_half_integer_closed_forms(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)

    def test_factorials(self):
        for n in range(1, 15):
            assert gamma_fn(n + 1) == pytest.approx(math.factorial(n), rel=1e-13)

    def test_log_gamma_large(self):
        for x in (5.0, 50.0, 500.0):
            assert log_gamma_fn(x) == pytest.approx(float(mpmath.loggamma(x)), rel=1e-13)

    def test_log_convexity(self):
        # Bohr-Mollerup: log Gamma is convex on (0, inf)
        xs = [0.3, 0.7, 1.1, 2.4, 5.9]
        for x in xs:
            mid = log_gamma_fn(x + 0.1)
            assert 2.0 * mid <= log_gamma_fn(x) + log_gamma_fn(x + 0.2) + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.3)


class TestErfc:
    def test_against_mpmath(self):
        for i in range(-80, 81):
            x = i / 10.0
            ref = float(mpmath.erfc(x))
            assert erfc_fn(x) == pytest.approx(ref, rel=1e-14), x

    def test_reflection(self):
        for x in (0.2, 1.0, 3.5):
            assert erfc_fn(-x) == pytest.approx(2.0 - erfc_fn(x), abs=1e-15)

    def test_monotone_decreasing(self):
        values = [erfc_fn(i / 4.0) for i in range(-20, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tail_underflow(self):
        assert erfc_fn(30.0) == 0.0


class TestBesselI:
    def test_against_mpmath(self):
        for nu in (0.0, 0.5, 1.0, 2.0, 7.5, 20.0):
            for x in (0.01, 0.5, 2.0, 10.0, 30.0, 100.0):
                ref = float(mpmath.besseli(nu, x))
                assert bessel_i(nu, x) == pytest.approx(ref, rel=1e-10), (nu, x)

    def test_recurrence_grid(self):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
        for nu in (1.0, 2.5, 6.0):
            for x in (0.3, 1.7, 12.0, 50.0):
                lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
                rhs = 2.0 * nu / x * bessel_i(nu, x)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_generating_sum(self):
        # e^x = I_0(x) + 2 sum_{k>=1} I_k(x)
        x = 3.0
        total = bessel_i(0.0, x) + 2.0 * sum(bessel_i(float(k), x) for k in range(1, 60))
        assert total == pytest.approx(math.exp(x), rel=1e-13)

    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(2.0, 0.0) == 0.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 701.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)


class TestQuadrature:
    def test_hermite_moments(self):
        # int e^{-u^2} u^{2m} du = Gamma(m + 1/2)
        rule = gauss_hermite(20)
        for m in range(6):
            val = rule.apply(lambda u: u ** (2 * m))
            assert val == pytest.approx(gamma_fn(m + 0.5), rel=1e-12)

    def test_hermite_odd_moments_vanish(self):
        rule = gauss_hermite(16)
        assert abs(rule.apply(lambda u: u**3)) < 1e-13
        assert abs(rule.apply(lambda u: u**7)) < 1e-12

    def test_hermite_symmetry(self):
        rule = gauss_hermite(33)
        nodes = rule.nodes
        assert all(a == -b for a, b in zip(nodes, reversed(nodes)))

    def test_legendre_polynomial_exactness(self):
        # order-n Gauss rule integrates degree 2n-1 exactly
        rule = gauss_legendre(5)
        for deg in range(10):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert rule.apply(lambda t: t**deg) == pytest.approx(exact, abs=1e-14)

    def test_legendre_weights_sum(self):
        assert sum(gauss_legendre(40).weights) == pytest.approx(2.0, rel=1e-14)

    def test_quadrature_dispatch_and_bounds(self):
        assert quadrature("hermite", 8).kind == "hermite"
        with pytest.raises(QuadratureFailure):
            quadrature("legendre", 1)
        with pytest.raises(QuadratureFailure):
            quadrature("chebyshev", 8)

    def test_nodes_are_plain_floats(self):
        rule = gauss_hermite(4)
        assert all(type(x) is float for x in rule.nodes + rule.weights)


class TestAdaptiveIntegrate:
    def test_gaussian(self):
        val = adaptive_integrate(lambda t: math.exp(-t * t), 0.0, 8.0, tol_rel=1e-13)
        assert val == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)

    def test_kink_is_resolved(self):
        val = adaptive_integrate(lambda t: abs(t - 0.3), 0.0, 1.0, tol_rel=1e-12)
        assert val == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-10)

    def test_kahan_sum(self):
        values = [1e16, 1.0, -1e16, 1.0]
        assert integrate_sequence(values) == 2.0
