import math
import random

import pytest

from conespec.domain import DIRICHLET, NEUMANN, join, parse_domain
from conespec.errors import CutoffExceeded, UnsupportedDomain
from conespec.geometry import catalog_geometry, scaling_inputs
from conespec.mfun import (
    SpectralSeries,
    asymptotics_from_form,
    atomic_m,
    b2_numeric_check,
    counting_function,
    dirichlet_neumann_pairing_residual,
    domain_m,
    expand_series,
    functional_equation_residual,
    join_m,
    make_form,
    weyl_asymptotic,
)


def series_dict(d, bc, nu_max):
    return dict(expand_series(domain_m(d, bc), nu_max).terms)


class TestAtomicForms:
    def test_s0_series(self):
        # S^0 = two points: m_0 = 1, m_1 = 1
        assert series_dict(parse_domain("S0"), DIRICHLET, 5) == {0.0: 1, 1.0: 1}

    def test_t0_dirichlet(self):
        assert series_dict(parse_domain("T0"), DIRICHLET, 5) == {1.0: 1}

    def test_t0_neumann(self):
        assert series_dict(parse_domain("T0"), NEUMANN, 5) == {0.0: 1}

    def test_arc_dirichlet(self):
        # Arc(phi): degrees k pi / phi, k = 1, 2, ...
        got = series_dict(parse_domain("Arc(pi/2)"), DIRICHLET, 9)
        assert got == {2.0: 1, 4.0: 1, 6.0: 1, 8.0: 1}

    def test_arc_irrational_angle(self):
        phi = 1.0
        got = series_dict(parse_domain("Arc(1.0)"), DIRICHLET, 10)
        assert got == {math.pi: 1, 2 * math.pi: 1, 3 * math.pi: 1}

    def test_circle_spectrum(self):
        # Sphere(2) = full circle: m_0 = 1, m_nu = 2
        got = series_dict(parse_domain("Sphere(2)"), DIRICHLET, 4)
        assert got == {0.0: 1, 1.0: 2, 2.0: 2, 3.0: 2, 4.0: 2}

    def test_two_sphere_multiplicities(self):
        # Sphere(3): m_nu = 2 nu + 1
        got = series_dict(parse_domain("Sphere(3)"), DIRICHLET, 6)
        assert got == {float(nu): 2 * nu + 1 for nu in range(7)}

    def test_octant_spectrum(self):
        got = series_dict(parse_domain("T(3)"), DIRICHLET, 9)
        assert got == {3.0: 1, 5.0: 2, 7.0: 3, 9.0: 4}

    def test_half_sphere_dirichlet(self):
        # HalfSphere(3): degrees 1, 2, 3, ... with multiplicity nu
        got = series_dict(parse_domain("HalfSphere(3)"), DIRICHLET, 5)
        assert got == {1.0: 1, 2.0: 2, 3.0: 3, 4.0: 4, 5.0: 5}

    def test_unsupported_domain(self):
        with pytest.raises(UnsupportedDomain):
            domain_m(parse_domain("Cap(theta=1.0)"), DIRICHLET)


class TestMultiplicityFormulas:
    def test_t_n_binomial(self):
        # T(n) Dirichlet: m = C(n + k - 3, k - 1) at nu = n + 2(k - 1)
        for n in range(2, 9):
            got = series_dict(parse_domain(f"T({n})"), DIRICHLET, 30)
            for k in range(1, 15):
                nu = float(n + 2 * (k - 1))
                if nu > 30:
                    break
                assert got[nu] == math.comb(n + k - 3, k - 1), (n, k)

    def test_sphere_harmonic_polynomials(self):
        # dim of degree-nu harmonics in n variables:
        # C(nu + n - 1, nu) - C(nu + n - 3, nu - 2)
        for n in (*range(2, 9), 1000):
            got = series_dict(parse_domain(f"Sphere({n})"), DIRICHLET, 30)
            for nu in range(31):
                expect = math.comb(nu + n - 1, nu) - (
                    math.comb(nu + n - 3, nu - 2) if nu >= 2 else 0
                )
                assert got[float(nu)] == expect, (n, nu)


_CATALOG = [
    ("S0", DIRICHLET),
    ("T0", DIRICHLET),
    ("T0", NEUMANN),
    ("Arc(pi/2)", DIRICHLET),
    ("Arc(2*pi/3)", DIRICHLET),
    ("Arc(1.0)", DIRICHLET),
    ("Sphere(2)", DIRICHLET),
    ("Sphere(3)", DIRICHLET),
    ("T(2)", DIRICHLET),
    ("T(3)", DIRICHLET),
    ("T(3)", NEUMANN),
    ("HalfSphere(3)", DIRICHLET),
    ("HalfSphere(4)", DIRICHLET),
]


def convolve(terms1, terms2, nu_max):
    """Convolution oracle for M1 * M2 / (1 - z^2)."""
    out: dict[float, int] = {}
    for nu1, m1 in terms1:
        for nu2, m2 in terms2:
            j = 0
            while nu1 + nu2 + 2 * j <= nu_max + 1e-9:
                nu = nu1 + nu2 + 2 * j
                for key in out:
                    if abs(key - nu) <= 1e-9:
                        nu = key
                        break
                out[nu] = out.get(nu, 0) + m1 * m2
                j += 1
    return {k: v for k, v in out.items() if v != 0}


class TestProductRule:
    def test_random_pairs_match_convolution(self):
        rng = random.Random(1729)
        nu_max = 25.0
        for _ in range(20):
            (e1, bc1), (e2, bc2) = rng.sample(_CATALOG, 2)
            if bc1 != bc2:
                continue  # join needs one boundary condition
            d1, d2 = parse_domain(e1), parse_domain(e2)
            joint = expand_series(join_m(domain_m(d1, bc1), domain_m(d2, bc1)), nu_max)
            oracle = convolve(
                expand_series(domain_m(d1, bc1), nu_max).terms,
                expand_series(domain_m(d2, bc1), nu_max).terms,
                nu_max,
            )
            got = dict(joint.terms)
            assert len(got) == len(oracle)
            for nu, m in oracle.items():
                close = [v for k, v in got.items() if abs(k - nu) <= 1e-9]
                assert close == [m], (e1, e2, nu)

    def test_nu1_additivity(self):
        for e1, bc1 in _CATALOG:
            for e2, bc2 in _CATALOG:
                if bc1 != bc2:
                    continue
                m1 = domain_m(parse_domain(e1), bc1)
                m2 = domain_m(parse_domain(e2), bc1)
                assert join_m(m1, m2).first_exponent() == pytest.approx(
                    m1.first_exponent() + m2.first_exponent(), abs=1e-12
                )

    def test_join_of_atoms_builds_sphere(self):
        # S0 * S0 * S0 must reproduce Sphere(3) exactly
        s = parse_domain("S0 * S0 * S0")
        assert series_dict(s, DIRICHLET, 10) == series_dict(
            parse_domain("Sphere(3)"), DIRICHLET, 10
        )

    def test_pole_order_adds(self):
        m1 = domain_m(parse_domain("Sphere(3)"), DIRICHLET)
        m2 = domain_m(parse_domain("T(2)"), DIRICHLET)
        assert join_m(m1, m2).pole_order == m1.pole_order + m2.pole_order + 1


    def test_flattened_stops_at_limit(self):
        series = SpectralSeries(((0.0, 1), (1.0, 10**30), (2.0, 5)), 2.0)
        assert series.flattened(3) == [0.0, 1.0, 1.0]
        assert series.flattened(1) == [0.0]
        assert SpectralSeries(((0.0, 1), (1.0, 2)), 1.0).flattened() == [0.0, 1.0, 1.0]


class TestAsymptotics:
    def test_sphere_coefficients(self):
        co = asymptotics_from_form(domain_m(parse_domain("Sphere(3)"), DIRICHLET))
        assert co.pole_order == 2
        assert co.c0 == pytest.approx(2.0, rel=1e-14)
        assert co.gamma == pytest.approx(0.0, abs=1e-14)
        assert co.c1 == pytest.approx(-1.0, rel=1e-14)

    def test_octant_coefficients(self):
        co = asymptotics_from_form(domain_m(parse_domain("T(3)"), DIRICHLET))
        assert co.c0 == pytest.approx(0.25, rel=1e-14)
        assert co.gamma == pytest.approx(3.0, rel=1e-14)

    def test_b2_against_numeric_richardson(self):
        for expr in ("T(3)", "T(4)", "Sphere(3)", "HalfSphere(4)"):
            m = domain_m(parse_domain(expr), DIRICHLET)
            co = asymptotics_from_form(m)
            assert b2_numeric_check(m) == pytest.approx(co.b2, abs=1e-6), expr

    def test_form_eval_matches_series(self):
        m = domain_m(parse_domain("T(3)"), DIRICHLET)
        z = 0.4
        series = expand_series(m, 80.0)
        tail_free = sum(mult * z**nu for nu, mult in series.terms)
        assert m.eval(z) == pytest.approx(tail_free, rel=1e-12)


class TestCounting:
    def test_spot_values(self):
        series = expand_series(domain_m(parse_domain("T(3)"), DIRICHLET), 40.0)
        assert counting_function(series, 12.0) == 15
        assert counting_function(series, 2.9) == 0
        assert counting_function(series, 3.0) == 1

    def test_cutoff_guard(self):
        series = expand_series(domain_m(parse_domain("T(3)"), DIRICHLET), 10.0)
        with pytest.raises(CutoffExceeded):
            counting_function(series, 11.0)

    def test_weyl_midpoints_within_one_percent(self):
        m = domain_m(parse_domain("T(3)"), DIRICHLET)
        series = expand_series(m, 40.0)
        co = asymptotics_from_form(m)
        degrees = series.flattened()
        mids = sorted({0.5 * (a + b) for a, b in zip(degrees, degrees[1:]) if a != b})
        for nu in mids:
            if not 12.0 <= nu <= 30.0:
                continue
            w = counting_function(series, nu)
            assert abs(w - weyl_asymptotic(co, nu)) / w < 0.01, nu

    def test_weyl_spot_value(self):
        co = asymptotics_from_form(domain_m(parse_domain("T(3)"), DIRICHLET))
        assert weyl_asymptotic(co, 12.0) == pytest.approx(15.04, abs=0.005)


class TestFunctionalEquations:
    def test_catalog_residuals(self):
        for kind in ("T", "Sphere", "HalfSphere"):
            for n in range(2, 6):
                d = parse_domain(f"{kind}({n})")
                m = domain_m(d, DIRICHLET)
                gamma = scaling_inputs(catalog_geometry(d, DIRICHLET)).gamma
                for z in (0.3, 0.5, 0.7):
                    assert functional_equation_residual(m, n, gamma, z) < 1e-12

    def test_dirichlet_neumann_pairing(self):
        for n in range(2, 6):
            d = parse_domain(f"T({n})")
            m_d = domain_m(d, DIRICHLET)
            m_n = domain_m(d, NEUMANN)
            for z in (0.3, 0.5, 0.7):
                assert dirichlet_neumann_pairing_residual(m_d, m_n, n, z) < 1e-12

    def test_pairing_fails_for_wrong_partner(self):
        d = parse_domain("T(3)")
        m_d = domain_m(d, DIRICHLET)
        assert dirichlet_neumann_pairing_residual(m_d, m_d, 3, 0.5) > 1e-3
