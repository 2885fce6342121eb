import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.domain import DIRICHLET, NEUMANN, AtomS0, AtomT0, Named, join, parse_domain
from conespec.errors import NotPositiveDefinite, UnsupportedDomain
from conespec.geometry import (
    cap_geometry,
    catalog_geometry,
    general_t_size_fraction,
    heat_coeffs,
    regular_t_boundary_size,
    regular_t_recursion_residual,
    regular_t_size,
    regular_t_small_rho_residual,
    scaling_inputs,
    size_fraction,
    sphere_size,
    weyl_coeffs_geometric,
)
from conespec.mfun import asymptotics_from_form, domain_m


class TestSphereSize:
    def test_known_values(self):
        assert sphere_size(1) == pytest.approx(2.0)
        assert sphere_size(2) == pytest.approx(2 * math.pi)
        assert sphere_size(3) == pytest.approx(4 * math.pi)
        assert sphere_size(4) == pytest.approx(2 * math.pi**2)


class TestRegularTSize:
    def test_half_rho_closed_form(self):
        # |T_(1/2)^{n-1}| = |S^{n-1}| / (n + 1)
        for n in range(2, 7):
            exact = sphere_size(n) / (n + 1)
            assert regular_t_size(n, 0.5) == pytest.approx(exact, rel=1e-8), n

    def test_rho_zero_is_orthant(self):
        for n in range(2, 6):
            assert regular_t_size(n, 0.0) == pytest.approx(
                sphere_size(n) / 2**n, rel=1e-10
            )

    def test_spherical_triangle_closed_form(self):
        # |T_(rho)^2| = 3 arccos(-rho) - pi
        for i in range(1, 10):
            rho = i / 10.0
            exact = 3.0 * math.acos(-rho) - math.pi
            assert regular_t_size(3, rho) == pytest.approx(exact, abs=1e-9)

    def test_monotone_in_rho(self):
        for n in (3, 4, 5):
            values = [regular_t_size(n, i / 10.0) for i in range(10)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_against_mpmath(self):
        # (6, 0.9455) sits in a narrow window where Gauss-Hermite orders
        # 256 and 512 agreed to 3e-11 while both were 7e-9 off
        with mpmath.workdps(30):
            for n, rho in ((3, 0.3), (4, 0.8), (6, 0.9455), (5, 0.999)):
                c = mpmath.sqrt(mpmath.mpf(rho) / (1 - mpmath.mpf(rho)))
                fraction = mpmath.quad(
                    lambda u: mpmath.exp(-u * u) * mpmath.erfc(c * u) ** n,
                    [-mpmath.inf, -1 / c, 0, 1 / c, mpmath.inf],
                ) / mpmath.sqrt(mpmath.pi)
                exact = float(fraction * mpmath.mpf(sphere_size(n)) / 2**n)
                assert regular_t_size(n, rho) == pytest.approx(exact, rel=1e-12), (n, rho)

    def test_rho_to_one_limit(self):
        # the domain swells to a hemisphere as rho -> 1
        # (closed form at n = 3: 3 arccos(-1) - pi = 2 pi)
        assert regular_t_size(3, 0.99) == pytest.approx(
            sphere_size(3) / 2, rel=0.1
        )
        assert regular_t_size(3, 0.99) == pytest.approx(
            3 * math.acos(-0.99) - math.pi, rel=1e-8
        )

    def test_recursion_ode(self):
        for n in (3, 4, 5):
            for rho in (0.2, 0.4):
                assert regular_t_recursion_residual(n, rho) < 1e-5

    def test_small_rho_order(self):
        # residual of the quadratic small-rho expansion is O(rho^3)
        r2 = regular_t_small_rho_residual(4, 1e-2)
        r3 = regular_t_small_rho_residual(4, 1e-3)
        assert r2 / r3 > 100.0

    def test_boundary_spot_value(self):
        # boundary of the spherical triangle: 3 edges of length arccos(...)
        # via the substitution rule |dT_(rho)^2| = 3 |T_(rho')^1| with
        # rho' = rho/(1+rho); |T_(rho')^1| = arccos(-rho')
        rho = 0.5
        expect = 3.0 * math.acos(-rho / (1 + rho))
        assert regular_t_boundary_size(3, rho) == pytest.approx(expect, rel=1e-9)


class TestGeneralTSize:
    def test_diagonal_matches_regular(self):
        for n in (2, 3):
            rho = 0.3
            mat = [[1.0 if i == j else rho for j in range(n)] for i in range(n)]
            frac = general_t_size_fraction(mat)
            assert frac * sphere_size(n) == pytest.approx(
                regular_t_size(n, rho), rel=1e-9
            )

    def test_orthant_two(self):
        # P(X1>0, X2>0) = arccos(-rho)/(2 pi)
        for rho in (-0.5, 0.0, 0.6):
            mat = [[1.0, rho], [rho, 1.0]]
            assert general_t_size_fraction(mat) == pytest.approx(
                math.acos(-rho) / (2 * math.pi), rel=1e-12
            )

    def test_plackett_dimension_four(self):
        rho = 0.25
        mat = [[1.0 if i == j else rho for j in range(4)] for i in range(4)]
        frac = general_t_size_fraction(mat)
        expect = regular_t_size(4, rho) / sphere_size(4)
        assert frac == pytest.approx(expect, rel=1e-12)

    def test_equicorrelated_matches_regular(self):
        for n in (4, 5, 6, 7):
            for rho in (0.1, 0.5, 0.9):
                mat = np.full((n, n), rho)
                np.fill_diagonal(mat, 1.0)
                expect = regular_t_size(n, rho) / sphere_size(n)
                assert general_t_size_fraction(mat) == pytest.approx(
                    expect, rel=1e-12
                ), (n, rho)

    @staticmethod
    def _closed_form(block):
        # orthant probabilities of one, two and three coordinates
        k = len(block)
        if k == 1:
            return 0.5
        if k == 2:
            return math.acos(-block[0][1]) / (2 * math.pi)
        angles = math.acos(-block[0][1]) + math.acos(-block[0][2]) + math.acos(-block[1][2])
        return (angles - math.pi) / (4 * math.pi)

    def test_block_diagonal_is_product(self):
        blocks = (
            [[1.0, -0.4], [-0.4, 1.0]],
            [[1.0, 0.7, -0.3], [0.7, 1.0, 0.2], [-0.3, 0.2, 1.0]],
            [[1.0]],
            [[1.0, -0.6, -0.2], [-0.6, 1.0, 0.5], [-0.2, 0.5, 1.0]],
            [[1.0, 0.85], [0.85, 1.0]],
        )
        rng = np.random.default_rng(11)
        for chosen in ((0, 0), (1, 2), (0, 1), (1, 3), (1, 4, 0), (3, 1, 2)):
            parts = [blocks[k] for k in chosen]
            n = sum(len(b) for b in parts)
            mat = np.eye(n)
            at = 0
            for b in parts:
                mat[at : at + len(b), at : at + len(b)] = b
                at += len(b)
            perm = rng.permutation(n)
            expect = math.prod(self._closed_form(b) for b in parts)
            got = general_t_size_fraction(mat[np.ix_(perm, perm)])
            assert got == pytest.approx(expect, rel=1e-12), chosen

    def test_ill_conditioned_block(self):
        # smallest eigenvalue 3.8e-4: the nodes graded toward t = 1 keep
        # 1e-12; an ungraded 40-node rule in theta is off by 3e-6
        ill = [[1.0, 0.1741, -0.1672], [0.1741, 1.0, -0.9996], [-0.1672, -0.9996, 1.0]]
        mat = np.eye(5)
        mat[:3, :3] = ill
        mat[3:, 3:] = [[1.0, 0.5], [0.5, 1.0]]
        expect = self._closed_form(ill) * (math.acos(-0.5) / (2 * math.pi))
        assert general_t_size_fraction(mat) == pytest.approx(expect, rel=1e-10)

    def test_deterministic(self):
        mat = np.array(
            [
                [1.0, 0.3, -0.2, 0.1, 0.4],
                [0.3, 1.0, 0.25, -0.1, 0.0],
                [-0.2, 0.25, 1.0, 0.35, 0.2],
                [0.1, -0.1, 0.35, 1.0, -0.3],
                [0.4, 0.0, 0.2, -0.3, 1.0],
            ]
        )
        assert general_t_size_fraction(mat) == general_t_size_fraction(mat)

    def test_dimension_eight_unsupported(self):
        with pytest.raises(UnsupportedDomain):
            general_t_size_fraction(np.eye(8))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            general_t_size_fraction([[1.0, 2.0], [2.0, 1.0]])


class TestCatalogGeometry:
    def test_octant(self):
        g = catalog_geometry(parse_domain("T(3)"), DIRICHLET)
        assert g.area == pytest.approx(math.pi / 2)
        assert g.boundary == pytest.approx(3 * math.pi / 2)

    def test_sphere_has_no_boundary(self):
        g = catalog_geometry(parse_domain("Sphere(3)"), DIRICHLET)
        assert g.area == pytest.approx(4 * math.pi)
        assert g.boundary == 0.0
        assert g.corners == ()

    def test_cap(self):
        theta = math.pi / 3
        g = catalog_geometry(parse_domain(f"Cap(theta={theta!r})"), DIRICHLET)
        assert g.area == pytest.approx(2 * math.pi * (1 - math.cos(theta)))
        assert g.boundary == pytest.approx(2 * math.pi * math.sin(theta))

    def test_sector(self):
        theta, phi = 1.1, 0.8
        g = catalog_geometry(
            parse_domain(f"Sector(theta={theta!r}, phi={phi!r})"), DIRICHLET
        )
        assert g.area == pytest.approx(phi * (1 - math.cos(theta)))
        assert g.boundary == pytest.approx(phi * math.sin(theta) + 2 * theta)

    def test_regular_t3(self):
        g = catalog_geometry(parse_domain("RegularT(3, rho=0.5)"), DIRICHLET)
        assert g.area == pytest.approx(3 * math.acos(-0.5) - math.pi, rel=1e-9)

    def test_size_fraction_multiplicative(self):
        d1, d2 = parse_domain("T(2)"), parse_domain("Sphere(2)")
        d12 = parse_domain("T(2) * Sphere(2)")
        assert size_fraction(d12) == pytest.approx(
            size_fraction(d1) * size_fraction(d2), rel=1e-12
        )

    def test_cap_geometry_general_n(self):
        g = cap_geometry(math.pi / 2, 4, DIRICHLET)
        assert g.area == pytest.approx(sphere_size(4) / 2, rel=1e-10)
        assert g.boundary == pytest.approx(sphere_size(3), rel=1e-12)

    def test_octant_corner_total(self):
        # each pair of walls of T^{n-1} meets at a right angle along a
        # copy of T^{n-3}: total measure C(n,2) |S^{n-2}| / 2^{n-2}
        for n in (3, 4, 5):
            g = catalog_geometry(parse_domain(f"T({n})"), DIRICHLET)
            total = sum(measure for angle, measure in g.corners)
            expect = math.comb(n, 2) * sphere_size(n - 2) / 2 ** (n - 2)
            assert total == pytest.approx(expect, rel=1e-12), n
            assert all(angle == pytest.approx(math.pi / 2) for angle, _ in g.corners)


class TestHeatCoeffs:
    def test_a0_a1_signs(self):
        d = parse_domain("T(3)")
        hd = heat_coeffs(catalog_geometry(d, DIRICHLET))
        hn = heat_coeffs(catalog_geometry(d, NEUMANN))
        assert hd.a0 == hn.a0 == pytest.approx(math.pi / 2)
        assert hd.a1 == pytest.approx(-0.5 * math.sqrt(math.pi) * 1.5 * math.pi)
        assert hn.a1 == -hd.a1

    def test_sphere_a2_is_curvature_only(self):
        g = catalog_geometry(parse_domain("Sphere(3)"), DIRICHLET)
        assert heat_coeffs(g).a2 == pytest.approx(2 * 1 * 4 * math.pi / 6)


class TestGeometryFormConsistency:
    EXACT = (
        "T(2)",
        "T(3)",
        "T(4)",
        "Sphere(2)",
        "Sphere(3)",
        "Sphere(4)",
        "HalfSphere(3)",
        "HalfSphere(4)",
        "Arc(pi/3)",
        "Arc(pi/3) * T0",
        "Sphere(2) * T(2)",
    )

    def test_c0_gamma_b0_b1(self):
        for expr in self.EXACT:
            d = parse_domain(expr)
            g = catalog_geometry(d, DIRICHLET)
            si = scaling_inputs(g)
            co = asymptotics_from_form(domain_m(d, DIRICHLET))
            assert si.c0 == pytest.approx(co.c0, abs=1e-10), expr
            assert si.gamma == pytest.approx(co.gamma, abs=1e-10), expr
            b0, b1, _ = weyl_coeffs_geometric(g)
            assert b0 == pytest.approx(co.b0, abs=1e-10), expr
            assert b1 == pytest.approx(co.b1, abs=1e-10), expr

    def test_b2_with_corner_rule(self):
        for n in (3, 4, 5, 6):
            d = parse_domain(f"T({n})")
            g = catalog_geometry(d, DIRICHLET)
            co = asymptotics_from_form(domain_m(d, DIRICHLET))
            _, _, b2 = weyl_coeffs_geometric(g)
            assert b2 == pytest.approx(co.b2, abs=1e-9), n

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(st.sampled_from([AtomS0(), AtomT0()]), max_size=5),
        st.lists(st.floats(0.1, 2 * math.pi - 0.1), max_size=3),
        st.sampled_from([DIRICHLET, NEUMANN]),
        st.randoms(use_true_random=False),
    )
    def test_b2_of_atom_joins(self, atoms, angles, bc, rng):
        # the product rule's a2, corners included, against the spectral b2
        parts = atoms + [Named("Arc", angle=phi) for phi in angles]
        rng.shuffle(parts)
        if len(atoms) + 2 * len(angles) < 3:
            return
        d = join(*parts)
        g = catalog_geometry(d, bc)
        co = asymptotics_from_form(domain_m(d, bc))
        _, _, b2 = weyl_coeffs_geometric(g)
        assert b2 == pytest.approx(co.b2, rel=1e-10), str(d)

    def test_regular_t_at_rho_zero_is_t(self):
        for n in range(3, 8):
            a2 = heat_coeffs(catalog_geometry(parse_domain(f"RegularT({n}, rho=0)"), DIRICHLET)).a2
            want = heat_coeffs(catalog_geometry(parse_domain(f"T({n})"), DIRICHLET)).a2
            assert a2 == pytest.approx(want, rel=1e-12), n

    def test_regular_t_faces_match_the_integral(self):
        # closed-form facets and codim-2 faces against the erfc integral
        for n in range(3, 8):
            for rho in (0.1, 0.5, 0.9):
                g = catalog_geometry(parse_domain(f"RegularT({n}, rho={rho})"), DIRICHLET)
                assert g.boundary == pytest.approx(regular_t_boundary_size(n, rho), rel=1e-12)
                ((angle, measure),) = g.corners
                face = math.comb(n, 2) * regular_t_size(n - 2, rho / (1 + 2 * rho))
                assert angle == math.acos(-rho)
                assert measure == pytest.approx(face, rel=1e-12), (n, rho)

    @pytest.mark.parametrize(
        "near, limit",
        [
            ("Cap(theta={}) * T0", "S0 * S0 * T0 * T0"),
            ("Sector(theta={}, phi=pi/3) * S0", "Arc(pi/3) * T0 * S0"),
        ],
    )
    def test_a2_continuous_at_the_equator(self, near, limit):
        want = heat_coeffs(catalog_geometry(parse_domain(limit), DIRICHLET)).a2
        for theta in (math.pi / 2 - 1e-7, math.pi / 2 + 1e-7):
            d = parse_domain(near.format(repr(theta)))
            a2 = heat_coeffs(catalog_geometry(d, DIRICHLET)).a2
            assert a2 == pytest.approx(want, rel=1e-6), near

    def test_neumann_gamma_flips_sign(self):
        d = parse_domain("T(3)")
        gd = scaling_inputs(catalog_geometry(d, DIRICHLET)).gamma
        gn = scaling_inputs(catalog_geometry(d, NEUMANN)).gamma
        assert gn == pytest.approx(-gd)
