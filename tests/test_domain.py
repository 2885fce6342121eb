import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.domain import (
    AtomS0,
    AtomT0,
    Join,
    Named,
    ambient_dim,
    capabilities,
    expand_named,
    factors,
    join,
    parse_domain,
    print_domain,
)
from conespec.errors import DimensionError, ParseError


class TestParse:
    def test_atoms(self):
        assert parse_domain("S0") == AtomS0()
        assert parse_domain("T0") == AtomT0()

    def test_named_positional_and_keyword(self):
        assert parse_domain("Sphere(3)") == Named("Sphere", n=3)
        assert parse_domain("T(n=4)") == Named("T", n=4)
        assert parse_domain("RegularT(3, 0.5)") == parse_domain("RegularT(n=3, rho=0.5)")

    def test_pi_arithmetic(self):
        assert parse_domain("Arc(pi)") == Named("Arc", angle=math.pi)
        assert parse_domain("Arc(pi/2)") == Named("Arc", angle=math.pi / 2)
        assert parse_domain("Arc(2*pi/3)") == Named("Arc", angle=2 * math.pi / 3)
        assert parse_domain("Cap(theta=0.5)") == Named("Cap", angle=0.5)

    def test_join_is_flat(self):
        d = parse_domain("S0 * T0 * S0")
        assert d == Join((AtomS0(), AtomT0(), AtomS0()))
        assert parse_domain("S0 * (T0 * S0)") == d
        assert factors(d) == [AtomS0(), AtomT0(), AtomS0()]
        with pytest.raises(ValueError):
            Join((d, AtomS0()))

    def test_parens(self):
        assert parse_domain("(S0)") == AtomS0()

    def test_parse_error_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_domain("S0 * ?")
        assert exc.value.offset == 5

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_domain("Sphere(3")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_domain("S0 S0")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_domain("Cube(3)")

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            parse_domain("HalfSphere(1)")
        with pytest.raises(DimensionError):
            parse_domain("Arc(7)")  # > 2 pi
        with pytest.raises(DimensionError):
            parse_domain("RegularT(3, 1.5)")
        with pytest.raises(DimensionError):
            parse_domain("Sphere(2.5)")
        with pytest.raises(DimensionError):
            parse_domain("T(1e9)")
        with pytest.raises(DimensionError):
            parse_domain("Sphere(6000) * Sphere(6000)")

    def test_nesting_depth(self):
        assert parse_domain("(" * 100 + "S0" + ")" * 100) == AtomS0()
        with pytest.raises(ParseError):
            parse_domain("(" * 101 + "S0" + ")" * 101)

    def test_round_trip_print(self):
        for text in (
            "S0",
            "T0 * S0",
            "Sphere(3) * T(2)",
            "Arc(angle=1.5) * T0",
            "RegularT(3, rho=0.5)",
            "Cap(theta=0.7)",
            "Sector(theta=0.9, phi=1.1)",
        ):
            d = parse_domain(text)
            assert parse_domain(print_domain(d)) == d


_atoms = st.sampled_from(["S0", "T0", "Sphere(2)", "T(3)", "HalfSphere(3)", "Arc(pi/3)"])


@settings(max_examples=60, deadline=None)
@given(st.lists(_atoms, min_size=1, max_size=4))
def test_join_ambient_additivity(parts):
    d = parse_domain(" * ".join(parts))
    assert ambient_dim(d) == sum(ambient_dim(parse_domain(p)) for p in parts)
    assert parse_domain(print_domain(d)) == d


@settings(max_examples=60, deadline=None)
@given(st.lists(_atoms, min_size=1, max_size=4))
def test_expand_idempotent(parts):
    d = parse_domain(" * ".join(parts))
    once = expand_named(d)
    assert expand_named(once) == once
    assert ambient_dim(once) == ambient_dim(d)


class TestExpand:
    def test_sphere_to_atoms(self):
        assert expand_named(parse_domain("Sphere(3)")) == join(*[AtomS0()] * 3)

    def test_t_to_atoms(self):
        assert expand_named(parse_domain("T(4)")) == join(*[AtomT0()] * 4)

    def test_half_sphere(self):
        assert expand_named(parse_domain("HalfSphere(3)")) == join(
            AtomS0(), AtomS0(), AtomT0()
        )

    def test_regular_t2_is_arc(self):
        d = expand_named(parse_domain("RegularT(2, 0.5)"))
        assert d == Named("Arc", angle=math.acos(-0.5))

    def test_equatorial_sector(self):
        d = expand_named(parse_domain("Sector(theta=pi/2, phi=1.0)"))
        assert d == join(Named("Arc", angle=1.0), AtomT0())

    def test_equatorial_cap_is_half_sphere(self):
        d = expand_named(parse_domain("Cap(theta=pi/2)"))
        assert d == join(AtomS0(), AtomS0(), AtomT0())

    def test_generic_cap_irreducible(self):
        d = parse_domain("Cap(theta=pi/3)")
        assert expand_named(d) == d


class TestCapabilities:
    def test_exact_catalog(self):
        for text in ("Sphere(4)", "T(3)", "HalfSphere(5)", "Arc(1.0) * T0", "RegularT(2, 0.3)"):
            assert capabilities(parse_domain(text)).spectrum_exact, text

    def test_inexact_catalog(self):
        for text in ("Cap(theta=1.0)", "RegularT(3, 0.5)", "Sector(theta=1.0, phi=1.0)"):
            assert not capabilities(parse_domain(text)).spectrum_exact, text

    def test_dims(self):
        caps = capabilities(parse_domain("Sphere(2) * T(3)"))
        assert caps.ambient_dim == 5

    def test_factors(self):
        d = parse_domain("S0 * T0 * Arc(1.0)")
        assert factors(d) == [AtomS0(), AtomT0(), Named("Arc", angle=1.0)]
