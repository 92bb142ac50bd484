"""Property tests for the exact polynomial core: division, product, gcd and
the canonical form of rational functions."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, poly_gcd  # noqa: E402

scalars = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
polys = st.lists(scalars, max_size=9).map(lambda cs: Polynomial(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero)

bounded = settings(max_examples=80, deadline=None)


def reference_product(a: Polynomial, b: Polynomial) -> tuple[Fraction, ...]:
    """Schoolbook convolution with one Fraction multiply-add per term pair."""
    if a.is_zero or b.is_zero:
        return ()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def assert_canonical(p: Polynomial) -> None:
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@bounded
@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert_canonical(q)
    assert_canonical(r)


@bounded
@given(polys, polys, scalars)
def test_mul_matches_fraction_convolution(a, b, c):
    product = a * b
    assert product.coeffs == reference_product(a, b)
    assert_canonical(product)
    assert_canonical(a * c)
    assert_canonical(a * 0)
    assert (a * c).coeffs == reference_product(a, Polynomial((c,)))


@bounded
@given(nonzero_polys, polys, polys)
def test_gcd_is_monic_and_divides_both(common, f, h):
    a, b = common * f, common * h
    g = poly_gcd(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.leading == 1
    assert (a % g).is_zero and (b % g).is_zero
    assert (g % common).is_zero


@bounded
@given(polys, nonzero_polys, nonzero_polys)
def test_rational_function_is_canonical(p, q, g):
    r = RationalFunction(p, q)
    assert r.den.leading == 1
    assert poly_gcd(r.num, r.den) == ONE
    assert r.num * q == p * r.den
    assert RationalFunction(p * g, q * g) == r
