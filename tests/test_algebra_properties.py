"""Property tests for the exact polynomial core: division, product, gcd, the
canonical form of rational functions and rational root finding."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, poly_gcd, rational_roots  # noqa: E402

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


def factored_polys(max_numerator: int):
    """(p, roots, residual) where p is built from known factors.

    p is a rational content times x^z, times (den*x - num)^k for a few random
    linear factors (k = 1 or 2), times a few quadratics with no rational
    root.  The roots are 0 (z times) and num/den (k times each); the residual
    is what is left once each (x - num/den) is divided out, so each linear
    factor leaves its den^k behind.
    """
    linears = st.lists(
        st.tuples(st.integers(-max_numerator, max_numerator), st.integers(1, 6), st.sampled_from([1, 1, 2])),
        max_size=3,
    )
    quadratics = st.lists(
        st.tuples(st.integers(1, 4), st.integers(-6, 6), st.integers(-12, 12)).filter(
            lambda abc: not is_square(abc[1] ** 2 - 4 * abc[0] * abc[2])
        ),
        max_size=2,
    )
    contents = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 12))

    def build(zeros, lins, quads, content):
        p = Polynomial.monomial(content, zeros)
        roots = [Fraction(0)] * zeros
        residual = Polynomial.constant(content)
        for num, den, mult in lins:
            p = p * Polynomial.of(-num, den) ** mult
            roots += [Fraction(num, den)] * mult
            residual = residual * den**mult
        for a, b, c in quads:
            q = Polynomial.of(c, b, a)
            p, residual = p * q, residual * q
        return p, sorted(roots), residual

    return st.builds(build, st.integers(0, 2), linears, quadratics, contents)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def assert_roots_found(case):
    p, roots, residual = case
    found, rest = rational_roots(p)
    assert sorted(found) == roots
    assert rest == residual


@bounded
@given(factored_polys(9))
def test_rational_roots_match_construction(case):
    assert_roots_found(case)


@settings(max_examples=80, deadline=1000)
@given(factored_polys(10**15))
def test_rational_roots_of_large_numerators(case):
    """Root finding by lifting costs bits, not magnitude: 18-digit poles are cheap."""
    assert_roots_found(case)
