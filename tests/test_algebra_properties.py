"""Property tests for the exact polynomial core: division, product, gcd, the
canonical form of rational functions and rational root finding."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly.algebra import (  # noqa: E402
    ONE,
    ZERO,
    Polynomial,
    RationalFunction,
    linear,
    nth_derivative,
    partial_fractions,
    poly_gcd,
    rational_roots,
)

from helpers import recombined  # noqa: E402

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


@bounded
@given(
    polys,
    st.dictionaries(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)), scalars.filter(bool), max_size=4),
)
def test_partial_fractions_round_trip(quotient, poles):
    r = RationalFunction(quotient)
    for root, residue in poles.items():
        r = r + RationalFunction(Polynomial.constant(residue), linear(root))
    parts = partial_fractions(r)
    assert parts.quotient == quotient
    assert parts.terms == tuple(sorted(poles.items()))
    assert recombined(parts) == r


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


# -- wide coefficients, each operation against a Fraction reference ----------

wide_scalars = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 10**6))
wide_polys = st.lists(wide_scalars, max_size=7).map(lambda cs: Polynomial(tuple(cs)))
wide_nonzero_polys = wide_polys.filter(lambda p: not p.is_zero)
#: Divisors whose leading coefficient is a large non-unit, over a large denominator.
wide_divisors = st.builds(
    lambda cs, lead: Polynomial(tuple(cs) + (lead,)),
    st.lists(wide_scalars, max_size=5),
    st.builds(Fraction, st.integers(2**100, 2**200) | st.integers(-(2**200), -(2**100)), st.integers(1, 10**6)),
)
small_rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


def stripped(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_sum(a, b) -> tuple[Fraction, ...]:
    width = max(len(a), len(b))
    return stripped(x + y for x, y in zip(list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))))


def reference_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Schoolbook long division with one Fraction multiply-subtract per term."""
    remainder = list(a)
    if len(a) < len(b):
        return (), stripped(remainder)
    quotient = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(quotient))):
        q = quotient[k] = remainder[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            remainder[k + j] -= q * c
    return stripped(quotient), stripped(remainder[: len(b) - 1])


def reference_gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd by Euclid over the rationals."""
    a, b = stripped(a), stripped(b)
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


def reference_eval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@bounded
@given(wide_polys, wide_nonzero_polys | wide_divisors)
def test_wide_divmod_matches_fraction_division(a, b):
    q, r = divmod(a, b)
    assert (q.coeffs, r.coeffs) == reference_divmod(a.coeffs, b.coeffs)
    assert_canonical(q)
    assert_canonical(r)


@bounded
@given(wide_polys, wide_divisors)
def test_wide_exact_division_by_large_leading_coefficient(a, b):
    q, r = divmod(a * b, b)
    assert q == a and r.is_zero


@bounded
@given(wide_nonzero_polys, wide_polys, wide_polys)
def test_wide_gcd_matches_fraction_euclid(common, f, h):
    a, b = common * f, common * h
    g = poly_gcd(a, b)
    assert g.coeffs == reference_gcd(a.coeffs, b.coeffs)
    assert_canonical(g)


@bounded
@given(wide_polys, wide_polys)
def test_wide_gcd_of_unrelated_pairs(a, b):
    assert poly_gcd(a, b).coeffs == reference_gcd(a.coeffs, b.coeffs)


@bounded
@given(wide_polys, small_rationals | wide_scalars)
def test_wide_evaluation_matches_horner(a, x):
    value = a(x)
    assert type(value) is Fraction
    assert value == reference_eval(a.coeffs, x)
    assert a(x.numerator) == reference_eval(a.coeffs, Fraction(x.numerator))


@bounded
@given(wide_polys)
def test_wide_calculus_and_monic(a):
    diff = a.diff()
    assert diff.coeffs == stripped(k * c for k, c in enumerate(a.coeffs))[1:]
    integral = a.integral()
    assert integral.coeffs == stripped([Fraction(0)] + [c / (k + 1) for k, c in enumerate(a.coeffs)])
    assert_canonical(diff)
    assert_canonical(integral)
    monic = a.monic()
    assert monic.coeffs == tuple(c / a.coeffs[-1] for c in a.coeffs)
    assert_canonical(monic)


@bounded
@given(wide_polys, st.integers(0, 9))
def test_nth_derivative_matches_iterated_diff(a, order):
    # orders 0..9 against degrees up to 6: order 0 and orders above the degree both occur
    expected = a
    for _ in range(order):
        expected = expected.diff()
    got = nth_derivative(a, order)
    assert got == expected
    assert_canonical(got)
    assert got.is_zero == (order > a.degree)


@bounded
@given(wide_polys.filter(lambda p: p.degree < 4), wide_polys.filter(lambda p: p.degree < 3))
def test_wide_compose_matches_fraction_horner(outer, inner):
    expected: tuple[Fraction, ...] = ()
    for c in reversed(outer.coeffs):
        expected = reference_sum(reference_product(Polynomial(expected), inner), (c,))
    composed = outer.compose(inner)
    assert composed.coeffs == expected
    assert_canonical(composed)


@bounded
@given(wide_polys, wide_polys, wide_scalars)
def test_wide_sum_and_product_match_fractions(a, b, c):
    assert (a + b).coeffs == reference_sum(a.coeffs, b.coeffs)
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    assert (a - b).coeffs == reference_sum(a.coeffs, (-b).coeffs)
    assert (a * b).coeffs == reference_product(a, b)
    assert (a * c).coeffs == stripped(x * c for x in a.coeffs)
    for p in (a + b, a - b, -a, a * b, a * c):
        assert_canonical(p)


@bounded
@given(polys, polys)
def test_equality_is_coefficient_equality(p, q):
    assert (p == q) == (p.coeffs == q.coeffs)
    assert (p != q) == (p.coeffs != q.coeffs)
    if p == q:
        assert hash(p) == hash(q)


@bounded
@given(wide_polys, wide_scalars.filter(bool))
def test_equal_polynomials_built_differently_hash_alike(p, c):
    rebuilt = Polynomial(tuple(x * c for x in p.coeffs))
    assert p * c == rebuilt and hash(p * c) == hash(rebuilt)
    assert (p * c) * (1 / c) == p and hash((p * c) * (1 / c)) == hash(p)
    assert p + p == p * 2 and hash(p + p) == hash(p * 2)


def test_equal_polynomials_hash_alike():
    built = [Polynomial.of(2, 4), Polynomial.of(1, 2) * 2, Polynomial.of(Fraction(1, 3), Fraction(2, 3)) * 6]
    built += [Polynomial((Fraction(4, 2), Fraction(8, 2), Fraction(0))), Polynomial.of(1, 2) + Polynomial.of(1, 2)]
    assert len({hash(p) for p in built}) == 1
    assert all(p == built[0] for p in built)
    assert len({p: None for p in built}) == 1
    assert Polynomial.of(2, 4) != Polynomial.of(1, 2)


# -- rational-function arithmetic against the normalizing constructor --------

#: (q*x - p) for small p and q, so that two operands often share a factor.
linear_factors = st.builds(lambda p, q: Polynomial.of(-p, q), st.integers(-3, 3), st.integers(1, 3))
#: Quadratics without a rational root.
quadratic_factors = st.sampled_from([Polynomial.of(1, 0, 1), Polynomial.of(1, 1, 1), Polynomial.of(-3, 0, 2)])
factor_lists = st.lists(linear_factors | quadratic_factors, max_size=3)
contents = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


def factored(content: Fraction, factors: list[Polynomial]) -> Polynomial:
    return math.prod(factors, start=Polynomial.constant(content))


factored_ratfns = st.builds(
    lambda nc, nf, dc, df: RationalFunction(factored(nc, nf), factored(dc, df)),
    contents | st.just(Fraction(0)),
    factor_lists,
    contents,
    factor_lists,
)


def fields(r: RationalFunction) -> tuple:
    return (r.num.content, r.num.ints, r.den.content, r.den.ints)


@settings(max_examples=300, deadline=None)
@given(factored_ratfns, factored_ratfns, contents)
def test_arithmetic_matches_normalizing_constructor(a, b, k):
    """Each result is field-identical to the unreduced pair run through the constructor."""
    assert fields(a + b) == fields(RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den))
    assert fields(a - b) == fields(RationalFunction(a.num * b.den - b.num * a.den, a.den * b.den))
    assert fields(a * b) == fields(RationalFunction(a.num * b.num, a.den * b.den))
    if not b.is_zero:
        assert fields(a / b) == fields(RationalFunction(a.num * b.den, a.den * b.num))
    assert fields(a.diff()) == fields(RationalFunction(a.num.diff() * a.den - a.num * a.den.diff(), a.den * a.den))
    assert fields(-a) == fields(RationalFunction(-a.num, a.den))
    assert fields(a + a) == fields(RationalFunction(a.num * 2, a.den))
    assert fields(a - a) == fields(RationalFunction(ZERO))
    assert fields(a * k) == fields(RationalFunction(a.num * k, a.den))
    assert fields(a + b.num) == fields(RationalFunction(a.num + b.num * a.den, a.den))
