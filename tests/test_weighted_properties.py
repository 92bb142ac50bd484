"""Property tests for the weighted class: canonical structure and the Leibniz rule."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly import weighted as weighted_module  # noqa: E402
from ladderpoly.algebra import ONE, Polynomial, RationalFunction, ZERO, linear  # noqa: E402
from ladderpoly.weighted import PowerFactor, WeightedExpression  # noqa: E402

from helpers import canonical_fields  # noqa: E402

bounded = settings(max_examples=60, deadline=None)

scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
small_polys = st.lists(scalars, max_size=3).map(lambda cs: Polynomial(tuple(cs)))
roots = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)])
exponents = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
powers = st.lists(st.builds(PowerFactor, roots, exponents), max_size=2).map(tuple)


def over_linear_factors(num: Polynomial, den_roots: list[Fraction]) -> RationalFunction:
    den = Polynomial.constant(1)
    for root in den_roots:
        den = den * linear(root)
    return RationalFunction(num, den)


coefficients = st.builds(
    over_linear_factors, small_polys.filter(lambda p: not p.is_zero), st.lists(roots, max_size=2, unique=True)
)
weighted = st.builds(WeightedExpression, coefficients, powers, small_polys)


def assert_same_structure(a: WeightedExpression, b: WeightedExpression) -> None:
    assert a == b
    assert (a.coeff, a.powers, a.exp_arg) == (b.coeff, b.powers, b.exp_arg)
    assert a.weight_cell() == b.weight_cell()
    assert hash(a) == hash(b)
    assert str(a) == str(b)


@bounded
@given(weighted, weighted, weighted.filter(lambda w: not w.is_zero))
def test_equal_values_have_equal_structure(u, v, t):
    product = u * v
    assert_same_structure(product, v * u)
    assert_same_structure(product, (u * t) * v / t)


@bounded
@given(coefficients, roots, exponents, st.integers(-3, 3), small_polys)
def test_integer_exponent_parts_fold_into_the_coefficient(coeff, root, exponent, shift, arg):
    if shift >= 0:
        moved = coeff * RationalFunction(linear(root) ** shift)
    else:
        moved = coeff / RationalFunction(linear(root) ** -shift)
    a = WeightedExpression(coeff, (PowerFactor(root, exponent + shift),), arg)
    b = WeightedExpression(moved, (PowerFactor(root, exponent),), arg + 5)
    assert_same_structure(a, b)


@bounded
@given(weighted, weighted)
def test_leibniz_rule(u, v):
    assert (u * v).diff() == u.diff() * v + u * v.diff()


# -- results against the same value rebuilt through the constructor ---------

#: Coefficients whose numerators share linear factors with the weights and denominators.
sharing_coefficients = st.builds(
    lambda num, num_roots, den_roots: RationalFunction(
        math.prod((linear(r) for r in num_roots), start=num), math.prod((linear(r) for r in den_roots), start=ONE)
    ),
    small_polys.filter(lambda p: not p.is_zero),
    st.lists(roots, max_size=2),
    st.lists(roots, max_size=2, unique=True),
)
sharing_weighted = st.builds(WeightedExpression, sharing_coefficients, powers, small_polys)


def fields(w: WeightedExpression) -> tuple:
    c = w.coeff
    return (*canonical_fields(c.num), *canonical_fields(c.den), w.powers, *canonical_fields(w.exp_arg))


def unreduced_log_derivative(w: WeightedExpression) -> tuple[Polynomial, Polynomial]:
    """(num, common) with c'/c + p' + sum e/(x - r) = num / (c.num * c.den * common), common = prod (x - r)."""
    c, factors = w.coeff, [linear(pf.root) for pf in w.powers]
    common = math.prod(factors, start=ONE)
    log_num = w.exp_arg.diff() * common
    for i, pf in enumerate(w.powers):
        log_num = log_num + math.prod(factors[:i] + factors[i + 1 :], start=ONE) * pf.exponent
    return (c.num.diff() * c.den - c.num * c.den.diff()) * common + c.num * c.den * log_num, common


def rebuilt_diff(w: WeightedExpression) -> WeightedExpression:
    """(c * prod (x - r)^e * exp(p))' with c'/c + p' + sum e/(x - r) over one unreduced denominator."""
    num, common = unreduced_log_derivative(w)
    return WeightedExpression(RationalFunction(num, w.coeff.den * w.coeff.den * common), w.powers, w.exp_arg)


def rebuilt_log_derivative(w: WeightedExpression) -> RationalFunction:
    num, common = unreduced_log_derivative(w)
    return RationalFunction(num, w.coeff.num * w.coeff.den * common)


#: The per-cell memos of the weighted module.
MEMOS = (weighted_module._fold, weighted_module._weight_log_derivative)


def cold_and_warm(op, memoized: bool = True):
    """op() with every memo cleared, then op() again with the memos it filled.

    A memoized op must hit a memo the second time; a product with a
    weight-free factor keeps the other factor's cell and reads no memo.
    """
    for memo in MEMOS:
        memo.cache_clear()
    cold = op()
    hits = sum(memo.cache_info().hits for memo in MEMOS)
    warm = op()
    assert (sum(memo.cache_info().hits for memo in MEMOS) > hits) == memoized
    return cold, warm


#: Coefficients of the weight-free operand: zero or a sharing coefficient.
plain_coefficients = st.one_of(st.just(RationalFunction(ZERO)), sharing_coefficients)


@settings(max_examples=150, deadline=None)
@given(sharing_weighted, sharing_weighted, sharing_coefficients, plain_coefficients)
def test_results_match_constructor_rebuilds(w, v, other_coeff, plain_coeff):
    a, b = w.coeff, v.coeff
    assert fields(w.diff()) == fields(rebuilt_diff(w))
    product = WeightedExpression(RationalFunction(a.num * b.num, a.den * b.den), w.powers + v.powers, w.exp_arg + v.exp_arg)
    assert fields(w * v) == fields(product)
    inverted = tuple((root, -exponent) for root, exponent in v.powers)
    quotient = WeightedExpression(
        RationalFunction(a.num * b.den, a.den * b.num), w.powers + inverted, w.exp_arg - v.exp_arg
    )
    # each memoized result, with the memos cleared and then warm, against its rebuild
    both_weighted = all(x.powers or x.exp_arg for x in (w, v))
    assert cold_and_warm(lambda: fields(w * v), both_weighted) == (fields(product),) * 2
    assert cold_and_warm(lambda: fields(w / v)) == (fields(quotient),) * 2
    assert cold_and_warm(lambda: fields(w.diff())) == (fields(rebuilt_diff(w)),) * 2
    assert cold_and_warm(w.log_derivative) == (rebuilt_log_derivative(w),) * 2
    plain = WeightedExpression(plain_coeff)  # weight-free, and zero in some examples
    d = plain.coeff
    scaled = WeightedExpression(RationalFunction(a.num * d.num, a.den * d.den), w.powers, w.exp_arg)
    assert fields(w * plain) == fields(scaled)
    assert fields(plain * w) == fields(scaled)
    u = WeightedExpression(other_coeff, w.powers, w.exp_arg)
    assert u.weight_cell() == w.weight_cell()
    c = u.coeff
    total = RationalFunction(a.num * c.den + c.num * a.den, a.den * c.den)
    assert fields(w + u) == fields(WeightedExpression(total, w.powers, w.exp_arg))
    assert fields(-w) == fields(WeightedExpression(RationalFunction(-a.num, a.den), w.powers, w.exp_arg))
    assert fields(w + -w) == fields(WeightedExpression(RationalFunction(a.num - a.num, a.den), w.powers, w.exp_arg))
    # canonical equality is exact within a cell: equal forms exactly when the difference is zero
    for same_cell in (u, (w + u) - u):
        assert (w == same_cell) == (w - same_cell).is_zero
    assert (w + u) - u == w


def test_memos_are_bounded():
    for memo in MEMOS:
        maxsize = memo.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0


def test_over_limit_error_is_raised_on_every_call():
    """Errors are not cached: a repeated call raises again and leaves no entry."""
    half = Fraction(1, 2)
    spread = WeightedExpression(RationalFunction(ONE), tuple((root, half) for root in range(513)))
    calls = (
        lambda: WeightedExpression(RationalFunction(ONE), ((0, 513),)),
        lambda: spread * spread,
        lambda: spread / WeightedExpression(RationalFunction(ONE), tuple((root, -half) for root in range(513))),
    )
    for call in calls:
        weighted_module._fold.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="weight of integer degree 513 exceeds the limit 512"):
                call()
        assert weighted_module._fold.cache_info().currsize == 0
