import random
from fractions import Fraction

import pytest

from ladderpoly import algebra, weighted
from ladderpoly.algebra import (
    IrreducibleFactorError,
    ONE,
    Polynomial,
    RationalFunction,
    RepeatedPoleError,
    X,
    ZERO,
    _cancel,
    linear,
    partial_fractions,
    poly_gcd,
    rational_roots,
)

from ladderpoly.weighted import WeightedExpression, as_weighted, exp_integral

from helpers import recombined

X_SQ_MINUS_1 = Polynomial.of(-1, 0, 1)


def rf(num, den=ONE):
    return RationalFunction(num, den)


class TestPolynomial:
    def test_canonical_strips_trailing_zeros(self):
        assert Polynomial.of(1, 2, 0, 0) == Polynomial.of(1, 2)
        assert Polynomial.of(0).is_zero
        assert Polynomial().degree == -1

    def test_arithmetic(self):
        p = Polynomial.of(1, 2, 3)
        q = Polynomial.of(0, -2)
        assert p + q == Polynomial.of(1, 0, 3)
        assert p - p == ZERO
        assert p * q == Polynomial.of(0, -2, -4, -6)
        assert (X + 1) * (X - 1) == X_SQ_MINUS_1
        assert p * Fraction(1, 3) == Polynomial.of(Fraction(1, 3), Fraction(2, 3), 1)
        assert (X + 1) ** 2 == Polynomial.of(1, 2, 1)

    def test_differentiate_power_rule(self):
        assert X_SQ_MINUS_1.diff() == X * 2
        assert Polynomial.of(5).diff() == ZERO

    def test_antidifferentiate_constant_zero(self):
        assert Polynomial.of(0, 0, 3).integral() == Polynomial.of(0, 0, 0, 1)
        assert X.integral() == Polynomial.of(0, 0, Fraction(1, 2))

    def test_diff_of_integral_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            p = Polynomial(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))))
            assert p.integral().diff() == p

    def test_compose_substitution(self):
        r_squared = Polynomial.of(0, 0, 1)
        assert X_SQ_MINUS_1.compose(r_squared) == Polynomial.of(-1, 0, 0, 0, 1)
        assert Polynomial.of(1, 1).compose(Polynomial.of(2)) == Polynomial.of(3)

    def test_divmod_exact(self):
        q, r = divmod(Polynomial.of(-2, 0, 2), Polynomial.of(-2, 2))
        assert q == X + 1 and r.is_zero
        q, r = divmod(X**3, X_SQ_MINUS_1)
        assert q == X and r == X

    def test_eval(self):
        assert X_SQ_MINUS_1(2) == 3
        assert X_SQ_MINUS_1(Fraction(1, 2)) == Fraction(-3, 4)

    @pytest.mark.parametrize("name", ["coeffs", "content", "content_num", "content_den", "ints", "degree", "unrelated"])
    def test_immutable(self, name):
        p = Polynomial.of(1, 2, 3)
        with pytest.raises(AttributeError):
            setattr(p, name, (Fraction(5),))
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p == Polynomial.of(1, 2, 3)
        assert {p: 1}[Polynomial.of(1, 2, 3)] == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Polynomial.of(0.1),
            lambda: Polynomial.constant("1/3"),
            lambda: Polynomial.monomial(0.5, 2),
            lambda: linear(0.5),
            lambda: Polynomial((0.1,)),
        ],
        ids=["of-float", "constant-string", "monomial-float", "linear-float", "init-float"],
    )
    def test_inexact_scalars_rejected(self, build):
        with pytest.raises(TypeError, match="not an exact scalar"):
            build()

    def test_gcd_monic(self):
        a = (X - 1) * (X + 2) * 3
        b = (X - 1) * (X - 5) * Fraction(1, 7)
        assert poly_gcd(a, b) == X - 1


class TestRationalFunction:
    def test_common_factor_cancels(self):
        assert rf(Polynomial.of(-2, 0, 2), Polynomial.of(-2, 2)) == rf(X + 1)

    def test_already_canonical(self):
        r = rf(X, X_SQ_MINUS_1)
        assert r.num == X and r.den == X_SQ_MINUS_1

    def test_zero_case(self):
        r = rf(ZERO, X - 1)
        assert r.num == ZERO and r.den == ONE

    def test_monic_denominator(self):
        r = rf(X, X * 2 + 2)
        assert r.den == X + 1 and r.num == X * Fraction(1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf(ONE, ZERO)

    def test_field_ops(self):
        a = rf(ONE, X - 1)
        b = rf(ONE, X + 1)
        assert a - b == rf(Polynomial.of(2), X_SQ_MINUS_1)
        assert a * b == rf(ONE, X_SQ_MINUS_1)
        assert (a / b) == rf(X + 1, X - 1)

    def test_diff_quotient_rule(self):
        r = rf(ONE, X)
        assert r.diff() == rf(Polynomial.of(-1), X**2)

    def test_constant_side_skips_gcd(self, monkeypatch):
        p = Polynomial(tuple(Fraction(k * k - 40, k % 7 + 1) for k in range(61)))
        q = Polynomial.of(3, -2, 5)
        pairs = [(p, ONE), (ONE, q), (p, Polynomial.constant(4)), (Polynomial.constant(-6), q)]
        expected = [rf(num, den) for num, den in pairs]

        def no_gcd(a, b):
            raise AssertionError(f"poly_gcd({a}, {b}) against a constant")

        monkeypatch.setattr(algebra, "poly_gcd", no_gcd)
        assert p.degree == 60
        assert [rf(num, den) for num, den in pairs] == expected


def test_arithmetic_builds_no_fraction(monkeypatch):
    """Contents stay int pairs: sums, products, divisions, calculus, gcds and cancellation construct no Fraction."""
    a = Polynomial.of(Fraction(5, 6), Fraction(-1, 4), Fraction(7, 9)) * (X - Fraction(2, 3))
    b = Polynomial.of(Fraction(-3, 10), Fraction(9, 14)) * (X - Fraction(2, 3))
    c = Polynomial.of(Fraction(4, 15), 0, Fraction(-8, 21))
    r, s = RationalFunction(a, c), RationalFunction(c * Fraction(3, 7), b)
    third = Fraction(1, 3)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    results = [a + b, a - c, a * b, a * third, b * -4, *divmod(a, b), *divmod(c, b), a.diff(), a.integral()]
    results += [poly_gcd(a, b), *_cancel(a, b), *_cancel(c * b, b * a)]
    results += [r + s, r - r, r._times(s.num, s.den), r * s, r.diff(), s.diff()]
    assert built == []
    monkeypatch.undo()
    assert results[5] * b + results[6] == a and results[7] * b + results[8] == c
    assert results[11] == X - Fraction(2, 3) and r * s == RationalFunction(a * c * Fraction(3, 7), c * b)
    assert (r + s) * (c * b) == RationalFunction(a * b + c * c * Fraction(3, 7))


#: (build, fields, properties) of each value type: build() returns a fresh, equal value each call.
VALUE_TYPES = [
    pytest.param(lambda: Polynomial.of(1, 2, 3), ("content_num", "content_den", "ints"), ("coeffs", "degree"), id="poly"),
    pytest.param(lambda: rf(X + 1, X_SQ_MINUS_1 * 2), ("num", "den"), ("is_zero", "is_polynomial"), id="ratfn"),
    pytest.param(
        lambda: WeightedExpression(rf(X + 1, X - 2), ((1, Fraction(3, 2)), (-1, Fraction(-1, 3))), X * X),
        ("coeff", "powers", "exp_arg"),
        ("is_zero",),
        id="weighted",
    ),
]


@pytest.mark.parametrize("build,names,properties", VALUE_TYPES)
def test_value_types_are_immutable_slotted_and_hash_by_value(build, names, properties):
    value = build()
    before = [getattr(value, name) for name in names]
    for name in (*names, *properties, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, name, ONE)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == before
    twin = build()
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert {value: 1}[twin] == 1
    for item in (value, twin, ZERO, ONE, rf(ZERO), as_weighted(0), as_weighted(X)):
        assert not hasattr(item, "__dict__")


class TestFastPaths:
    """A unit factor, two denominators of 1 and a weight-free value skip the general path."""

    @pytest.mark.parametrize("unit", [ONE, Polynomial.of(1), (X + 1) // (X + 1)], ids=["ONE", "of-1", "quotient"])
    def test_product_by_a_unit_is_the_other_factor(self, monkeypatch, unit):
        others = [X_SQ_MINUS_1 * Fraction(3, 7), Polynomial.of(Fraction(-5, 2)), ZERO]

        def no_ratio_mul(*args):
            raise AssertionError(f"_ratio_mul{args} for a product by a unit")

        monkeypatch.setattr(algebra, "_ratio_mul", no_ratio_mul)
        for other in others:
            assert unit * other is other
            assert other * unit is other

    @pytest.mark.parametrize("unit", [1, Fraction(1), True], ids=["int", "Fraction", "bool"])
    def test_product_by_the_scalar_1_is_the_other_factor(self, monkeypatch, unit):
        others = [X, X_SQ_MINUS_1 * Fraction(3, 7), ZERO]

        def no_ratio_mul(*args):
            raise AssertionError(f"_ratio_mul{args} for a product by 1")

        monkeypatch.setattr(algebra, "_ratio_mul", no_ratio_mul)
        for other in others:
            assert other * unit is other
            assert unit * other is other

    def test_sum_of_polynomial_functions_takes_no_product(self, monkeypatch):
        a = rf(X_SQ_MINUS_1 * Fraction(2, 3))
        b = rf(Polynomial.of(1, Fraction(-1, 5)), Polynomial.of(4))  # its denominator is a fresh 1, not ONE
        expected = [
            rf(Polynomial.of(Fraction(-5, 12), Fraction(-1, 20), Fraction(2, 3))),
            rf(Polynomial.of(Fraction(-11, 12), Fraction(1, 20), Fraction(2, 3))),
            rf(X_SQ_MINUS_1 * Fraction(2, 3) + 3),
            rf(X_SQ_MINUS_1 * Fraction(4, 3)),
            rf(ZERO),
        ]
        calls = []
        mul = Polynomial.__mul__

        def counted(self, other):
            calls.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        monkeypatch.setattr(Polynomial, "__rmul__", counted)
        results = [a + b, a - b, a + 3, a + a.num, b - b]
        assert calls == []
        monkeypatch.undo()
        assert results == expected
        assert all(r.den == ONE for r in results)

    @pytest.mark.parametrize(
        "value",
        [X_SQ_MINUS_1 * Fraction(-2, 9), 3, Fraction(-4, 7), rf(X, X + 1), ZERO, 0],
        ids=["poly", "int", "fraction", "ratfn", "zero-poly", "zero"],
    )
    def test_as_weighted_of_a_weight_free_value_runs_no_fold(self, monkeypatch, value):
        expected = WeightedExpression(algebra.as_rational_function(value))

        def no_fold(*args):
            raise AssertionError(f"_fold{args} for a weight-free value")

        monkeypatch.setattr(weighted, "_fold", no_fold)
        got = as_weighted(value)
        assert got == expected and got.powers == () and got.exp_arg is ZERO


@pytest.mark.parametrize("other", [1.5, "a"], ids=["float", "str"])
class TestReflectedOperands:
    """A reflected operator hands an operand it cannot read back to Python, which names both in order."""

    def test_true_division_by_a_rational_function(self, other):
        with pytest.raises(TypeError, match=rf"for /: '{type(other).__name__}' and 'RationalFunction'$"):
            other / rf(X, X + 1)

    @pytest.mark.parametrize("value", [rf(X, X + 1), X], ids=["ratfn", "poly"])
    def test_subtraction_names_the_operands_in_order(self, other, value):
        with pytest.raises(TypeError, match=rf"for -: '{type(other).__name__}' and '{type(value).__name__}'$"):
            other - value


def test_exact_operands_still_reflect():
    assert 3 - X == Polynomial.of(3, -1)
    assert Fraction(1, 2) - rf(X, X + 1) == rf(Polynomial.of(1, -1), X * 2 + 2)
    assert 2 / rf(X, X + 1) == rf(X * 2 + 2, X)


class TestRationalRoots:
    def test_finds_fractional_roots(self):
        p = (X * 2 - 1) * (X + 3)
        roots, residual = rational_roots(p)
        assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]
        assert residual.degree == 0

    def test_irreducible_residual(self):
        p = (X - 1) * Polynomial.of(1, 0, 1)
        roots, residual = rational_roots(p)
        assert roots == [Fraction(1)]
        assert residual == Polynomial.of(1, 0, 1)


class TestPartialFractions:
    def test_simple_pole_pair(self):
        # m x / (1 - x^2) for a few rational m
        for m in (Fraction(1), Fraction(3), Fraction(-5, 2)):
            r = rf(X * m, Polynomial.of(1, 0, -1))
            parts = partial_fractions(r)
            assert parts.quotient == ZERO
            assert parts.terms == ((Fraction(-1), -m / 2), (Fraction(1), -m / 2))
            assert recombined(parts) == r

    @pytest.mark.parametrize(
        "a,b,c",
        [(1, 0, 1), (2, 3, -1), (Fraction(1, 2), Fraction(-1, 3), 5)],
    )
    def test_quadratic_over_x2_minus_1(self, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        r = rf(Polynomial.of(c, b, a), X_SQ_MINUS_1)
        parts = partial_fractions(r)
        assert parts.quotient == Polynomial.of(a)
        residues = dict(parts.terms)
        # residues verified by recombination, not trusted from any display
        assert residues[Fraction(1)] == (a + b + c) / 2
        assert residues[Fraction(-1)] == (a - b + c) / -2
        assert recombined(parts) == r

    def test_polynomial_input(self):
        parts = partial_fractions(rf(X))
        assert parts.quotient == X and parts.terms == ()

    def test_repeated_pole_rejected(self):
        with pytest.raises(RepeatedPoleError):
            partial_fractions(rf(ONE, (X - 1) ** 2))

    def test_irreducible_factor_rejected(self):
        with pytest.raises(IrreducibleFactorError):
            partial_fractions(rf(ONE, Polynomial.of(1, 0, 1)))

    @pytest.mark.parametrize("den", [X * Polynomial.of(2, 0, 1), (X - 1) * Polynomial.of(2, 0, 1)])
    def test_irreducible_factor_is_named_without_its_roots(self, den):
        with pytest.raises(IrreducibleFactorError) as caught:
            partial_fractions(rf(ONE, den))
        assert str(caught.value) == "denominator factor x^2 + 2 is irreducible over the rationals"

    @pytest.mark.parametrize("den", [X * (X - 1) * (2 * X + 1), (X - 2) * (X + 3) * (7 * X - 5)])
    def test_square_free_denominator_takes_one_gcd_and_no_linear_division(self, monkeypatch, den):
        # the square-free test is the only gcd and the split off of the polynomial part the
        # only division: each candidate root is kept by evaluation, not divided out as (x - root)
        r = rf(X**4 + 1, den)
        gcds, divisors = [], []
        gcd, divide = algebra.poly_gcd, Polynomial.__divmod__
        monkeypatch.setattr(algebra, "poly_gcd", lambda a, b: gcds.append((a, b)) or gcd(a, b))
        monkeypatch.setattr(Polynomial, "__divmod__", lambda a, b: divisors.append(b) or divide(a, b))
        parts = partial_fractions(r)
        assert (len(gcds), divisors) == (1, [r.den])
        assert len(parts.terms) == 3 and recombined(parts) == r

    def test_long_polynomials_are_named_by_degree(self):
        # Eisenstein at 3: x^30 + 3x^29 + ... + 3x + 3 is irreducible over Q.
        irreducible = Polynomial.of(*[3] * 30, 1)
        assert len(str(irreducible)) > 80
        with pytest.raises(IrreducibleFactorError) as caught:
            partial_fractions(rf(ONE, irreducible * (X - 1)))
        assert str(caught.value) == "denominator factor of degree 30 is irreducible over the rationals"
        with pytest.raises(RepeatedPoleError) as caught:
            partial_fractions(rf(ONE, (X + 1) ** 40))
        assert str(caught.value) == "denominator of degree 40 has a repeated factor"

    def test_names_of_80_characters_are_kept(self):
        kept, long = X**2 * Polynomial.of(*[1] * 13), X**3 * Polynomial.of(*[1] * 13)
        assert (len(str(kept)), len(str(long))) == (80, 81)
        with pytest.raises(RepeatedPoleError) as caught:
            partial_fractions(rf(ONE, kept))
        assert str(caught.value) == f"denominator {kept} has a repeated factor"
        with pytest.raises(RepeatedPoleError) as caught:
            partial_fractions(rf(ONE, long))
        assert str(caught.value) == "denominator of degree 15 has a repeated factor"

    def test_recombination_property(self):
        rng = random.Random(11)
        roots_pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]
        for _ in range(40):
            picked = rng.sample(roots_pool, rng.randint(1, 3))
            den = ONE
            for root in picked:
                den = den * linear(root)
            num = Polynomial(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))))
            if num.is_zero:
                continue
            r = rf(num, den)
            assert recombined(partial_fractions(r)) == r


class TestIntegrateRational:
    """exp(int r) read off the partial fractions: residues become powers, the polynomial part an exponential."""

    def test_polynomial_part(self):
        result = exp_integral(rf(X))
        assert result.exp_arg == Polynomial.of(0, 0, Fraction(1, 2))
        assert result.powers == ()
        assert result == WeightedExpression.exp_of(X * X * Fraction(1, 2))

    def test_single_pole_at_origin(self):
        result = exp_integral(rf(ONE, X))
        assert result.exp_arg == ZERO
        assert result == as_weighted(X)

    def test_quadratic_drift_integral(self):
        # int (a x^2 + b x + c)/(x^2-1): polynomial part a x, log residues as
        # verified by differentiating the decomposition back
        a, b, c = Fraction(2), Fraction(1), Fraction(3)
        r = rf(Polynomial.of(c, b, a), X_SQ_MINUS_1)
        result = exp_integral(r)
        assert result.exp_arg == X * a
        assert result.log_derivative() == r
