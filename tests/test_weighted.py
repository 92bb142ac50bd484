import random
import re
from fractions import Fraction

import pytest

from ladderpoly import algebra
from ladderpoly.algebra import (
    ONE,
    Polynomial,
    RationalFunction,
    X,
    ZERO,
    as_rational_function,
)
from ladderpoly.weighted import (
    NotPolynomialError,
    PowerFactor,
    WeightStructureError,
    WeightedExpression,
    as_weighted,
    exp_integral,
)

X_SQ_MINUS_1 = Polynomial.of(-1, 0, 1)
HALF = Fraction(1, 2)


def w_poly(p):
    return as_weighted(p)


def sqrt_x2m1():
    return WeightedExpression.power(1, HALF) * WeightedExpression.power(-1, HALF)


class TestNormalization:
    def test_integer_exponent_folds_into_coeff(self):
        w = WeightedExpression(RationalFunction(ONE), ((Fraction(1), Fraction(3)),))
        assert w.powers == ()
        assert w.coeff == as_rational_function((X - 1) ** 3)

    def test_split_integer_part(self):
        w = WeightedExpression(RationalFunction(ONE), ((Fraction(1), Fraction(5, 2)),))
        assert w.powers == (PowerFactor(Fraction(1), HALF),)
        assert w.coeff == as_rational_function((X - 1) ** 2)

    def test_negative_exponent_keeps_fraction_in_unit_interval(self):
        w = WeightedExpression.power(1, Fraction(-1, 2))
        assert w.powers == (PowerFactor(Fraction(1), HALF),)
        assert w.coeff == RationalFunction(ONE, X - 1)

    def test_distinct_roots_kept_sorted(self):
        w = sqrt_x2m1()
        assert [pf.root for pf in w.powers] == [Fraction(-1), Fraction(1)]
        assert all(pf.exponent == HALF for pf in w.powers)

    def test_exp_constant_term_dropped(self):
        w = WeightedExpression.exp_of(Polynomial.of(7, 0, 1))
        assert w.exp_arg == Polynomial.of(0, 0, 1)

    def test_zero_collapses(self):
        w = WeightedExpression(RationalFunction(ZERO), ((Fraction(1), HALF),), X)
        assert w.is_zero
        assert w.powers == () and w.exp_arg == ZERO

    def test_merging_same_root(self):
        w = WeightedExpression(
            RationalFunction(ONE), ((Fraction(1), HALF), (Fraction(1), HALF))
        )
        assert w.powers == ()
        assert w.coeff == as_rational_function(X - 1)

    @pytest.mark.parametrize("root,exponent", [(0.5, 1), (1, 0.5), ("1/2", 1)])
    def test_inexact_scalars_rejected(self, root, exponent):
        with pytest.raises(TypeError, match="not an exact scalar"):
            WeightedExpression.power(root, exponent)

    @pytest.mark.parametrize("combine", [lambda a, b: a - b, lambda a, b: a / b], ids=["sub", "div"])
    def test_inexact_left_operand_is_a_type_error(self, combine):
        # the reflected operators hand an operand they cannot read back to Python
        with pytest.raises(TypeError, match="unsupported operand"):
            combine(0.5, as_weighted(3))

    def test_fold_builds_one_rational_function(self, monkeypatch):
        coeff = RationalFunction(X + 2, X - 3)
        powers = ((1, Fraction(7, 2)), (-1, -2), (0, 3), (1, HALF), (2, Fraction(3, 2)))
        expected = RationalFunction((X + 2) * (X - 1) ** 4 * X**3 * (X - 2), (X - 3) * (X + 1) ** 2)
        built = []
        post_init = algebra.RationalFunction.__post_init__
        reduced = algebra.RationalFunction._reduced

        def counted(self):
            built.append(self)
            post_init(self)

        def counted_reduced(cls, num, den):
            built.append(reduced(num, den))
            return built[-1]

        monkeypatch.setattr(algebra.RationalFunction, "__post_init__", counted)
        monkeypatch.setattr(algebra.RationalFunction, "_reduced", classmethod(counted_reduced))
        w = WeightedExpression(coeff, powers)
        assert len(built) == 1
        assert w.coeff == expected
        assert w.powers == (PowerFactor(Fraction(2), HALF),)

    @pytest.mark.parametrize(
        "powers,total",
        [(((0, 513),), 513), (((1, 300), (-1, -213)), 513), (((1, 257), (-1, 257)), 514), (((0, Fraction(-1025, 2)),), 513)],
    )
    def test_fold_degree_is_bounded(self, powers, total):
        with pytest.raises(ValueError, match=f"weight of integer degree {total} exceeds the limit 512"):
            WeightedExpression(RationalFunction(ONE), powers)

    def test_fold_up_to_the_limit(self):
        assert WeightedExpression.power(0, 512).coeff == RationalFunction(X**512)
        w = WeightedExpression.power(0, Fraction(1025, 2))
        assert w.coeff == RationalFunction(X**512) and w.powers == (PowerFactor(Fraction(0), HALF),)
        assert WeightedExpression(RationalFunction(ZERO), ((0, 10**30),)).is_zero


class TestDifferentiation:
    def test_gaussian_chain_rule(self):
        gauss = WeightedExpression.exp_of(X * X * Fraction(-1, 2))
        assert gauss.diff() == w_poly(-X) * gauss

    def test_sqrt_product_rule_checked_by_squaring(self):
        q = sqrt_x2m1()
        derivative = q.diff()
        # d/dx sqrt(x^2-1) = x / sqrt(x^2-1); square both sides to stay rational
        assert derivative * derivative == w_poly(X * X) / w_poly(X_SQ_MINUS_1)
        # and directly: derivative * q == x
        assert derivative * q == w_poly(X)

    def test_folded_polynomial(self):
        assert w_poly(X_SQ_MINUS_1).diff() == w_poly(X * 2)

    def test_product_rule_random(self):
        rng = random.Random(3)
        roots = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
        for _ in range(30):
            u = _random_weighted(rng, roots)
            v = _random_weighted(rng, roots)
            assert (u * v).diff() == u.diff() * v + u * v.diff()


def _random_weighted(rng, roots):
    coeff_num = Polynomial(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))))
    if coeff_num.is_zero:
        coeff_num = ONE
    picked = rng.sample(roots, rng.randint(0, 3))
    powers = tuple((root, Fraction(rng.randint(1, 5), rng.choice([2, 3]))) for root in picked)
    exp_arg = Polynomial(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))))
    return WeightedExpression(RationalFunction(coeff_num), powers, exp_arg)


class TestMulDiv:
    def test_exponent_subtraction(self):
        q = sqrt_x2m1()
        assert w_poly(X_SQ_MINUS_1) / q == q

    def test_exponential_inverse(self):
        half_sq = X * X * Fraction(1, 2)
        assert WeightedExpression.exp_of(half_sq) * WeightedExpression.exp_of(-half_sq) == as_weighted(1)

    def test_laguerre_weight_shift(self):
        alpha = Fraction(1, 2)
        top = WeightedExpression.power(0, alpha + 3) * WeightedExpression.exp_of(-X)
        assert top / w_poly(X) == WeightedExpression.power(0, alpha + 2) * WeightedExpression.exp_of(-X)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            as_weighted(1) / as_weighted(0)

    def test_closure_random(self):
        rng = random.Random(5)
        roots = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
        for _ in range(40):
            u = _random_weighted(rng, roots)
            v = _random_weighted(rng, roots)
            for result in (u * v, u / v, u.diff()):
                assert isinstance(result, WeightedExpression)
                for pf in result.powers:
                    assert 0 < pf.exponent < 1


class TestExpIntegral:
    def test_gaussian_ground_state(self):
        assert exp_integral(as_rational_function(-X)) == WeightedExpression.exp_of(X * X * Fraction(-1, 2))

    def test_quadratic_drift_exponential_factor(self):
        # exp[int (a x^2 + b x + c)/(x^2-1)] = e^(ax) (x-1)^((a+b+c)/2) (x+1)^((b-a-c)/2)
        a, b, c = Fraction(2), Fraction(1), Fraction(-1)
        r = RationalFunction(Polynomial.of(c, b, a), X_SQ_MINUS_1)
        produced = exp_integral(r)
        expected = (
            WeightedExpression.exp_of(X * a)
            * WeightedExpression.power(1, (a + b + c) / 2)
            * WeightedExpression.power(-1, (b - a - c) / 2)
        )
        assert produced == expected
        assert produced.log_derivative() == r

    def test_zero_integral(self):
        assert exp_integral(RationalFunction(ZERO)) == as_weighted(1)

    def test_roundtrip_property(self):
        # exp_integral(t) has log derivative t for in-class t
        rng = random.Random(13)
        roots = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3)]
        for _ in range(30):
            den = ONE
            for root in rng.sample(roots, rng.randint(0, 2)):
                den = den * Polynomial.of(-root, 1)
            num = Polynomial(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))))
            if num.is_zero:
                continue
            t = RationalFunction(num, den)
            assert exp_integral(t).log_derivative() == t


class TestLogDerivative:
    def test_gaussian(self):
        assert WeightedExpression.exp_of(X * X * Fraction(-1, 2)).log_derivative() == as_rational_function(-X)

    def test_half_power_pair(self):
        for n in (1, 3, 5):
            w = WeightedExpression.power(1, Fraction(n, 2)) * WeightedExpression.power(-1, Fraction(n, 2))
            assert w.log_derivative() == RationalFunction(X * n, X_SQ_MINUS_1)

    def test_laguerre_weight(self):
        alpha_n = Fraction(7, 2)
        w = WeightedExpression.power(0, alpha_n) * WeightedExpression.exp_of(-X)
        assert w.log_derivative() == RationalFunction(Polynomial.of(alpha_n, -1), X)


class TestAsPolynomial:
    def test_plain_coefficient(self):
        assert w_poly(Polynomial.of(-1, 0, 3)).as_polynomial() == Polynomial.of(-1, 0, 3)

    def test_surviving_exponential(self):
        with pytest.raises(NotPolynomialError):
            (WeightedExpression.exp_of(X) * w_poly(X)).as_polynomial()

    def test_square_of_half_power(self):
        q = WeightedExpression.power(1, HALF)
        assert (q * q).as_polynomial() == X - 1

    def test_zero(self):
        assert as_weighted(0).as_polynomial() == ZERO

    @pytest.mark.parametrize(
        "member, survivor",
        [
            (sqrt_x2m1(), "(x + 1)^(1/2) * (x - 1)^(1/2)"),
            (
                WeightedExpression(RationalFunction(X * X + 3, X), ((0, Fraction(2, 3)),), X * X),
                "1/(x) * x^(2/3) * exp(x^2)",
            ),
            (as_weighted(RationalFunction(X - 5, Polynomial.of(HALF, 1))), "1/(x + 1/2)"),
        ],
        ids=["power factor", "exponential", "denominator"],
    )
    def test_survivor_named_with_numerator_one(self, member, survivor):
        with pytest.raises(NotPolynomialError, match=rf"^not a polynomial; surviving {re.escape(survivor)}$"):
            member.as_polynomial()


class TestScalarRatio:
    def test_plain_scalar(self):
        assert w_poly(X_SQ_MINUS_1 * 2).scalar_ratio(w_poly(X_SQ_MINUS_1)) == 2

    def test_exp_constants_removed_by_normalization(self):
        u = WeightedExpression.exp_of(X)
        v = WeightedExpression.exp_of(Polynomial.of(1, 1))
        assert u.scalar_ratio(v) == 1

    def test_different_functions(self):
        assert w_poly(X).scalar_ratio(w_poly(X * X)) is None

    def test_different_cells(self):
        # (x^2-1)^(1/2) against r^(1/2): no scalar relates members of two weight cells
        assert sqrt_x2m1().scalar_ratio(WeightedExpression.power(0, HALF)) is None

    def test_zero_rules(self):
        zero = as_weighted(0)
        assert zero.scalar_ratio(zero) == 1
        assert zero.scalar_ratio(as_weighted(1)) is None
        assert as_weighted(1).scalar_ratio(zero) is None

    @pytest.mark.parametrize("other", [1.5, "x"], ids=["float", "str"])
    def test_uninterpretable_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError, match=r"^cannot interpret .* as a weighted expression$"):
            as_weighted(X).scalar_ratio(other)


class TestAddition:
    def test_same_cell(self):
        q = sqrt_x2m1()
        assert w_poly(X) * q + w_poly(ONE) * q == w_poly(X + 1) * q

    def test_incompatible_cells_rejected(self):
        with pytest.raises(ValueError):
            sqrt_x2m1() + as_weighted(1)

    def test_incompatible_cells_raise_their_own_error(self):
        # a ValueError subclass, so callers can catch it without the weight-degree bound
        assert issubclass(WeightStructureError, ValueError)
        with pytest.raises(WeightStructureError, match="different weight structure"):
            sqrt_x2m1() - w_poly(X)

    def test_incompatible_cells_carry_both_operands_as_written(self):
        q = sqrt_x2m1()
        for combine, verb in ((lambda a, b: a + b, "add"), (lambda a, b: a - b, "subtract")):
            with pytest.raises(WeightStructureError, match=f"cannot {verb} ") as caught:
                combine(q, w_poly(X))
            assert caught.value.operands == (q, w_poly(X))
        with pytest.raises(WeightStructureError) as caught:
            1 - q
        assert caught.value.operands == (as_weighted(1), q)
