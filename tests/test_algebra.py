import random
from fractions import Fraction

import pytest

from ladderpoly import algebra
from ladderpoly.algebra import (
    IrreducibleFactorError,
    ONE,
    Polynomial,
    RationalFunction,
    RepeatedPoleError,
    X,
    ZERO,
    integrate_rational,
    linear,
    partial_fractions,
    poly_gcd,
    rational_roots,
)

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

    @pytest.mark.parametrize("name", ["coeffs", "content", "ints", "degree", "unrelated"])
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
    def test_polynomial_part(self):
        result = integrate_rational(rf(X))
        assert result.poly_part == Polynomial.of(0, 0, Fraction(1, 2))
        assert result.log_terms == ()

    def test_single_pole_at_origin(self):
        result = integrate_rational(rf(ONE, X))
        assert result.poly_part == ZERO
        assert result.log_terms == ((Fraction(0), Fraction(1)),)

    def test_quadratic_drift_integral(self):
        # int (a x^2 + b x + c)/(x^2-1): polynomial part a x, log residues as
        # verified by differentiating the decomposition back
        a, b, c = Fraction(2), Fraction(1), Fraction(3)
        r = rf(Polynomial.of(c, b, a), X_SQ_MINUS_1)
        result = integrate_rational(r)
        assert result.poly_part == X * a
        recombined = RationalFunction(result.poly_part.diff())
        for root, residue in result.log_terms:
            recombined = recombined + rf(Polynomial.of(residue), linear(root))
        assert recombined == r
