from fractions import Fraction

import pytest

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, X
from ladderpoly.families import FamilySpec, oracle_recurrence
from ladderpoly.parsing import MAX_COEFFICIENT_BITS, MAX_EXPONENT, MAX_NESTING, ParseError, parse_expression

from helpers import reference_parse


class TestGrammar:
    def test_simple_polynomial(self):
        assert parse_expression("x^2 - 1") == Polynomial.of(-1, 0, 1)

    def test_rational_coefficients(self):
        assert parse_expression("(3/2)*x^2 - 1/2") == oracle_recurrence(FamilySpec("legendre", 2))

    def test_rational_function(self):
        parsed = parse_expression("x/(x^2-1)")
        assert parsed == RationalFunction(X, Polynomial.of(-1, 0, 1))

    def test_whitespace_insensitive(self):
        assert parse_expression("  x ^ 2-1 ") == parse_expression("x^2-1")

    def test_radial_variable(self):
        assert parse_expression("r^2 + 1") == Polynomial.of(1, 0, 1)

    def test_unary_minus(self):
        assert parse_expression("-x") == -X
        assert parse_expression("--x") == X
        assert parse_expression("2 - -3") == Polynomial.of(5)

    def test_division_cancels_to_polynomial(self):
        assert parse_expression("(x^2-1)/(x-1)") == X + 1

    def test_nested_parentheses(self):
        assert parse_expression("((x+1)*(x-1))^2") == Polynomial.of(1, 0, -2, 0, 1)

    def test_power_of_a_quotient_is_canonical(self):
        parsed = parse_expression("((3*x+3)/(2*x^2-8))^3 * (x-2)^2")
        expected = RationalFunction(27 * (X + 1) ** 3, 8 * (X + 2) ** 3 * (X - 2))
        assert (parsed.num, parsed.den) == (expected.num, expected.den)
        assert parsed.den.leading == 1
        assert parse_expression("(x/(x-1))^0") == ONE

    def test_constant_folding(self):
        assert parse_expression("6/4") == Polynomial.constant(Fraction(3, 2))


class TestErrors:
    def test_unknown_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + y")
        assert err.value.position == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x 1")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_expression(f"x^{MAX_EXPONENT + 1}")
        assert parse_expression(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT

    def test_degree_budget(self):
        assert parse_expression(f"x^{MAX_EXPONENT // 2} * x^{MAX_EXPONENT // 2}").degree == MAX_EXPONENT
        assert parse_expression(f"(x+1)^{MAX_EXPONENT} / (x+1)^{MAX_EXPONENT}") == Polynomial.of(1)
        for source in ("((x+1)^512)^512", "x^512 * x", "1/x^512/x", "x^512 + 1/x", "1/x^300 + 1/(x+1)^300"):
            with pytest.raises(ParseError, match=f"exceeds the limit {MAX_EXPONENT}"):
                parse_expression(source)

    def test_coefficient_bit_budget(self):
        largest = 2**MAX_COEFFICIENT_BITS - 1
        assert parse_expression(str(largest)) == Polynomial.of(largest)
        with pytest.raises(ParseError, match=f"exceed the limit {MAX_COEFFICIENT_BITS}") as err:
            parse_expression("(10^500)^512")
        assert err.value.position == 9
        big = str(2**2100)
        with pytest.raises(ParseError, match=f"exceed the limit {MAX_COEFFICIENT_BITS}") as err:
            parse_expression(f"{big}/3 + {big}/7")
        assert err.value.position == len(big) + 3
        for source in (str(2**MAX_COEFFICIENT_BITS), "9" * 5000, f"x^{'9' * 5000}"):
            with pytest.raises(ParseError, match=f"exceeds the limit of {MAX_COEFFICIENT_BITS} bits"):
                parse_expression(source)

    @pytest.mark.parametrize(
        "inside,over,position",
        [
            ("(2^511)^8", "(2^512)^8", 8),
            ("(2^511)^4 + (2^511)^4", "(2^512)^4 + (2^512)^4", 10),
            ("(2^512)^4 * (2^511)^4", "(2^512)^4 * (2^512)^4", 10),
        ],
        ids=["power", "sum", "product"],
    )
    def test_constant_budgets_on_both_sides(self, inside, over, position):
        # constants are sized as the rational functions they stand for, as the
        # reference parser sizes them
        assert parse_expression(inside) == reference_parse(inside)
        for parse in (parse_expression, reference_parse):
            with pytest.raises(ParseError, match=f"exceed the limit {MAX_COEFFICIENT_BITS}") as err:
                parse(over)
            assert err.value.position == position

    @pytest.mark.parametrize(
        "source,message", [("x^²", "expected exponent at position 2"), ("²", "unexpected '²' at position 0")]
    )
    def test_superscript_digits_are_no_digits(self, source, message):
        # str.isdigit accepts '²' but int() does not; only decimal digits are read
        with pytest.raises(ParseError) as err:
            parse_expression(source)
        assert str(err.value) == message
        assert parse_expression("x^\u0663 + \u0661\u0662") == X**3 + 12  # Arabic-Indic digits are decimal

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x^-2")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_expression("1/(x - x)")

    def test_nesting_limit(self):
        assert parse_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
        assert parse_expression("+".join(["(x)"] * (MAX_NESTING + 1))) == X * (MAX_NESTING + 1)
        deeper = " (" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_expression(deeper)
        assert err.value.position == 2 * MAX_NESTING + 1

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_expression("(" * 3000 + "x" + ")" * 3000)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("")


class TestRoundTrip:
    def test_coefficient_strings_round_trip(self):
        p = oracle_recurrence(FamilySpec("legendre", 7))
        rebuilt = Polynomial(tuple(Fraction(str(c)) for c in p.coeffs))
        assert rebuilt == p
