"""Recursive-descent parser for exact polynomial and rational-function input.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' integer)?
    atom   := integer | variable | '(' expr ')'

Integers are unsigned digit runs; rationals are written with '/' (ordinary
division).  The variable is ``x`` or ``r``.  Exponents are nonnegative
integers, and parentheses nest at most MAX_NESTING deep, far inside the
recursion limit.  The result is a Polynomial whenever the denominator reduces
to one, otherwise a RationalFunction.

The size of every value is budgeted before it is built.  Each operator first
bounds its result: the degrees of numerator and denominator may not exceed
MAX_EXPONENT, and the coefficient bit size (the sum of the operands' for a
sum, product or quotient, the exponent times the base's for a power) may not
exceed MAX_COEFFICIENT_BITS.  An integer literal is held to the same bit
limit.  Breaking either limit is a ParseError, so no input makes the parser
build a polynomial of unbounded size.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MAX_EXPONENT, Polynomial, RationalFunction, X, as_rational_function

MAX_COEFFICIENT_BITS = 4096
MAX_NESTING = 100

VARIABLES = ("x", "r")


class ParseError(ValueError):
    """Syntax error with the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> RationalFunction:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.source):
            raise ParseError(f"unexpected {self.source[self.pos]!r}", self.pos)
        return value

    def budget(self, at: int, num_degree: int, den_degree: int, bits: int) -> None:
        """Reject a result whose degrees or coefficient size would break the limits."""
        degree = max(num_degree, den_degree)
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree {degree} exceeds the limit {MAX_EXPONENT}", at)
        if bits > MAX_COEFFICIENT_BITS:
            raise ParseError(f"coefficients of {bits} bits exceed the limit {MAX_COEFFICIENT_BITS}", at)

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek() in ("+", "-"):
            at = self.pos
            op = self.take()
            right = self.term()
            self.budget(
                at,
                max(value.num.degree + right.den.degree, right.num.degree + value.den.degree),
                value.den.degree + right.den.degree,
                _bits(value) + _bits(right) + 1,
            )
            value = value + right if op == "+" else value - right
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek() in ("*", "/"):
            at = self.pos
            op = self.take()
            right = self.unary()
            if op == "*":
                num, den = right.num, right.den
            else:
                if right.is_zero:
                    raise ParseError("division by zero", self.pos)
                num, den = right.den, right.num
            self.budget(
                at,
                value.num.degree + num.degree,
                value.den.degree + den.degree,
                _bits(value) + _bits(right),
            )
            value = value * right if op == "*" else value / right
        return value

    def unary(self) -> RationalFunction:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return value if sign == 1 else -value

    def power(self) -> RationalFunction:
        value = self.atom()
        if self.peek() == "^":
            self.take()
            at = self.pos
            exponent = self.integer("exponent")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", at)
            self.budget(at, exponent * value.num.degree, exponent * value.den.degree, exponent * _bits(value))
            return _ratfn_pow(value, exponent)
        return value

    def atom(self) -> RationalFunction:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self.take()
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if ch.isdigit():
            return as_rational_function(Fraction(self.integer("number")))
        if ch.isalpha():
            at = self.pos
            name = ""
            while self.pos < len(self.source) and self.source[self.pos].isalpha():
                name += self.source[self.pos]
                self.pos += 1
            if name not in VARIABLES:
                raise ParseError(f"unknown symbol {name!r}", at)
            return as_rational_function(X)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input", self.pos)

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.source) and self.source[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        digits = self.source[start : self.pos]
        # d digits are at least 10^(d-1) > 2^(3(d-1)): a longer run is over
        # the limit before int() has to convert it.
        if 3 * (len(digits) - 1) > MAX_COEFFICIENT_BITS or int(digits).bit_length() > MAX_COEFFICIENT_BITS:
            raise ParseError(f"{what} exceeds the limit of {MAX_COEFFICIENT_BITS} bits", start)
        return int(digits)


def _bits(value: RationalFunction) -> int:
    """The largest bit length of any numerator or denominator among the coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in value.num.coeffs + value.den.coeffs),
        default=0,
    )


def _ratfn_pow(value: RationalFunction, exponent: int) -> RationalFunction:
    # Powers of a coprime pair stay coprime, and a monic denominator's stay monic.
    return RationalFunction._reduced(value.num**exponent, value.den**exponent)


def parse_expression(source: str) -> Polynomial | RationalFunction:
    """Parse exact input; returns a Polynomial when the denominator is one."""
    value = _Parser(source).parse()
    if value.is_polynomial:
        return value.num
    return value
