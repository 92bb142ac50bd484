"""Recursive-descent parser for exact polynomial and rational-function input.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' integer)?
    atom   := integer | variable | '(' expr ')'

Integers are unsigned digit runs; rationals are written with '/' (ordinary
division).  The variable is ``x`` or ``r``.  Exponents are nonnegative
integers, capped to keep inputs sane, and parentheses nest at most MAX_NESTING
deep, far inside the recursion limit.  The result is a Polynomial whenever the
denominator reduces to one, otherwise a RationalFunction.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Polynomial, RationalFunction, X, as_rational_function

MAX_EXPONENT = 512
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

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            right = self.unary()
            if op == "*":
                value = value * right
            else:
                if right.is_zero:
                    raise ParseError("division by zero", self.pos)
                value = value / right
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
        return int(self.source[start : self.pos])


def _ratfn_pow(value: RationalFunction, exponent: int) -> RationalFunction:
    return RationalFunction(value.num**exponent, value.den**exponent)


def parse_expression(source: str) -> Polynomial | RationalFunction:
    """Parse exact input; returns a Polynomial when the denominator is one."""
    value = _Parser(source).parse()
    value = as_rational_function(value)
    if value.is_polynomial:
        return value.num
    return value
