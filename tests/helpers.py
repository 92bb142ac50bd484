"""Check helpers shared by the test modules; the library itself never calls them."""

import math
from fractions import Fraction

from ladderpoly.algebra import (
    MAX_EXPONENT,
    ONE,
    X,
    DecompositionError,
    PartialFractions,
    Polynomial,
    RationalFunction,
    _coeff_ratios,
    as_rational_function,
    linear,
)
from ladderpoly.families import FamilySpec, make_operator, oracle_recurrence
from ladderpoly.identities import remainder_expansion
from ladderpoly.ladder import LOWERING, RAISING, Factorization, OutOfClassError, apply_chain, factorize
from ladderpoly.parsing import MAX_COEFFICIENT_BITS, MAX_NESTING, VARIABLES, ParseError
from ladderpoly.verify import random_drifts, representative_operators, standard_testers
from ladderpoly.weighted import WeightStructureError, as_weighted, exp_integral


def _legendre(n: int) -> Polynomial:
    return oracle_recurrence(FamilySpec("legendre", n))


def recombined(parts: PartialFractions) -> RationalFunction:
    """Reassemble a partial-fraction decomposition over a common denominator."""
    total = as_rational_function(parts.quotient)
    for root, residue in parts.terms:
        total = total + RationalFunction(Polynomial.constant(residue), linear(root))
    return total


def canonical_fields(p: Polynomial) -> tuple[int, int, tuple[int, ...]]:
    """p's (content_num, content_den, ints), once each is checked to be in canonical form.

    The content is a reduced int pair over a positive denominator, the ints
    are primitive with a positive leading entry, and zero is (0, 1, ()).
    """
    num, den, ints = p.content_num, p.content_den, p.ints
    assert type(num) is int and type(den) is int and type(ints) is tuple
    assert den > 0 and math.gcd(num, den) == 1
    if ints:
        assert num != 0 and ints[-1] > 0 and math.gcd(*ints) == 1
    else:
        assert (num, den) == (0, 1)
    return num, den, ints


def reference_poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid on primitive parts, one ``Polynomial`` remainder a step.

    Each remainder is already primitive; dropping its content keeps the
    scale factors of the fraction-free divisions from piling up in it.
    """
    while not b.is_zero:
        r = a % b
        a, b = b, Polynomial(r.ints)
    return a.monic()


def reference_cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(a/g, b/g, g) for the monic gcd g, by ``reference_poly_gcd`` and floor division."""
    if a.degree > 0 and b.degree > 0:
        g = reference_poly_gcd(a, b)
        if g.degree > 0:
            return a // g, b // g, g
    return a, b, ONE


def resolve_legendre_lowering_offset(n_max: int = 8) -> int:
    """Which index k = n + offset makes (-D (x^2-1) + k x) P_n = n P_(n-1) exact.

    Tried over offsets 0, 1, 2 for every n up to n_max; exactly one offset may
    survive.  The catalog relation tests assert the resolved value.
    """
    surviving = []
    for offset in (0, 1, 2):
        ok = True
        for n in range(1, n_max + 1):
            op = make_operator(FamilySpec("legendre", n + offset), LOWERING)
            if op.apply(_legendre(n)).as_polynomial() != _legendre(n - 1) * n:
                ok = False
                break
        if ok:
            surviving.append(offset)
    if len(surviving) != 1:
        raise AssertionError(f"lowering index not uniquely resolved: offsets {surviving}")
    return surviving[0]


def legendre_operator_relation_holds(n: int, drift) -> bool:
    """2^(n-1) n! P_n = R_n applied to 2^(n-1) (n-1)! P_(n-1), through the
    drift factorization; exact for every in-class drift."""
    op = make_operator(FamilySpec("legendre", n), RAISING)
    fac = factorize(op, drift)
    operand = as_weighted(_legendre(n - 1) * (2 ** (n - 1) * math.factorial(n - 1)))
    result = fac.apply(operand)
    expected = _legendre(n) * (2 ** (n - 1) * math.factorial(n))
    return result.as_polynomial() == expected


def probe_linear_coefficients(n: int) -> list[Polynomial]:
    """g_0..g_(n-2) of the linear-in-h part of F = sum g_j h^(j), from probes:
    the monomial drifts h = x^k, k = 0..n-2, each through a full
    ``remainder_expansion``, triangularized by falling factorials."""
    gs: list[Polynomial] = []
    for k in range(n - 1):
        linear_part = remainder_expansion(n, Polynomial.monomial(1, k))[1]
        for j, g in enumerate(gs):
            falling = Fraction(math.factorial(k), math.factorial(k - j))
            linear_part = linear_part - g * Polynomial.monomial(falling, k - j)
        gs.append(linear_part * Fraction(1, math.factorial(k)))
    return gs


def drift_factor_chain(row: tuple, t: RationalFunction) -> Polynomial:
    """A ``families.chain_row`` applied with e = exp(int t) put on its left and
    divided out of its operand: the chain with every D read as e D e^(-1) = D - t."""
    left, steps, operand, scale = row
    e = exp_integral(t)
    return (apply_chain([left * e, *steps], operand / e) * scale).as_polynomial()


def composed_apply(fac, u):
    """fac applied as the written composition, f1*(g2*u)' + h*u or, lowering,
    -(g2*(f1*u)') + h*u: one derivative and fold of the product per tester,
    independent of the product-rule expansion ``Factorization.apply`` uses."""
    u = as_weighted(u)
    if fac.form == RAISING:
        return fac.f1 * (fac.g2 * u).diff() + fac.h * u
    return -(fac.g2 * (fac.f1 * u).diff()) + fac.h * u


def reference_check(op, fac, u) -> tuple[bool, str | None]:
    """One tester's (ok, discrepancy), the direct way: composed_apply(fac, u) - op.apply(u)
    must be zero, a nonzero difference is printed, and a weight-cell mismatch names
    the two members it could not add."""
    u = as_weighted(u)
    expected = op.apply(u)
    try:
        difference = composed_apply(fac, u) - expected
    except WeightStructureError as exc:
        left, right = exc.operands
        return False, f"weight structure differs: {left.to_text(op.var)} vs {right.to_text(op.var)}"
    return difference.is_zero, None if difference.is_zero else difference.to_text(op.var)


def reference_factorize(op, drift) -> Factorization:
    """``ladder.factorize`` as it was written with one branch per operator shape:
    raising g2 = exp(int(B/A - t)), f1 = a/g2; lowering f1 = exp(int(B/A + t)),
    g2 = a/f1, for the operator expanded as A*D + B."""
    t = as_rational_function(drift)
    lead, slope = op._expanded
    ratio = slope.coeff / lead.coeff
    try:
        if op.form == RAISING:
            g2 = exp_integral(ratio - t)
            f1 = op.a / g2
        else:
            f1 = exp_integral(ratio + t)
            g2 = op.a / f1
    except DecompositionError as exc:
        raise OutOfClassError(f"drift outside the integrable class: {exc}") from exc
    h = op.a * as_weighted(t)
    return Factorization(f1, g2, h, t, op.form)


def reference_factorization_instances(split=factorize, num_drifts: int = 25) -> list[tuple[dict, bool, str | None]]:
    """The factorization suite's (params, ok, discrepancy) list, built the
    direct way: one ``reference_check`` per (operator, drift, tester)."""
    out = []
    for kind, op in representative_operators():
        for index, drift in enumerate(random_drifts(num_drifts)):
            fac = split(op, drift)
            for tester in standard_testers():
                params = {"family": kind, "drift": str(index), "tester": as_weighted(tester).to_text(op.var)}
                out.append((params, *reference_check(op, fac, tester)))
    return out


class _ReferenceParser:
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
                _reference_bits(value) + _reference_bits(right) + 1,
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
                _reference_bits(value) + _reference_bits(right),
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
            self.budget(at, exponent * value.num.degree, exponent * value.den.degree, exponent * _reference_bits(value))
            return _reference_pow(value, exponent)
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


def _reference_bits(value: RationalFunction) -> int:
    """The largest bit length of any numerator or denominator among the reduced coefficients."""
    pairs = (pair for poly in (value.num, value.den) for pair in _coeff_ratios(poly))
    return max((max(p.bit_length(), q.bit_length()) for p, q in pairs), default=0)


def _reference_pow(value: RationalFunction, exponent: int) -> RationalFunction:
    # Powers of a coprime pair stay coprime, and a monic denominator's stay monic.
    return RationalFunction._reduced(value.num**exponent, value.den**exponent)


def reference_parse(source: str) -> Polynomial | RationalFunction:
    """``parsing.parse_expression`` as it was written with every value a
    ``RationalFunction``, constants included, and digits read by ``str.isdigit``:
    an independent reference for values, ``ParseError`` texts and positions."""
    value = _ReferenceParser(source).parse()
    if value.is_polynomial:
        return value.num
    return value
