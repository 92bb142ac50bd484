"""Exact univariate polynomial and rational-function arithmetic over the rationals.

Scalars are ``fractions.Fraction`` throughout (exported here as ``Rational``):
arbitrary precision, always reduced, positive denominator.  A polynomial is a
dense tuple of coefficients indexed by degree with no trailing zeros; the zero
polynomial is the empty tuple.  A rational function keeps its denominator monic
and coprime to the numerator, so equal functions have identical representations.

The module also provides partial-fraction decomposition and symbolic
integration for rational functions whose denominators split into distinct
rational linear factors.  That is exactly the class whose antiderivative is a
polynomial plus a sum of logarithms, which downstream code exponentiates back
into weighted expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction

Scalar = Union[int, Fraction]


class DecompositionError(ValueError):
    """The rational function lies outside the supported integrable class."""


class RepeatedPoleError(DecompositionError):
    """Denominator is not square-free."""


class IrreducibleFactorError(DecompositionError):
    """Denominator has an irreducible non-linear factor over the rationals."""


def _coerce_scalar(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; ``coeffs[k]`` is the degree-k coefficient."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(_coerce_scalar(c) for c in self.coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def of(cls, *coeffs: Scalar) -> Polynomial:
        """Build from coefficients listed in ascending degree order."""
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return cls((Fraction(value),))

    @classmethod
    def monomial(cls, coeff: Scalar, degree: int) -> Polynomial:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((Fraction(0),) * degree + (Fraction(coeff),))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(tuple(merged))

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        return -(self - other)

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = ZERO
        remainder = self
        while not remainder.is_zero and remainder.degree >= other.degree:
            shift = remainder.degree - other.degree
            factor = Polynomial.monomial(remainder.leading / other.leading, shift)
            quotient = quotient + factor
            remainder = remainder - factor * other
        return quotient, remainder

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _coerce_scalar(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def diff(self) -> Polynomial:
        return Polynomial(tuple(c * k for k, c in enumerate(self.coeffs) if k > 0))

    def integral(self) -> Polynomial:
        """Antiderivative with integration constant fixed to zero."""
        return Polynomial((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    def compose(self, inner: Polynomial) -> Polynomial:
        """Substitution self(inner(x)), exact."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def to_text(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=False)

    def to_latex(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=True)

    def __str__(self) -> str:
        return self.to_text()


ZERO = Polynomial()
ONE = Polynomial((Fraction(1),))
X = Polynomial((Fraction(0), Fraction(1)))


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((Fraction(value),))
    return NotImplemented


def linear(root: Scalar) -> Polynomial:
    """The monic factor (x - root)."""
    return Polynomial((-Fraction(root), Fraction(1)))


def nth_derivative(p: Polynomial, order: int) -> Polynomial:
    """The order-th derivative of p."""
    for _ in range(order):
        p = p.diff()
    return p


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid's algorithm."""
    while not b.is_zero:
        a, b = b, (a % b).monic() if not (a % b).is_zero else ZERO
    return a.monic() if not a.is_zero else ZERO


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials in canonical form: den monic, gcd(num, den) = 1."""

    num: Polynomial
    den: Polynomial = ONE

    def __post_init__(self) -> None:
        num = _as_poly(self.num)
        den = _as_poly(self.den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num, den = num * (1 / lead), den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_scalar(cls, value: Scalar) -> RationalFunction:
        return cls(Polynomial.constant(value), ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    @property
    def is_constant(self) -> bool:
        return self.den == ONE and self.num.degree <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant rational function: {self}")
        return self.num.coefficient(0)

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"denominator {self.den} does not divide numerator")
        return self.num

    def __add__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return -(self - other)

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return _as_ratfn(other) / self

    def diff(self) -> RationalFunction:
        return RationalFunction(
            self.num.diff() * self.den - self.num * self.den.diff(),
            self.den * self.den,
        )

    def __call__(self, point: Scalar) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def to_text(self, var: str = "x") -> str:
        if self.is_polynomial:
            return self.num.to_text(var)
        num = self.num.to_text(var)
        if self.num.degree > 0:
            num = f"({num})"
        return f"{num}/({self.den.to_text(var)})"

    def __str__(self) -> str:
        return self.to_text()


RF_ZERO = RationalFunction(ZERO, ONE)
RF_ONE = RationalFunction(ONE, ONE)


def _as_ratfn(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value, ONE)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(Polynomial.constant(value), ONE)
    return NotImplemented


def as_rational_function(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    out = _as_ratfn(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a rational function")
    return out


@dataclass(frozen=True)
class PartialFractions:
    """r = quotient + sum residue/(x - root) over distinct rational roots."""

    quotient: Polynomial
    terms: tuple[tuple[Fraction, Fraction], ...]  # (root, residue), sorted by root

    def recombined(self) -> RationalFunction:
        """Reassemble over a common denominator (used to cross-check exactness)."""
        total = as_rational_function(self.quotient)
        for root, residue in self.terms:
            total = total + RationalFunction(Polynomial.constant(residue), linear(root))
        return total


@dataclass(frozen=True)
class IntegrationResult:
    """Antiderivative ``poly_part + sum residue*ln(x - root)``, constant fixed to 0."""

    poly_part: Polynomial
    log_terms: tuple[tuple[Fraction, Fraction], ...]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def rational_roots(p: Polynomial) -> tuple[list[Fraction], Polynomial]:
    """All rational roots with multiplicity, plus the root-free residual factor."""
    roots: list[Fraction] = []
    current = p
    while current.degree >= 1:
        if current.coefficient(0) == 0:
            roots.append(Fraction(0))
            current = current // X
            continue
        scale = math.lcm(*(c.denominator for c in current.coeffs))
        ints = [int(c * scale) for c in current.coeffs]
        found = None
        for q in _divisors(ints[-1]):
            for pnum in _divisors(ints[0]):
                for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                    if current(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        current = current // linear(found)
    return roots, current


def partial_fractions(r: RationalFunction) -> PartialFractions:
    """Decompose into polynomial part plus simple poles at rational roots.

    Raises RepeatedPoleError if the denominator is not square-free and
    IrreducibleFactorError if it has a rationally irreducible non-linear
    factor; both mean the input is outside the integrable class.
    """
    quotient, remainder = divmod(r.num, r.den)
    if remainder.is_zero:
        return PartialFractions(quotient, ())
    den = r.den
    if poly_gcd(den, den.diff()).degree > 0:
        raise RepeatedPoleError(f"denominator {den} has a repeated factor")
    roots, residual = rational_roots(den)
    if residual.degree > 0:
        raise IrreducibleFactorError(
            f"denominator factor {residual} is irreducible over the rationals"
        )
    dprime = den.diff()
    terms = tuple((root, remainder(root) / dprime(root)) for root in sorted(roots))
    return PartialFractions(quotient, terms)


def integrate_rational(r: RationalFunction) -> IntegrationResult:
    """Exact antiderivative of an integrable-class rational function."""
    parts = partial_fractions(r)
    return IntegrationResult(parts.quotient.integral(), parts.terms)


def _fmt_coeff(c: Fraction, latex: bool) -> str:
    if latex and c.denominator != 1:
        sign = "-" if c < 0 else ""
        return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return str(c)


def _render_poly(p: Polynomial, var: str, latex: bool) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            body = _fmt_coeff(abs(c), latex)
        else:
            if k == 1:
                power = var
            elif latex:
                power = f"{var}^{k}" if k < 10 else f"{var}^{{{k}}}"
            else:
                power = f"{var}^{k}"
            if abs(c) == 1:
                body = power
            elif latex:
                body = f"{_fmt_coeff(abs(c), latex)}{power}"
            else:
                body = f"{_fmt_coeff(abs(c), latex)}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
