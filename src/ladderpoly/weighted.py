"""The closed function class  coeff(x) * prod (x - root)^alpha * exp(p(x)).

Members combine a rational-function coefficient, fractional powers of distinct
linear factors, and an exponential of a polynomial.  The class is closed under
differentiation, multiplication, and division, which is what lets every
operator factorization and Rodrigues chain in this package be evaluated
exactly.

Canonical form:
  * power exponents keep only their fractional part in (0, 1), so two equal
    members are structurally identical.  The constructor folds in one pass:
    it merges each root's exponents, splits each sum with divmod(e, 1) and
    multiplies all integer parts into one numerator and one denominator, so
    it builds at most one RationalFunction.  Integer parts totalling more
    than algebra.MAX_EXPONENT raise ValueError before anything is built.
    Sums, negations and derivatives keep their operand's weight, which is
    canonical already, and skip the fold;
  * the constant term of the exponential argument is dropped (a factor
    exp(const) is not rational, and every comparison downstream is made up to
    a nonzero scalar anyway);
  * square roots of quadratics are stored split at their roots, e.g. the
    canonical stand-in for (x^2-1)^(1/2) is (x-1)^(1/2) (x+1)^(1/2).

The last point means the canonical base is always (x - root).  On (-1, 1) the
split form differs from (1-x^2)^(1/2) by a constant phase that has no rational
representation; callers compare against printed (1-x^2)-style displays via
``scalar_ratio`` or after full chains, where the ambiguity cancels.  Roots
and exponents are exact scalars (int or Fraction); a float raises TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .algebra import (
    MAX_EXPONENT,
    ONE,
    Polynomial,
    RationalFunction,
    IntegrationResult,
    Scalar,
    ZERO,
    _coerce_scalar,
    as_rational_function,
    linear,
)

Coercible = Union["WeightedExpression", RationalFunction, Polynomial, int, Fraction]


class NotPolynomialError(ValueError):
    """Raised when extraction demands a polynomial but weights survive."""


class PowerFactor(NamedTuple):
    """A factor (x - root)^exponent; canonical exponents lie strictly in (0, 1)."""

    root: Fraction
    exponent: Fraction


@dataclass(frozen=True)
class WeightedExpression:
    coeff: RationalFunction
    powers: tuple[PowerFactor, ...] = ()
    exp_arg: Polynomial = ZERO

    def __post_init__(self) -> None:
        coeff = as_rational_function(self.coeff)
        if not isinstance(self.exp_arg, Polynomial):
            raise TypeError("exp_arg must be a Polynomial")
        merged: dict[Fraction, Fraction] = {}
        for root, exponent in self.powers:
            root = _coerce_scalar(root)
            merged[root] = merged.get(root, 0) + _coerce_scalar(exponent)
        arg = self.exp_arg
        if coeff.is_zero:
            merged, arg = {}, ZERO
        splits = [(root, *divmod(merged[root], 1)) for root in sorted(merged)]
        total = sum(abs(whole) for _, whole, _ in splits)
        if total > MAX_EXPONENT:
            raise ValueError(f"weight of integer degree {total} exceeds the limit {MAX_EXPONENT}")
        if total:
            # The integer parts form a coprime pair of monic products, so only
            # the product rule's two gcds with the coefficient can cancel.
            num = math.prod((linear(root) ** whole for root, whole, _ in splits if whole > 0), start=ONE)
            den = math.prod((linear(root) ** -whole for root, whole, _ in splits if whole < 0), start=ONE)
            coeff = coeff._times(num, den)
        if arg.ints and arg.ints[0]:
            arg = arg - arg.coefficient(0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "powers", tuple(PowerFactor(root, frac) for root, _, frac in splits if frac))
        object.__setattr__(self, "exp_arg", arg)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> WeightedExpression:
        return cls(RationalFunction(ZERO))

    @classmethod
    def one(cls) -> WeightedExpression:
        return cls(RationalFunction(ONE))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> WeightedExpression:
        return cls(RationalFunction(p))

    @classmethod
    def from_rational(cls, r: RationalFunction | Polynomial | Scalar) -> WeightedExpression:
        return cls(as_rational_function(r))

    @classmethod
    def power(cls, root: Scalar, exponent: Scalar) -> WeightedExpression:
        """(x - root)^exponent for any rational exponent."""
        return cls(RationalFunction(ONE), ((root, exponent),))

    @classmethod
    def exp_of(cls, argument: Polynomial) -> WeightedExpression:
        return cls(RationalFunction(ONE), (), argument)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

    def weight_cell(self) -> tuple[tuple[PowerFactor, ...], Polynomial]:
        """The (powers, exp_arg) pair two members must share to be addable."""
        return (self.powers, self.exp_arg)

    def _in_cell(self, coeff: RationalFunction) -> WeightedExpression:
        """coeff times this member's weight, which is canonical already: nothing to fold."""
        if coeff.is_zero:
            return WeightedExpression.zero()
        out = object.__new__(WeightedExpression)
        object.__setattr__(out, "coeff", coeff)
        object.__setattr__(out, "powers", self.powers)
        object.__setattr__(out, "exp_arg", self.exp_arg)
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight_cell() != other.weight_cell():
            raise ValueError(
                "cannot add weighted expressions with different weight structure: "
                f"{self} vs {other}"
            )
        return self._in_cell(self.coeff + other.coeff)

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coercible) -> WeightedExpression:
        return -(self - other)

    def __neg__(self) -> WeightedExpression:
        return self._in_cell(-self.coeff)

    def __mul__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return WeightedExpression.zero()
        return WeightedExpression(
            self.coeff * other.coeff,
            self.powers + other.powers,
            self.exp_arg + other.exp_arg,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero weighted expression")
        if self.is_zero:
            return WeightedExpression.zero()
        inverted = tuple((root, -exponent) for root, exponent in other.powers)
        return WeightedExpression(
            self.coeff / other.coeff,
            self.powers + inverted,
            self.exp_arg - other.exp_arg,
        )

    def __rtruediv__(self, other: Coercible) -> WeightedExpression:
        return _coerce(other) / self

    # -- calculus -----------------------------------------------------------

    def _weight_log_derivative(self) -> RationalFunction:
        """p' + sum e/(x - r) over the denominator prod (x - r).

        The roots are distinct and each e is nonzero, so the numerator is
        nonzero at every root and the pair is already reduced.
        """
        factors = [linear(pf.root) for pf in self.powers]
        common = math.prod(factors, start=ONE)
        num = self.exp_arg.diff() * common
        for i, pf in enumerate(self.powers):
            num = num + math.prod(factors[:i] + factors[i + 1 :], start=ONE) * pf.exponent
        return RationalFunction._reduced(num, common)

    def diff(self) -> WeightedExpression:
        """Exact derivative; the class is closed so the result is canonical."""
        if self.is_zero:
            return self
        return self._in_cell(self.coeff.diff() + self.coeff * self._weight_log_derivative())

    def log_derivative(self) -> RationalFunction:
        """(d/dx self)/self, always rational for this class."""
        if self.is_zero:
            raise ZeroDivisionError("log derivative of the zero expression")
        return self.coeff.diff() / self.coeff + self._weight_log_derivative()

    # -- extraction and comparison ------------------------------------------

    def as_polynomial(self) -> Polynomial:
        """The coefficient polynomial, once every weight has cancelled."""
        if self.is_zero:
            return ZERO
        survivors = []
        if self.powers:
            survivors.append(
                "power factors " + ", ".join(f"(x - {pf.root})^{pf.exponent}" for pf in self.powers)
            )
        if not self.exp_arg.is_zero:
            survivors.append(f"exponential exp({self.exp_arg})")
        if not self.coeff.is_polynomial:
            survivors.append(f"denominator {self.coeff.den}")
        if survivors:
            raise NotPolynomialError("not a polynomial; surviving " + "; ".join(survivors))
        return self.coeff.num

    def scalar_ratio(self, other: Coercible) -> Fraction | None:
        """The rational c with self = c*other, or None if no such nonzero c exists.

        Both zero compares as ratio 1; zero against nonzero has no nonzero
        ratio and returns None.
        """
        other = _coerce(other)
        if self.is_zero and other.is_zero:
            return Fraction(1)
        if self.is_zero or other.is_zero:
            return None
        if self.weight_cell() != other.weight_cell():
            return None
        ratio = self.coeff / other.coeff
        return ratio.num.coefficient(0) if ratio.is_polynomial and ratio.num.degree == 0 else None

    def to_text(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        if self.coeff != RationalFunction(ONE) or (not self.powers and self.exp_arg.is_zero):
            text = self.coeff.to_text(var)
            if self.coeff.is_polynomial and self.coeff.num.degree > 0 and (self.powers or not self.exp_arg.is_zero):
                text = f"({text})"
            parts.append(text)
        for pf in self.powers:
            base = var if pf.root == 0 else f"({linear(pf.root).to_text(var)})"
            parts.append(f"{base}^({pf.exponent})")
        if not self.exp_arg.is_zero:
            parts.append(f"exp({self.exp_arg.to_text(var)})")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


def _coerce(value: Coercible) -> WeightedExpression:
    if isinstance(value, WeightedExpression):
        return value
    if isinstance(value, (RationalFunction, Polynomial, int, Fraction)):
        return WeightedExpression(as_rational_function(value))
    return NotImplemented


def as_weighted(value: Coercible) -> WeightedExpression:
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a weighted expression")
    return out


def exp_integral(result: IntegrationResult) -> WeightedExpression:
    """exp(integral): power factors from residues, exponential from the polynomial part."""
    return WeightedExpression(RationalFunction(ONE), result.log_terms, result.poly_part)
