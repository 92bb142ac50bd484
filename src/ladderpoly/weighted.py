"""The closed function class  coeff(x) * prod (x - root)^alpha * exp(p(x)).

Members combine a rational-function coefficient, fractional powers of distinct
linear factors, and an exponential of a polynomial.  The class is closed under
differentiation, multiplication, and division, which is what lets every
operator factorization and Rodrigues chain in this package be evaluated
exactly.  A scalar, polynomial or rational function enters the class through
``as_weighted``; ``power``, ``exp_of`` and ``exp_integral`` build the weights.
``exp_integral(r)`` is exp(int r); r lies in the integrable class exactly when
``algebra.partial_fractions(r)`` has only simple poles at rational roots.

Canonical form:
  * power exponents keep only their fractional part in (0, 1), so two equal
    members are structurally identical.  ``_fold`` merges each root's
    exponents, splits each sum with divmod(e, 1) and multiplies the integer
    parts into one numerator and one denominator; more than
    algebra.MAX_EXPONENT of them raise ValueError before anything is built.
    Sums, negations, derivatives and products with a weight-free factor keep
    a canonical cell.  The fold of other products and of quotients, and a
    cell's log-derivative, depend on the cells alone, which repeat (a
    split's testers meet the same cells): each sits in an lru_cache of 512 entries;
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
from functools import lru_cache
from typing import NamedTuple, Union

from .algebra import (
    MAX_EXPONENT,
    ONE,
    Polynomial,
    RationalFunction,
    Scalar,
    ZERO,
    _coerce_scalar,
    _sealed,
    as_rational_function,
    linear,
    partial_fractions,
)

Coercible = Union["WeightedExpression", RationalFunction, Polynomial, int, Fraction]


class NotPolynomialError(ValueError):
    """Raised when extraction demands a polynomial but weights survive."""


class WeightStructureError(ValueError):
    """Raised when two members with different weight cells are added or subtracted; ``operands`` holds both."""

    def __init__(self, verb: str, left: WeightedExpression, right: WeightedExpression) -> None:
        super().__init__(f"cannot {verb} weighted expressions with different weight structure: {left} vs {right}")
        self.operands = (left, right)


class PowerFactor(NamedTuple):
    """A factor (x - root)^exponent; canonical exponents lie strictly in (0, 1)."""

    root: Fraction
    exponent: Fraction


@dataclass(frozen=True, slots=True)
class WeightedExpression:
    coeff: RationalFunction
    powers: tuple[PowerFactor, ...] = ()
    exp_arg: Polynomial = ZERO

    def __post_init__(self) -> None:
        coeff = as_rational_function(self.coeff)
        if not isinstance(self.exp_arg, Polynomial):
            raise TypeError("exp_arg must be a Polynomial")
        powers = tuple((_coerce_scalar(root), _coerce_scalar(exponent)) for root, exponent in self.powers)
        num, den, powers, arg = _fold(powers, self.exp_arg) if not coeff.is_zero else (ONE, ONE, (), ZERO)
        _set_coeff(self, coeff._times(num, den))
        _set_powers(self, powers)
        _set_exp_arg(self, arg)

    # -- constructors -------------------------------------------------------

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
            raise WeightStructureError("add", self, other)
        return _in_cell(self.coeff + other.coeff, *self.weight_cell())

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            return self + (-other)
        except WeightStructureError:
            raise WeightStructureError("subtract", self, other) from None

    def __rsub__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self) -> WeightedExpression:
        return _in_cell(-self.coeff, *self.weight_cell())

    def __mul__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for kept, plain in ((self, other), (other, self)):
            if not plain.powers and plain.exp_arg.is_zero:  # zero included
                return _in_cell(self.coeff * other.coeff, *kept.weight_cell())
        num, den, powers, arg = _fold(self.powers + other.powers, self.exp_arg + other.exp_arg)
        return _in_cell((self.coeff * other.coeff)._times(num, den), powers, arg)

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero weighted expression")
        inverted = tuple((root, -exponent) for root, exponent in other.powers)
        num, den, powers, arg = _fold(self.powers + inverted, self.exp_arg - other.exp_arg)
        return _in_cell((self.coeff / other.coeff)._times(num, den), powers, arg)

    def __rtruediv__(self, other: Coercible) -> WeightedExpression:
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    # -- calculus -----------------------------------------------------------

    def diff(self) -> WeightedExpression:
        """Exact derivative; the class is closed so the result is canonical."""
        cell = self.weight_cell()
        return _in_cell(self.coeff.diff() + self.coeff * _weight_log_derivative(*cell), *cell)

    def log_derivative(self) -> RationalFunction:
        """(d/dx self)/self, always rational for this class."""
        if self.is_zero:
            raise ZeroDivisionError("log derivative of the zero expression")
        return self.coeff.diff() / self.coeff + _weight_log_derivative(*self.weight_cell())

    # -- extraction and comparison ------------------------------------------

    def as_polynomial(self) -> Polynomial:
        """The coefficient polynomial, once every weight has cancelled."""
        if self.powers or not self.exp_arg.is_zero or not self.coeff.is_polynomial:
            survivor = _in_cell(RationalFunction._reduced(ONE, self.coeff.den), *self.weight_cell())
            raise NotPolynomialError(f"not a polynomial; surviving {survivor}")
        return self.coeff.num

    def scalar_ratio(self, other: Coercible) -> Fraction | None:
        """The rational c with self = c*other, or None if no such nonzero c exists.

        Both zero compares as ratio 1; zero against nonzero has no nonzero
        ratio and returns None.
        """
        other = as_weighted(other)
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


_set_coeff, _set_powers, _set_exp_arg = _sealed(WeightedExpression)
_ZERO = WeightedExpression(RationalFunction(ZERO))  # frozen, so one shared instance serves every zero result


def _in_cell(coeff: RationalFunction, powers: tuple[PowerFactor, ...], exp_arg: Polynomial) -> WeightedExpression:
    """coeff times the weight of a canonical cell (powers, exp_arg): nothing to fold."""
    if coeff.is_zero:
        return _ZERO
    out = object.__new__(WeightedExpression)
    _set_coeff(out, coeff)
    _set_powers(out, powers)
    _set_exp_arg(out, exp_arg)
    return out


@lru_cache(maxsize=512)
def _fold(powers: tuple, arg: Polynomial) -> tuple[Polynomial, Polynomial, tuple[PowerFactor, ...], Polynomial]:
    """The integer parts num/den, a coprime pair of monic products, and the cell of prod (x - root)^e * exp(arg)."""
    merged: dict[Fraction, Fraction] = {}
    for root, exponent in powers:
        merged[root] = merged.get(root, 0) + exponent
    splits = [(root, *divmod(merged[root], 1)) for root in sorted(merged)]
    total = sum(abs(whole) for _, whole, _ in splits)
    if total > MAX_EXPONENT:
        raise ValueError(f"weight of integer degree {total} exceeds the limit {MAX_EXPONENT}")
    num = math.prod((linear(root) ** whole for root, whole, _ in splits if whole > 0), start=ONE)
    den = math.prod((linear(root) ** -whole for root, whole, _ in splits if whole < 0), start=ONE)
    if arg.ints and arg.ints[0]:
        arg = arg - arg.coefficient(0)
    return num, den, tuple(PowerFactor(root, frac) for root, _, frac in splits if frac), arg


@lru_cache(maxsize=512)
def _weight_log_derivative(powers: tuple[PowerFactor, ...], exp_arg: Polynomial) -> RationalFunction:
    """p' + sum e/(x - r) over the denominator prod (x - r), for the cell (powers, exp_arg = p).

    The roots are distinct and each e is nonzero, so the numerator is
    nonzero at every root and the pair is already reduced.
    """
    factors = [linear(pf.root) for pf in powers]
    common = math.prod(factors, start=ONE)
    num = exp_arg.diff() * common
    for i, pf in enumerate(powers):
        num = num + math.prod(factors[:i] + factors[i + 1 :], start=ONE) * pf.exponent
    return RationalFunction._reduced(num, common)


def _coerce(value: Coercible) -> WeightedExpression:
    if isinstance(value, WeightedExpression):
        return value
    if isinstance(value, (RationalFunction, Polynomial, int, Fraction)):
        return _in_cell(as_rational_function(value), (), ZERO)
    return NotImplemented


def as_weighted(value: Coercible) -> WeightedExpression:
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a weighted expression")
    return out


def exp_integral(r: RationalFunction) -> WeightedExpression:
    """exp(int r), constant 0: (x - root)^residue per pole; DecompositionError outside the class."""
    parts = partial_fractions(r)
    return WeightedExpression(RationalFunction(ONE), parts.terms, parts.quotient.integral())
