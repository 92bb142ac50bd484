"""First-order ladder operators and their drift-generalized factorizations.

An operator is a(x)*D + b(x) in one of two structural shapes:

  * ``raising``  -- applied as written:          u  ->  a u' + b u
  * ``lowering`` -- derivative after multiplication:  u  ->  -(a u)' + b u

Any such operator splits as f1 * D * g2 + h for an arbitrary drift h (lowering
shape: -g2 * D * f1 + h), with f1 g2 = a.  The drift is supplied reduced, as
t = h/a, because t is the quantity actually integrated: the factorization
exists in closed form exactly when t and b/a lie in the integrable class of
``algebra.integrate_rational``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .algebra import (
    DecompositionError,
    Polynomial,
    RationalFunction,
    Scalar,
    as_rational_function,
    integrate_rational,
)
from .weighted import WeightedExpression, as_weighted, exp_integral

RAISING = "raising"
LOWERING = "lowering"


class OutOfClassError(ValueError):
    """The requested factorization needs an integral outside the supported class."""


class _Differentiate:
    """Chain-step sentinel for d/dx."""

    def __repr__(self) -> str:
        return "d/dx"


DIFF = _Differentiate()

ChainStep = Union[WeightedExpression, _Differentiate]


@dataclass(frozen=True)
class LadderOperator:
    """a*D + b with weighted-expression coefficients and a structural form flag.

    The flag records how the printed operator composes, not which way it moves
    a family index: several families print their index-lowering operators in
    the plain a*D + b shape.
    """

    a: WeightedExpression
    b: WeightedExpression
    form: str = RAISING
    name: str = ""
    var: str = "x"

    def __post_init__(self) -> None:
        if self.form not in (RAISING, LOWERING):
            raise ValueError(f"unknown operator form: {self.form}")
        if self.a.is_zero:
            raise ValueError("operator derivative coefficient must be nonzero")

    def apply(self, u: WeightedExpression | Polynomial | Scalar) -> WeightedExpression:
        u = as_weighted(u)
        if self.form == RAISING:
            return self.a * u.diff() + self.b * u
        return -(self.a * u).diff() + self.b * u

    def __str__(self) -> str:
        a, b = self.a.to_text(self.var), self.b.to_text(self.var)
        body = f"({a})*D + {b}" if self.form == RAISING else f"-D*({a}) + {b}"
        return (f"{self.name} = " if self.name else "") + body


@dataclass(frozen=True)
class Factorization:
    """The split f1 * D * g2 + h (raising) or -g2 * D * f1 + h (lowering).

    Scalar normalization is deterministic: the exponential side uses
    integration constant zero, and the other factor is a divided by it, so
    f1 * g2 = a holds exactly.
    """

    f1: WeightedExpression
    g2: WeightedExpression
    h: WeightedExpression
    drift: RationalFunction
    form: str = RAISING

    def apply(self, u: WeightedExpression | Polynomial | Scalar) -> WeightedExpression:
        u = as_weighted(u)
        if self.form == RAISING:
            return self.f1 * (self.g2 * u).diff() + self.h * u
        return -(self.g2 * (self.f1 * u).diff()) + self.h * u


def rational_part(w: WeightedExpression, what: str) -> RationalFunction:
    if w.powers or not w.exp_arg.is_zero:
        raise OutOfClassError(f"{what} is not a rational function: {w}")
    return w.coeff


def factorize(
    op: LadderOperator, drift: RationalFunction | Polynomial | Scalar
) -> Factorization:
    """Split ``op`` for the reduced drift t = h/a, exactly.

    Raising shape: g2 = exp(int(b/a - t)) and f1 = a/g2, so that
    log_derivative(g2) = b/a - t.  Lowering shape: f1 = exp(int((a'-b)/a + t))
    and g2 = a/f1.  Raises OutOfClassError when the integrand has a repeated
    or irrational pole.
    """
    t = as_rational_function(drift)
    ratio = rational_part(op.b / op.a, "b/a")
    try:
        if op.form == RAISING:
            g2 = exp_integral(integrate_rational(ratio - t))
            f1 = op.a / g2
        else:
            f1 = exp_integral(integrate_rational(op.a.log_derivative() - ratio + t))
            g2 = op.a / f1
    except DecompositionError as exc:
        raise OutOfClassError(f"drift outside the integrable class: {exc}") from exc
    h = op.a * WeightedExpression.from_rational(t)
    return Factorization(f1, g2, h, t, op.form)


@dataclass
class FactorizationCheck:
    tester: str
    ok: bool
    discrepancy: str | None = None


@dataclass
class FactorizationReport:
    checks: list[FactorizationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> FactorizationCheck | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def summary(self) -> str:
        passed = sum(c.ok for c in self.checks)
        text = f"{passed}/{len(self.checks)} testers exact"
        if not self.ok:
            text += f"; first failure on {self.first_failure.tester}"
        return text


def verify_factorization(
    op: LadderOperator,
    fac: Factorization,
    testers: Iterable[WeightedExpression | Polynomial | Scalar],
) -> FactorizationReport:
    """Check that the factorized application agrees with the operator on each tester."""
    report = FactorizationReport()
    for tester in testers:
        u = as_weighted(tester)
        expected = op.apply(u)
        got = fac.apply(u)
        difference = got - expected
        report.checks.append(
            FactorizationCheck(
                tester=u.to_text(op.var),
                ok=difference.is_zero,
                discrepancy=None if difference.is_zero else difference.to_text(op.var),
            )
        )
    return report


def apply_chain(
    steps: Sequence[ChainStep], u: WeightedExpression | Polynomial | Scalar
) -> WeightedExpression:
    """Apply a printed operator chain, rightmost step first.

    ``steps`` is written in display order: multiply-by steps are weighted
    expressions, differentiation is the DIFF sentinel.
    """
    acc = as_weighted(u)
    for step in reversed(steps):
        if isinstance(step, _Differentiate):
            acc = acc.diff()
        else:
            acc = as_weighted(step) * acc
    return acc
