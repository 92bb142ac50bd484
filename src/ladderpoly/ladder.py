"""First-order ladder operators and their drift-generalized factorizations.

An operator is a(x)*D + b(x) in one of two structural shapes:

  * ``raising``  -- applied as written:          u  ->  a u' + b u
  * ``lowering`` -- derivative after multiplication:  u  ->  -(a u)' + b u

Any such operator splits as f1 * D * g2 + h for an arbitrary drift h (lowering
shape: -g2 * D * f1 + h), with f1 g2 = a.  The drift is supplied reduced, as
t = h/a, because t is the quantity actually integrated: the factorization
exists in closed form exactly when t and b/a lie in the integrable class, the
rational functions r for which ``weighted.exp_integral(r)`` exists, that is,
whose ``algebra.partial_fractions`` has only simple poles at rational roots.

A check compares the split's product-rule expansion with the operator's own by
equality, once; the testers are evaluated only when the two differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .algebra import DecompositionError, Polynomial, RationalFunction, Scalar, as_rational_function
from .weighted import Coercible, WeightStructureError, WeightedExpression, _in_cell, as_weighted, exp_integral

RAISING = "raising"
LOWERING = "lowering"
_label = lru_cache(maxsize=64)(WeightedExpression.to_text)  # a tester's label, rendered once per variable


class OutOfClassError(ValueError):
    """The requested factorization needs an integral outside the supported class."""


class _Differentiate:
    """Chain-step sentinel for d/dx."""

    def __repr__(self) -> str:
        return "d/dx"


DIFF = _Differentiate()


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
        if not self.b.is_zero and self.b.weight_cell() != self.a.weight_cell():  # b/a must be rational
            raise ValueError(f"operator coefficients in different weight cells: {self.a} vs {self.b}")

    def apply(self, u: WeightedExpression | Polynomial | Scalar) -> WeightedExpression:
        (a, b), u = self._expanded, as_weighted(u)
        return a * u.diff() + b * u

    @cached_property
    def _expanded(self) -> tuple[WeightedExpression, WeightedExpression]:
        """(A, B) with the operator equal to A*D + B: (a, b), or (-a, b - a') lowering."""
        return (self.a, self.b) if self.form == RAISING else (-self.a, self.b - self.a.diff())

    def __str__(self) -> str:
        a, b = self.a.to_text(self.var), self.b.to_text(self.var)
        body = f"({a})*D + {b}" if self.form == RAISING else f"-D*({a}) + {b}"
        return (f"{self.name} = " if self.name else "") + body


@dataclass(frozen=True)
class Factorization:
    """The split f1 * D * g2 + h (raising) or -g2 * D * f1 + h (lowering).

    ``apply`` expands it by the product rule alone, never using f1 * g2 = a:
    lead*D + slope + h, lead = outer*inner being f1*g2 or -g2*f1 and the slope
    outer*inner' read as lead*(inner'/inner) in lead's cell, zero when lead is.
    """

    f1: WeightedExpression
    g2: WeightedExpression
    h: WeightedExpression
    drift: RationalFunction
    form: str = RAISING

    @cached_property
    def _expanded(self) -> tuple[WeightedExpression, WeightedExpression]:
        outer, inner = (self.f1, self.g2) if self.form == RAISING else (-self.g2, self.f1)
        lead = outer * inner
        return lead, lead if lead.is_zero else _in_cell(lead.coeff * inner.log_derivative(), *lead.weight_cell())

    def apply(self, u: WeightedExpression | Polynomial | Scalar) -> WeightedExpression:
        lead, slope = self._expanded
        u = as_weighted(u)
        return lead * u.diff() + slope * u + self.h * u


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
    and g2 = a/f1.  Both ratios are B/A for the operator expanded as A*D + B.
    Raises OutOfClassError when the integrand has a repeated or irrational pole.
    """
    t = as_rational_function(drift)
    lead, slope = op._expanded
    ratio = slope.coeff / lead.coeff  # B/A, as a and b share a weight cell
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


@dataclass
class InstanceResult:
    """One exact check: its parameters, its outcome and, on failure, the discrepancy."""

    params: dict[str, str]
    ok: bool
    discrepancy: str | None = None


@dataclass
class FactorizationReport:
    checks: list[InstanceResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> InstanceResult | None:
        return next((c for c in self.checks if not c.ok), None)

    def summary(self) -> str:
        passed = sum(c.ok for c in self.checks)
        text = f"{passed}/{len(self.checks)} testers exact"
        if not self.ok:
            text += f"; first failure on {self.first_failure.params['tester']}" if self.checks else "; nothing checked"
        return text


def verify_factorization(op: LadderOperator, fac: Factorization, testers: Iterable[Coercible]) -> FactorizationReport:
    """Check that the factorized application agrees with the operator on each tester.

    By the product rule fac.apply(u) - op.apply(u) = (lead - A) u' + (slope + h - B) u
    for every u; members are canonical, so when lead == A and slope + h == B every
    tester is exact and none is evaluated.  Otherwise each tester compares
    fac.apply(u) with op.apply(u) by canonical equality, and a failure carries the difference.
    """
    (lead, slope), (a, b) = fac._expanded, op._expanded
    try:
        identity = lead == a and slope + fac.h == b
    except WeightStructureError:
        identity = False
    report = FactorizationReport()
    for u in map(as_weighted, testers):
        ok, text = identity, None
        if not identity:
            expected = op.apply(u)
            try:
                got = fac.apply(u)
                ok = got == expected
                text = None if ok else (got - expected).to_text(op.var)
            except WeightStructureError as exc:  # in fac.apply or the difference: nothing to print, so name both
                ok, (left, right) = False, exc.operands
                text = f"weight structure differs: {left.to_text(op.var)} vs {right.to_text(op.var)}"
        report.checks.append(InstanceResult({"tester": _label(u, op.var)}, ok, text))
    return report


def apply_chain(
    steps: Sequence[WeightedExpression | _Differentiate], u: WeightedExpression | Polynomial | Scalar
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
