"""Exact verification of the derivative/recurrence identities and the remainder term.

Every check here reduces to equality of polynomials or weighted expressions
over exact rationals; a failing instance always carries the nonzero
discrepancy it found.  Family polynomials entering an identity are produced by
the recurrence oracles, so the identities test the operators and chains, not
the generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

from .algebra import ONE, Polynomial, RationalFunction, X, ZERO, integrate_rational, nth_derivative
from .families import (
    FamilySpec,
    X_SQ_MINUS_1,
    assoc_legendre_iterated,
    generate_assoc_legendre,
    make_operator,
    oracle_recurrence,
    qpow,
)
from .ladder import DIFF, ChainStep, LOWERING, RAISING, apply_chain
from .weighted import WeightedExpression, exp_integral

DEFAULT_LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


@dataclass
class InstanceResult:
    params: dict[str, str]
    ok: bool
    discrepancy: str | None = None


@dataclass
class IdentityReport:
    identity_id: str
    instances: list[InstanceResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(inst.ok for inst in self.instances)

    def failures(self) -> list[InstanceResult]:
        return [inst for inst in self.instances if not inst.ok]

    def add(self, params: dict[str, str], difference: Polynomial | WeightedExpression) -> None:
        """Record an instance from a difference that should be zero."""
        self.record(params, difference.is_zero, str(difference))

    def record(self, params: dict[str, str], ok: bool, discrepancy: str | None) -> None:
        """Record an instance with its outcome; the discrepancy is kept only on failure."""
        self.instances.append(InstanceResult(params, ok, None if ok else discrepancy))

    def summary(self) -> str:
        passed = sum(inst.ok for inst in self.instances)
        return f"{self.identity_id}: {passed}/{len(self.instances)} instances exact"

    def to_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "ok": self.ok,
            "instances": [
                {"params": inst.params, "ok": inst.ok, "discrepancy": inst.discrepancy}
                for inst in self.instances
            ],
        }


def _legendre(n: int) -> Polynomial:
    return oracle_recurrence(FamilySpec("legendre", n))


def check_eq31(n_max: int) -> IdentityReport:
    """(x^2-1) D^n (x^2-1)^(n-1) = n(n-1) D^(n-2) (x^2-1)^(n-1), with both sides
    vanishing at x = +-1."""
    report = IdentityReport("eq31")
    for n in range(2, n_max + 1):
        base = X_SQ_MINUS_1 ** (n - 1)
        lhs = X_SQ_MINUS_1 * nth_derivative(base, n)
        rhs = nth_derivative(base, n - 2) * (n * (n - 1))
        report.add({"n": str(n)}, lhs - rhs)
        for point in (1, -1):
            report.add(
                {"n": str(n), "boundary": str(point), "side": "left"},
                Polynomial.constant(lhs(point)),
            )
            report.add(
                {"n": str(n), "boundary": str(point), "side": "right"},
                Polynomial.constant(rhs(point)),
            )
    return report


def check_remark_three_term(n_max: int) -> IdentityReport:
    """(x^2-1) D^(n-1) w - 2x D^(n-2) w = (n+1)(n-2) D^(n-3) w for w = (x^2-1)^(n-1)."""
    report = IdentityReport("remark3term")
    for n in range(3, n_max + 1):
        base = X_SQ_MINUS_1 ** (n - 1)
        lhs = X_SQ_MINUS_1 * nth_derivative(base, n - 1) - X * nth_derivative(base, n - 2) * 2
        rhs = nth_derivative(base, n - 3) * ((n + 1) * (n - 2))
        report.add({"n": str(n)}, lhs - rhs)
    return report


def check_remark_three_term_legendre(n_max: int) -> IdentityReport:
    """The same three-term identity rewritten over Legendre polynomials."""
    report = IdentityReport("remark3term-legendre")
    for n in range(3, n_max + 1):
        p = {k: _legendre(k) for k in (n - 3, n - 2, n - 1, n, n + 1)}
        lhs = X_SQ_MINUS_1 * p[n - 1] + X * (p[n - 2] - p[n]) * Fraction(2, 2 * n - 1)
        rhs = (
            (p[n - 1] - p[n - 3]) * Fraction(1, 2 * n - 3)
            + (p[n - 1] - p[n + 1]) * Fraction(1, 2 * n + 1)
        ) * Fraction((n + 1) * (n - 2), 1 - 2 * n)
        report.add({"n": str(n)}, lhs - rhs)
    return report


def check_eq34(n_max: int) -> IdentityReport:
    """(n+1) int_0^x P_n = -P_(n-1) + x P_n + P_(n-1)(0)."""
    report = IdentityReport("eq34")
    for n in range(1, n_max + 1):
        pn, pm = _legendre(n), _legendre(n - 1)
        lhs = pn.integral() * (n + 1)
        rhs = X * pn - pm + pm(0)
        report.add({"n": str(n)}, lhs - rhs)
    return report


def check_eq33_eq35(n_max: int) -> IdentityReport:
    """Equality of the two derivative/integral routes to 2^(n-1) n! [P_n - x P_(n-1)]."""
    report = IdentityReport("eq33-35")
    for n in range(2, n_max + 1):
        pn, pm, pk = _legendre(n), _legendre(n - 1), _legendre(n - 2)
        scale = 2 ** (n - 1)
        display33 = X_SQ_MINUS_1 * pm.diff() * (scale * math.factorial(n - 1))
        display35 = (pn - X * pm) * (scale * math.factorial(n))
        report.add({"n": str(n), "step": "3.3 = 3.5"}, display33 - display35)
        # the elimination step inside (3.5)
        middle = (X * pm - pk) * (n - 1)
        report.add({"n": str(n), "step": "recurrence elimination"}, middle - (pn - X * pm) * n)
    return report


def check_assoc_relations(n_max: int) -> IdentityReport:
    """m-raising/lowering relations and the two constructions of P_n^m."""
    report = IdentityReport("assoc-relations")
    for n in range(1, n_max + 1):
        forms = {m: generate_assoc_legendre(n, m) for m in range(n + 1)}
        for m in range(n + 1):
            ratio = assoc_legendre_iterated(n, m).scalar_ratio(forms[m])
            report.add(
                {"n": str(n), "m": str(m), "relation": "iterated = definitional"},
                Polynomial.constant(0 if ratio == 1 else 1),
            )
            spec = FamilySpec("assoc-legendre", n, m=m)
            raised = make_operator(spec, RAISING).apply(forms[m])
            target = forms[m + 1] if m + 1 <= n else WeightedExpression.zero()
            report.add({"n": str(n), "m": str(m), "relation": "raising"}, raised - target)
            lowered = make_operator(spec, LOWERING).apply(target)
            expected = forms[m] * Fraction((n - m) * (n + m + 1))
            report.add({"n": str(n), "m": str(m), "relation": "lowering"}, lowered - expected)
    return report


#: identity id -> rows (index name, least index, family specs, relations).  A
#: relation (label, direction, operator offset, source offset, target offset,
#: scale) says the operator at index k + operator offset maps p_(k + source)
#: to scale(spec at k) p_(k + target), for k from the least index to n_max.
_RELATIONS = {
    "legendre-relations": [("n", 1, [FamilySpec("legendre", 0)], (
        ("raising", RAISING, 0, -1, 0, lambda s: s.n),
        ("lowering", LOWERING, 2, 0, -1, lambda s: s.n),
    ))],
    "gegenbauer-updown": [("n", 1, [FamilySpec("gegenbauer", 0, lam=lam) for lam in DEFAULT_LAMBDAS], (
        ("lowering", LOWERING, 0, 0, -1, lambda s: s.n + 2 * s.lam - 1),
        ("raising", RAISING, 0, -1, 0, lambda s: -s.n),
    ))],
    "chebyshev-relations": [
        ("n", 0, [FamilySpec("chebyshev-U", 0)], (
            ("U raising", RAISING, 0, 0, 1, lambda s: s.n + 1),
            ("U lowering", LOWERING, 0, 0, -1, lambda s: s.n + 1),
        )),
        ("m", 1, [FamilySpec("chebyshev-T", 0)], (
            ("T raising", RAISING, 0, 0, 1, lambda s: 1),
            ("T lowering", LOWERING, 0, 0, -1, lambda s: 1),
        )),
    ],
}


def _member(spec: FamilySpec, j: int) -> Polynomial:
    """The oracle member p_j of the spec's family, with p_j = 0 for j < 0."""
    return oracle_recurrence(spec.with_n(j)) if j >= 0 else ZERO


def check_relations(identity_id: str, n_max: int) -> IdentityReport:
    """The ladder relations of one ``_RELATIONS`` entry, against the recurrence oracles."""
    report = IdentityReport(identity_id)
    for index, least, specs, relations in _RELATIONS[identity_id]:
        for family in specs:
            for spec in map(family.with_n, range(least, n_max + 1)):
                for label, direction, op_offset, source, target, scale in relations:
                    op = make_operator(spec.with_n(spec.n + op_offset), direction)
                    result = op.apply(_member(spec, spec.n + source)).as_polynomial()
                    report.add(
                        {**spec.params(), index: str(spec.n), "relation": label},
                        result - _member(spec, spec.n + target) * scale(spec),
                    )
    return report


_CHECKS = {
    "eq31": check_eq31,
    "remark3term": check_remark_three_term,
    "remark3term-legendre": check_remark_three_term_legendre,
    "eq34": check_eq34,
    "eq33-35": check_eq33_eq35,
    "assoc-relations": check_assoc_relations,
    **{i: partial(check_relations, i) for i in _RELATIONS},
}


def identity_check(identity_id: str, n_max: int) -> IdentityReport:
    """Run one named identity over 2..n_max (or its natural range)."""
    try:
        checker = _CHECKS[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity id: {identity_id!r}") from None
    return checker(n_max)


# ---------------------------------------------------------------------------
# The remainder term F[h] of the drift-generalized Legendre chain.
# ---------------------------------------------------------------------------


def remainder_term(n: int, h: Polynomial) -> WeightedExpression:
    """F[h] = n! P_n minus the drift-weighted chain, exactly.

    The chain multiplies the exponential drift factor e = exp(int h/(x^2-1))
    once on the left and divides by it once on the right; iterating the
    factorized raising operators makes the interior e-factors cancel pairwise,
    and only this single-factor reading leaves F a differential polynomial in
    h.  F[0] is identically zero.
    """
    if n < 2:
        raise ValueError("the remainder term needs n >= 2")
    h = h if isinstance(h, Polynomial) else Polynomial.constant(h)
    if h.is_zero:
        drift_factor = WeightedExpression.one()
    else:
        drift_factor = exp_integral(integrate_rational(RationalFunction(h, X_SQ_MINUS_1)))
    left = qpow(Fraction(2 - n, 2)) * drift_factor
    steps: list[ChainStep] = [left, DIFF] + [qpow(Fraction(3, 2)), DIFF] * (n - 1)
    chain = apply_chain(steps, qpow(Fraction(1, 2)) / drift_factor)
    target = WeightedExpression.from_polynomial(_legendre(n) * math.factorial(n))
    return target - chain


def remainder_expansion(n: int, h: Polynomial) -> list[Polynomial]:
    """Coefficients G_0..G_n of F[s*h] as a polynomial in the scale s.

    Conjugating D by the drift factor e gives e D e^(-1) = D - s t with
    t = h/(x^2-1), so the chain of ``remainder_term`` at drift s*h is
    (x^2-1)^((2-n)/2) (D - s t) [(x^2-1)^(3/2) (D - s t)]^(n-1) (x^2-1)^(1/2).
    It is evaluated in one pass on the list of s-coefficients, where D - s t
    maps [c_0, ..., c_k] to [c_0', c_1' - t c_0, ..., c_k' - t c_(k-1), -t c_k].
    Each of the n factors D - s t raises the degree in s by one, so the degree
    bound n holds by construction.  Every G_j is a plain polynomial; G_0 is
    zero.
    """
    if n < 2:
        raise ValueError("the remainder term needs n >= 2")
    t = WeightedExpression.from_rational(RationalFunction(h, X_SQ_MINUS_1))
    zero = WeightedExpression.zero()
    coeffs = [qpow(Fraction(1, 2))]
    for weight in [qpow(Fraction(3, 2))] * (n - 1) + [qpow(Fraction(2 - n, 2))]:
        lowered = [c.diff() for c in coeffs] + [zero]
        shifted = [zero] + [t * c for c in coeffs]
        coeffs = [weight * (a - b) for a, b in zip(lowered, shifted)]
    expansion = [-c.as_polynomial() for c in coeffs]
    expansion[0] = expansion[0] + _legendre(n) * math.factorial(n)
    return expansion


def remainder_linear_coefficients(n: int) -> list[Polynomial]:
    """The polynomials g_0..g_(n-2) with linear-in-h part of F = sum g_j h^(j).

    Recovered by probing monomial drifts h = x^k, k = 0..n-2: the linear part
    of F is a differential operator of order n-2 applied to h, and the probes
    triangularize it.
    """
    gs: list[Polynomial] = []
    for k in range(n - 1):
        linear_part = remainder_expansion(n, Polynomial.monomial(1, k))[1]
        for j, g in enumerate(gs):
            falling = Fraction(math.factorial(k), math.factorial(k - j))
            linear_part = linear_part - g * Polynomial.monomial(falling, k - j)
        gs.append(linear_part * Fraction(1, math.factorial(k)))
    return gs


def remainder_structure_report(
    n_values: Iterable[int] = range(3, 9),
    drifts: Sequence[Polynomial] = (ONE, X, X * X),
) -> IdentityReport:
    """Check the two stated leading terms of F[h] and record the outcomes.

    Claim A: the coefficient of the top derivative h^(n-2) in the linear part
    equals x (x^2-1)^(n-2).  Claim B: the top power term equals
    (-1)^n (n-1)! x h^(n-1).  Both claims are measured against the computed
    expansion; a recorded failure carries the computed value.

    The report also freezes the two regularities the expansion actually
    exhibits, as regression anchors: the h^(n-2) coefficient is
    (3n^2-5n+4)/2 times the claimed one, and the true top power term is
    (-1)^(n-1) h^n.
    """
    report = IdentityReport("remainder-structure")
    for n in n_values:
        computed = remainder_linear_coefficients(n)[n - 2]
        claimed = X * (X_SQ_MINUS_1 ** (n - 2))
        observed = claimed * Fraction(3 * n * n - 5 * n + 4, 2)
        text = f"computed coefficient {computed}"
        params = {"n": str(n), "claim": "top-derivative term = x (x^2-1)^(n-2) h^(n-2)"}
        report.record(params, computed == claimed, text)
        params = {"n": str(n), "observed": "top-derivative coefficient = (3n^2-5n+4)/2 x (x^2-1)^(n-2)"}
        report.record(params, computed == observed, text)
        for h in drifts:
            expansion = remainder_expansion(n, h)
            claimed_power = X * (h ** (n - 1)) * ((-1) ** n * math.factorial(n - 1))
            report.record(
                {"n": str(n), "h": str(h), "claim": "top power term = (-1)^n (n-1)! x h^(n-1)"},
                expansion[n - 1] == claimed_power,
                f"computed degree-(n-1) part {expansion[n - 1]}; actual top power h^n part {expansion[n]}",
            )
            report.record(
                {"n": str(n), "h": str(h), "observed": "top power term = (-1)^(n-1) h^n"},
                expansion[n] == (h**n) * ((-1) ** (n - 1)),
                f"computed term {expansion[n]}",
            )
    return report
