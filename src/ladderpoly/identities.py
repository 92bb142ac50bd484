"""Exact verification of the derivative/recurrence identities and the remainder term.

Every check here reduces to equality of polynomials or weighted expressions
over exact rationals; a failing instance always carries the nonzero
discrepancy it found.  Family polynomials entering an identity are produced by
the recurrence oracles, so the identities test the operators and chains, not
the generators.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from .algebra import ONE, Polynomial, RationalFunction, X, ZERO, nth_derivative
from .families import (
    FamilySpec,
    X_SQ_MINUS_1,
    assoc_legendre_iterated,
    chain_row,
    drift_chain,
    generate_assoc_legendre,
    make_operator,
    oracle_recurrence,
)
from .ladder import InstanceResult, LOWERING, RAISING
from .weighted import WeightedExpression, as_weighted

DEFAULT_LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


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
        return {"id": self.identity_id, "ok": self.ok, "instances": [asdict(inst) for inst in self.instances]}


def _legendre(n: int) -> Polynomial:
    return oracle_recurrence(FamilySpec("legendre", n))


def check_eq31(n_max: int) -> IdentityReport:
    """(x^2-1) D^n (x^2-1)^(n-1) = n(n-1) D^(n-2) (x^2-1)^(n-1), with both sides
    vanishing at x = +-1."""
    report = IdentityReport("eq31")
    base = ONE
    for n in range(2, n_max + 1):
        base = base * X_SQ_MINUS_1  # (x^2-1)^(n-1), one product per n
        lhs = X_SQ_MINUS_1 * nth_derivative(base, n)
        rhs = nth_derivative(base, n - 2) * (n * (n - 1))
        report.add({"n": str(n)}, lhs - rhs)
        for point in (1, -1):
            for side, value in (("left", lhs(point)), ("right", rhs(point))):
                report.add({"n": str(n), "boundary": str(point), "side": side}, Polynomial.constant(value))
    return report


def check_remark_three_term(n_max: int) -> IdentityReport:
    """(x^2-1) D^(n-1) w - 2x D^(n-2) w = (n+1)(n-2) D^(n-3) w for w = (x^2-1)^(n-1)."""
    report = IdentityReport("remark3term")
    base = X_SQ_MINUS_1
    for n in range(3, n_max + 1):
        base = base * X_SQ_MINUS_1  # (x^2-1)^(n-1), one product per n
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
            report.record({"n": str(n), "m": str(m), "relation": "iterated = definitional"}, ratio == 1, str(ratio))
            spec = FamilySpec("assoc-legendre", n, m=m)
            raised = make_operator(spec, RAISING).apply(forms[m])
            target = forms[m + 1] if m + 1 <= n else as_weighted(0)
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


def _legendre_h0_chain(n: int, d: Callable[[list], list]) -> list[WeightedExpression]:
    """The Legendre h0-chain row read by ``drift_chain`` with each D as ``d``."""
    if n < 2:
        raise ValueError("the remainder term needs n >= 2")
    return drift_chain(chain_row(FamilySpec("legendre", n), "h0-chain"), d)


def remainder_term(n: int, h: Polynomial) -> WeightedExpression:
    """F[h] = n! P_n minus the drift-weighted chain, exactly; F[0] is zero.

    The chain is the Legendre h0-chain row with e = exp(int h/(x^2-1)) once on the left and 1/e on the operand:
    the interior e-factors of the raising operators cancel pairwise, and only this reading leaves F a differential
    polynomial in h.  As e D e^(-1) = D - t for t = h/(x^2-1), each D of the row is read as c -> c' - t c.
    """
    t = as_weighted(RationalFunction(h, X_SQ_MINUS_1))
    [chain] = _legendre_h0_chain(n, lambda cs: [cs[0].diff() - t * cs[0]])
    return (as_weighted(_legendre(n)) - chain) * math.factorial(n)


def remainder_expansion(n: int, h: Polynomial) -> list[Polynomial]:
    """Coefficients G_0..G_n of F[s*h] as a polynomial in the scale s.

    The drift factor of s*h conjugates D to D - s t with t = h/(x^2-1), so F[s*h] is n! (P_n minus the Legendre
    h0-chain read with each D as D - s t on its s-coefficients); each of its n D steps raises the degree in s by
    one.  Every G_j is a polynomial; G_0 is zero.
    """
    t, zero = as_weighted(RationalFunction(h, X_SQ_MINUS_1)), as_weighted(0)
    coeffs = _legendre_h0_chain(n, lambda cs: [a.diff() - t * b for a, b in zip([*cs, zero], [zero, *cs])])
    coeffs[0] = coeffs[0] - _legendre(n)
    return [c.as_polynomial() * -math.factorial(n) for c in coeffs]


def remainder_linear_coefficients(n: int) -> list[Polynomial]:
    """The polynomials g_0..g_(n-1) of the linear-in-h part of F = sum g_j h^(j); g_(n-1) is (x^2-1)^(n-1).

    The Legendre h0-chain row is read on [c, g_0, g_1, ...], the member and the linear part: a D step,
    read as D - s h/(x^2-1), maps c to c', g_0 to g_0' - c/(x^2-1) and g_j to g_j' + g_(j-1).
    """
    zero = as_weighted(0)

    def d(cs: list[WeightedExpression]) -> list[WeightedExpression]:
        c, *gs = cs
        gs = [a.diff() + b for a, b in zip([*gs, zero], [zero, *gs])]
        return [c.diff(), gs[0] - c / X_SQ_MINUS_1, *gs[1:]]

    return [g.as_polynomial() * -math.factorial(n) for g in _legendre_h0_chain(n, d)[1:]]


def remainder_structure_report(
    n_values: Iterable[int] = range(3, 9),
    drifts: Sequence[Polynomial] = (ONE, X, X * X),
) -> IdentityReport:
    """Check the two stated leading terms of F[h] and record the outcomes.

    Claim A: the coefficient of h^(n-2), which the paper calls the top derivative (the true
    top derivative is h^(n-1)), in the linear part equals x (x^2-1)^(n-2).  Claim B: the top
    power term equals (-1)^n (n-1)! x h^(n-1).  Both claims are measured against the computed
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
