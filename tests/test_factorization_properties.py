"""The factorization theorem as a property: a*D + b = f1*D*g2 + h for any in-class drift.

Drifts are t = a polynomial of degree <= 2 plus simple poles at points that
include every family's singular points (0 and +-1).  Each of the ten kinds is
split in both index directions wherever the family prints a lowering operator,
with its index n in 1..3 and its parameter drawn: m in 0..n, lambda and alpha
small nonzero rationals (alpha > -1), ell in 0..3.
Out-of-class drifts keep a double pole or an irreducible quadratic factor and
must raise OutOfClassError, never anything else.
"""

import dataclasses
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly.algebra import Polynomial, RationalFunction, linear  # noqa: E402
from ladderpoly.families import FamilySpec, make_operator  # noqa: E402
from ladderpoly.ladder import (  # noqa: E402
    LOWERING,
    RAISING,
    Factorization,
    OutOfClassError,
    factorize,
    verify_factorization,
)
from ladderpoly.verify import standard_testers  # noqa: E402
from ladderpoly.weighted import WeightStructureError, WeightedExpression, as_weighted  # noqa: E402

from helpers import composed_apply, reference_check  # noqa: E402

POLES = tuple(Fraction(p) for p in ("0", "1", "-1", "1/2", "2", "-3", "-2/3"))

scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero_scalars = scalars.filter(bool)
alphas = nonzero_scalars.filter(lambda alpha: alpha > -1)

#: kind -> (index n -> strategies for its parameter, as FamilySpec keywords).
SPECS = {
    "legendre": lambda n: {},
    "assoc-legendre": lambda n: {"m": st.integers(0, n)},
    "gegenbauer": lambda n: {"lam": nonzero_scalars},
    "chebyshev-T": lambda n: {},
    "chebyshev-U": lambda n: {},
    "laguerre": lambda n: {"alpha": alphas},
    "hermite": lambda n: {},
    "laguerre-radial": lambda n: {"alpha": alphas},
    "coulomb-radial": lambda n: {"ell": st.integers(0, 3)},
    "oscillator-3d": lambda n: {"ell": st.integers(0, 3)},
}
NO_LOWERING = ("coulomb-radial", "oscillator-3d")
OPERATORS = [(kind, RAISING) for kind in SPECS] + [(kind, LOWERING) for kind in SPECS if kind not in NO_LOWERING]
polynomials = st.lists(scalars, max_size=3).map(lambda cs: Polynomial(tuple(cs)))
pole_terms = st.lists(st.tuples(st.sampled_from(POLES), nonzero_scalars), max_size=2, unique_by=lambda term: term[0])


def drift_of(poly: Polynomial, terms) -> RationalFunction:
    t = RationalFunction(poly)
    for root, c in terms:
        t = t + RationalFunction(Polynomial.constant(c), linear(root))
    return t


in_class_drifts = st.builds(drift_of, polynomials, pole_terms)


def with_double_pole(t: RationalFunction, c: Fraction, r: Fraction, s: Fraction | None) -> RationalFunction:
    """t + c/(x - r)^2, or t + c*(x - s)/(x - r)^2 with s != r: the numerator stays nonzero at r."""
    return t + RationalFunction(Polynomial.constant(c) if s is None else linear(s) * c, linear(r) ** 2)


double_poles = st.sampled_from(POLES).flatmap(
    lambda r: st.builds(
        with_double_pole,
        in_class_drifts,
        nonzero_scalars,
        st.just(r),
        st.none() | st.sampled_from(POLES).filter(lambda s: s != r),
    )
)
quadratic_factors = st.builds(
    lambda t, c, k: t + RationalFunction(Polynomial.constant(c), Polynomial.of(k, 0, 1)),
    in_class_drifts,
    nonzero_scalars,
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
)


def operator(data, kind: str, direction: str):
    """The kind's operator in the given direction, at a drawn index n in 1..3 and a drawn parameter."""
    n = data.draw(st.integers(1, 3), label="n")
    spec = data.draw(st.builds(FamilySpec, st.just(kind), st.just(n), **SPECS[kind](n)), label="spec")
    return make_operator(spec, direction)


@pytest.mark.parametrize("kind,direction", OPERATORS, ids=[f"{k}-{d}" for k, d in OPERATORS])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), t=in_class_drifts)
def test_any_in_class_drift_factorizes_exactly(kind, direction, data, t):
    op = operator(data, kind, direction)
    fac = factorize(op, t)
    assert fac.f1 * fac.g2 == op.a
    assert fac.h == op.a * as_weighted(t)
    if op.form == RAISING:
        assert fac.f1 * fac.g2.diff() + fac.h == op.b
    else:
        assert fac.g2 * fac.f1.diff() == op.a.diff() - op.b + fac.h
    assert verify_factorization(op, fac, standard_testers()).ok


@pytest.mark.parametrize("kind,direction", OPERATORS, ids=[f"{k}-{d}" for k, d in OPERATORS])
@settings(max_examples=4, deadline=None)
@given(data=st.data(), t=double_poles | quadratic_factors)
def test_out_of_class_drift_raises_out_of_class(kind, direction, data, t):
    op = operator(data, kind, direction)
    with pytest.raises(OutOfClassError):
        factorize(op, t)


#: A factorization as split, the two corruptions of ``tests/test_ladder.py`` (a
#: wrong g2 in the same weight cell, an f1 with a weight no operand has) and a
#: zero f1, whose expansion is zero and must still be applied, not refused.
CORRUPTIONS = (
    lambda fac: fac,
    lambda fac: dataclasses.replace(fac, g2=fac.g2 * as_weighted(linear(1))),
    lambda fac: dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3))),
    lambda fac: dataclasses.replace(fac, f1=as_weighted(0)),
)


def outcome(apply, fac, u):
    """apply(fac, u), or the operands of the WeightStructureError it raises."""
    try:
        return "value", apply(fac, u)
    except WeightStructureError as exc:
        return "weight structure differs", exc.operands


@pytest.mark.parametrize("kind,direction", OPERATORS, ids=[f"{k}-{d}" for k, d in OPERATORS])
@settings(max_examples=6, deadline=None)
@given(data=st.data(), t=in_class_drifts)
def test_expanded_apply_is_the_composition(kind, direction, data, t):
    """The product-rule expansion gives the composition's value, or raises with its operands."""
    op = operator(data, kind, direction)
    for corrupt in CORRUPTIONS:
        fac = corrupt(factorize(op, t))
        for u in standard_testers():
            assert outcome(Factorization.apply, fac, u) == outcome(composed_apply, fac, u)


#: The split as made, and the wrong ones a check must catch: g2 in its cell but
#: wrong, f1 with a weight no operand has, a wrong drift term and h off by a.
CHECKED_SPLITS = (
    lambda fac, op: fac,
    lambda fac, op: dataclasses.replace(fac, g2=fac.g2 * as_weighted(linear(1))),
    lambda fac, op: dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3))),
    lambda fac, op: dataclasses.replace(fac, h=fac.h * 2),
    lambda fac, op: dataclasses.replace(fac, h=fac.h + op.a),
)


@pytest.mark.parametrize("kind,direction", OPERATORS, ids=[f"{k}-{d}" for k, d in OPERATORS])
@settings(max_examples=6, deadline=None)
@given(data=st.data(), t=in_class_drifts)
def test_verification_matches_the_direct_reference(kind, direction, data, t):
    """The identity test decides as the tester-by-tester comparison would, in both forms."""
    op = operator(data, kind, direction)
    for split in CHECKED_SPLITS:
        fac = split(factorize(op, t), op)
        report = verify_factorization(op, fac, standard_testers())
        expected = [reference_check(op, fac, u) for u in standard_testers()]
        assert [(c.ok, c.discrepancy) for c in report.checks] == expected
