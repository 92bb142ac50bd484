"""The factorization theorem as a property: a*D + b = f1*D*g2 + h for any in-class drift.

Drifts are t = a polynomial of degree <= 2 plus simple poles at points that
include every family's singular points (0 and +-1).  Each of the ten kinds is
split in both index directions wherever the family prints a lowering operator.
Out-of-class drifts keep a double pole or an irreducible quadratic factor and
must raise OutOfClassError, never anything else.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ladderpoly.algebra import Polynomial, RationalFunction, linear  # noqa: E402
from ladderpoly.families import FamilySpec, make_operator  # noqa: E402
from ladderpoly.ladder import LOWERING, RAISING, OutOfClassError, factorize, verify_factorization  # noqa: E402
from ladderpoly.verify import standard_testers  # noqa: E402
from ladderpoly.weighted import as_weighted  # noqa: E402

POLES = tuple(Fraction(p) for p in ("0", "1", "-1", "1/2", "2", "-3", "-2/3"))

#: One spec per kind; the index is drawn, the family parameter is fixed.
SPECS = {
    "legendre": {},
    "assoc-legendre": {"m": 1},
    "gegenbauer": {"lam": Fraction(3, 2)},
    "chebyshev-T": {},
    "chebyshev-U": {},
    "laguerre": {"alpha": Fraction(1, 2)},
    "hermite": {},
    "laguerre-radial": {"alpha": Fraction(-1, 2)},
    "coulomb-radial": {"ell": 1},
    "oscillator-3d": {"ell": 2},
}
NO_LOWERING = ("coulomb-radial", "oscillator-3d")
OPERATORS = [(kind, RAISING) for kind in SPECS] + [(kind, LOWERING) for kind in SPECS if kind not in NO_LOWERING]

scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero_scalars = scalars.filter(bool)
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


def operator(kind: str, direction: str, n: int):
    return make_operator(FamilySpec(kind, n, **SPECS[kind]), direction)


@pytest.mark.parametrize("kind,direction", OPERATORS, ids=[f"{k}-{d}" for k, d in OPERATORS])
@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), t=in_class_drifts)
def test_any_in_class_drift_factorizes_exactly(kind, direction, n, t):
    op = operator(kind, direction, n)
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
@given(n=st.integers(1, 3), t=double_poles | quadratic_factors)
def test_out_of_class_drift_raises_out_of_class(kind, direction, n, t):
    op = operator(kind, direction, n)
    with pytest.raises(OutOfClassError):
        factorize(op, t)

