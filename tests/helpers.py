"""Check helpers shared by the test modules; the library itself never calls them."""

import math

from ladderpoly.algebra import PartialFractions, Polynomial, RationalFunction, as_rational_function, linear
from ladderpoly.families import FamilySpec, make_operator, oracle_recurrence
from ladderpoly.ladder import LOWERING, RAISING, factorize
from ladderpoly.weighted import WeightedExpression


def _legendre(n: int) -> Polynomial:
    return oracle_recurrence(FamilySpec("legendre", n))


def recombined(parts: PartialFractions) -> RationalFunction:
    """Reassemble a partial-fraction decomposition over a common denominator."""
    total = as_rational_function(parts.quotient)
    for root, residue in parts.terms:
        total = total + RationalFunction(Polynomial.constant(residue), linear(root))
    return total


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
    operand = WeightedExpression.from_polynomial(_legendre(n - 1) * (2 ** (n - 1) * math.factorial(n - 1)))
    result = fac.apply(operand)
    expected = _legendre(n) * (2 ** (n - 1) * math.factorial(n))
    return result.as_polynomial() == expected
