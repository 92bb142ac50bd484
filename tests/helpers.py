"""Check helpers shared by the test modules; the library itself never calls them."""

import math
from fractions import Fraction

from ladderpoly.algebra import ONE, PartialFractions, Polynomial, RationalFunction, as_rational_function, linear
from ladderpoly.families import FamilySpec, make_operator, oracle_recurrence
from ladderpoly.identities import remainder_expansion
from ladderpoly.ladder import LOWERING, RAISING, apply_chain, factorize
from ladderpoly.verify import random_drifts, representative_operators, standard_testers
from ladderpoly.weighted import WeightStructureError, as_weighted, exp_integral


def _legendre(n: int) -> Polynomial:
    return oracle_recurrence(FamilySpec("legendre", n))


def recombined(parts: PartialFractions) -> RationalFunction:
    """Reassemble a partial-fraction decomposition over a common denominator."""
    total = as_rational_function(parts.quotient)
    for root, residue in parts.terms:
        total = total + RationalFunction(Polynomial.constant(residue), linear(root))
    return total


def canonical_fields(p: Polynomial) -> tuple[int, int, tuple[int, ...]]:
    """p's (content_num, content_den, ints), once each is checked to be in canonical form.

    The content is a reduced int pair over a positive denominator, the ints
    are primitive with a positive leading entry, and zero is (0, 1, ()).
    """
    num, den, ints = p.content_num, p.content_den, p.ints
    assert type(num) is int and type(den) is int and type(ints) is tuple
    assert den > 0 and math.gcd(num, den) == 1
    if ints:
        assert num != 0 and ints[-1] > 0 and math.gcd(*ints) == 1
    else:
        assert (num, den) == (0, 1)
    return num, den, ints


def reference_poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid on primitive parts, one ``Polynomial`` remainder a step.

    Each remainder is already primitive; dropping its content keeps the
    scale factors of the fraction-free divisions from piling up in it.
    """
    while not b.is_zero:
        r = a % b
        a, b = b, Polynomial(r.ints)
    return a.monic()


def reference_cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(a/g, b/g, g) for the monic gcd g, by ``reference_poly_gcd`` and floor division."""
    if a.degree > 0 and b.degree > 0:
        g = reference_poly_gcd(a, b)
        if g.degree > 0:
            return a // g, b // g, g
    return a, b, ONE


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
    operand = as_weighted(_legendre(n - 1) * (2 ** (n - 1) * math.factorial(n - 1)))
    result = fac.apply(operand)
    expected = _legendre(n) * (2 ** (n - 1) * math.factorial(n))
    return result.as_polynomial() == expected


def probe_linear_coefficients(n: int) -> list[Polynomial]:
    """g_0..g_(n-2) of the linear-in-h part of F = sum g_j h^(j), from probes:
    the monomial drifts h = x^k, k = 0..n-2, each through a full
    ``remainder_expansion``, triangularized by falling factorials."""
    gs: list[Polynomial] = []
    for k in range(n - 1):
        linear_part = remainder_expansion(n, Polynomial.monomial(1, k))[1]
        for j, g in enumerate(gs):
            falling = Fraction(math.factorial(k), math.factorial(k - j))
            linear_part = linear_part - g * Polynomial.monomial(falling, k - j)
        gs.append(linear_part * Fraction(1, math.factorial(k)))
    return gs


def drift_factor_chain(row: tuple, t: RationalFunction) -> Polynomial:
    """A ``families.chain_row`` applied with e = exp(int t) put on its left and
    divided out of its operand: the chain with every D read as e D e^(-1) = D - t."""
    left, steps, operand, scale = row
    e = exp_integral(t)
    return (apply_chain([left * e, *steps], operand / e) * scale).as_polynomial()


def composed_apply(fac, u):
    """fac applied as the written composition, f1*(g2*u)' + h*u or, lowering,
    -(g2*(f1*u)') + h*u: one derivative and fold of the product per tester,
    independent of the product-rule expansion ``Factorization.apply`` uses."""
    u = as_weighted(u)
    if fac.form == RAISING:
        return fac.f1 * (fac.g2 * u).diff() + fac.h * u
    return -(fac.g2 * (fac.f1 * u).diff()) + fac.h * u


def reference_check(op, fac, u) -> tuple[bool, str | None]:
    """One tester's (ok, discrepancy), the direct way: composed_apply(fac, u) - op.apply(u)
    must be zero, a nonzero difference is printed, and a weight-cell mismatch names
    the two members it could not add."""
    u = as_weighted(u)
    expected = op.apply(u)
    try:
        difference = composed_apply(fac, u) - expected
    except WeightStructureError as exc:
        left, right = exc.operands
        return False, f"weight structure differs: {left.to_text(op.var)} vs {right.to_text(op.var)}"
    return difference.is_zero, None if difference.is_zero else difference.to_text(op.var)


def reference_factorization_instances(split=factorize, num_drifts: int = 25) -> list[tuple[dict, bool, str | None]]:
    """The factorization suite's (params, ok, discrepancy) list, built the
    direct way: one ``reference_check`` per (operator, drift, tester)."""
    out = []
    for kind, op in representative_operators():
        for index, drift in enumerate(random_drifts(num_drifts)):
            fac = split(op, drift)
            for tester in standard_testers():
                params = {"family": kind, "drift": str(index), "tester": as_weighted(tester).to_text(op.var)}
                out.append((params, *reference_check(op, fac, tester)))
    return out
