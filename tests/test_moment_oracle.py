"""A second oracle: leading coefficients and orthogonality against exact moments.

A classical family member p_n is fixed by its leading coefficient and by
<p_n, x^k> = 0 for every k < n (Favard; Chihara, *An Introduction to
Orthogonal Polynomials*, 1978, ch. I).  DLMF Table 18.3.1 gives the weights
and the leading coefficients.  Every normalized moment mu_k / mu_0 the oracle
suite's families need is rational, and every odd one is 0:

* weight (1 - x^2)^(lambda - 1/2) on (-1, 1): (1/2)_j / (lambda + 1)_j at
  k = 2j.  Legendre is lambda = 1/2, Chebyshev T is lambda = 0 and U is 1;
* Laguerre, x^alpha exp(-x) on (0, oo): (alpha + 1)_k;
* Hermite, exp(-x^2) on the real line: (1/2)_j at k = 2j.

So sum_i c_i mu_(i+k) = 0 for k < n, with c_i the coefficients of p_n.  The
check shares nothing with the recurrences, the operators, the Rodrigues
formulas or the chains, so a mistake common to those paths cannot pass it.
"""

import math
from fractions import Fraction

import pytest

from ladderpoly.algebra import Polynomial
from ladderpoly.families import FamilySpec, oracle_recurrence
from ladderpoly.identities import DEFAULT_LAMBDAS
from ladderpoly.verify import DEFAULT_ALPHAS, oracle_family_specs

HALF = Fraction(1, 2)
N_MAX = 20

#: kind -> the lambda of its (1 - x^2)^(lambda - 1/2) weight.
_LAMBDA = {"legendre": HALF, "chebyshev-T": Fraction(0), "chebyshev-U": Fraction(1)}


def _rising(z: Fraction, k: int) -> Fraction:
    return math.prod((z + i for i in range(k)), start=Fraction(1))


def _even(moment):
    """The moments of an even weight: 0 at odd k, moment(j) at k = 2j."""
    return lambda k: Fraction(0) if k % 2 else moment(k // 2)


def moments(spec: FamilySpec):
    """k -> mu_k / mu_0 for the spec's weight."""
    if spec.kind == "laguerre":
        return lambda k: _rising(spec.alpha + 1, k)
    if spec.kind == "hermite":
        return _even(lambda j: _rising(HALF, j))
    lam = _weight_lambda(spec)
    return _even(lambda j: _rising(HALF, j) / _rising(lam + 1, j))


def _weight_lambda(spec: FamilySpec) -> Fraction:
    return spec.lam if spec.kind == "gegenbauer" else _LAMBDA[spec.kind]


def leading_coefficient(spec: FamilySpec) -> Fraction:
    """k_n of DLMF Table 18.3.1."""
    n = spec.n
    if spec.kind == "legendre":
        return Fraction(math.comb(2 * n, n), 2**n)
    if spec.kind == "chebyshev-T":
        return Fraction(2**n, 2) if n else Fraction(1)
    if spec.kind in ("chebyshev-U", "hermite"):
        return Fraction(2**n)
    if spec.kind == "gegenbauer":
        return 2**n * _rising(spec.lam, n) / math.factorial(n)
    return Fraction((-1) ** n, math.factorial(n))  # laguerre


def orthogonality_defects(p: Polynomial, spec: FamilySpec) -> list[int]:
    """The k < n at which sum_i c_i mu_(i+k) is not 0."""
    mu = [moments(spec)(k) for k in range(p.degree + spec.n)]
    return [k for k in range(spec.n) if sum(c * mu[i + k] for i, c in enumerate(p.coeffs))]


def test_the_oracle_suite_has_twelve_specs():
    assert len(oracle_family_specs(0)) == 12


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_oracle_leading_coefficient(n):
    for spec in oracle_family_specs(n):
        assert oracle_recurrence(spec).leading == leading_coefficient(spec), spec


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_oracle_orthogonal_to_lower_powers(n):
    for spec in oracle_family_specs(n):
        assert orthogonality_defects(oracle_recurrence(spec), spec) == [], spec


def test_a_shifted_coefficient_is_caught():
    spec = FamilySpec("legendre", 7)
    coeffs = list(oracle_recurrence(spec).coeffs)
    coeffs[3] += Fraction(1, 10**6)
    shifted = Polynomial(coeffs)
    assert shifted.leading == leading_coefficient(spec)  # the leading coefficient alone misses it
    assert orthogonality_defects(shifted, spec) == [1, 3, 5]  # x^3 meets the odd powers


def test_moment_table_by_symbolic_integration():
    """Each weight integrated exactly, the (1 - x^2) weights at x = sin(theta),
    where x^k (1 - x^2)^(lambda - 1/2) dx = sin(theta)^k cos(theta)^(2 lambda) dtheta."""
    sp = pytest.importorskip("sympy")
    x, theta = sp.symbols("x theta", real=True)
    cases = [(FamilySpec("hermite", 0), lambda k: x**k * sp.exp(-(x**2)), (x, -sp.oo, sp.oo))]
    for alpha in DEFAULT_ALPHAS:
        cases.append((FamilySpec("laguerre", 0, alpha=alpha), lambda k, a=alpha: x ** (k + a) * sp.exp(-x), (x, 0, sp.oo)))
    jacobi = [FamilySpec(kind, 0) for kind in _LAMBDA] + [FamilySpec("gegenbauer", 0, lam=lam) for lam in DEFAULT_LAMBDAS]
    for spec in jacobi:
        power = 2 * sp.Rational(_weight_lambda(spec))
        cases.append((spec, lambda k, p=power: sp.sin(theta) ** k * sp.cos(theta) ** p, (theta, -sp.pi / 2, sp.pi / 2)))
    for spec, integrand, bounds in cases:
        integrals = [sp.integrate(integrand(k), bounds) for k in range(7)]
        table = [sp.Rational(moments(spec)(k)) for k in range(7)]
        assert [sp.simplify(m / integrals[0]) for m in integrals] == table, spec
