"""Operator catalog, ladder generation, recurrence oracles, and Rodrigues chains.

Ten families are supported: legendre, assoc-legendre(m), gegenbauer(lambda),
chebyshev-T, chebyshev-U, laguerre(alpha), hermite, laguerre-radial(alpha),
coulomb-radial(ell), oscillator-3d(ell).  The polynomial families are generated
two independent ways: by iterating their ladder operators, and by their
classical three-term recurrences (`oracle_recurrence`).  The oracle path is
ground truth for every other construction in the package and deliberately
shares no code with the operator path.

The catalog is kept as row tables, one row per family, each read by a single
evaluator: ``_OPERATORS`` holds the variable, the LaTeX symbol, the
parameter, the least index and the printed raising and lowering a*D + b;
``_LADDERS`` holds the seeds, the operator index offset, the scale c_k and the
ground weight of the step p_k = c_k R p_(k-1); ``_RECURRENCES`` holds
(p_1, k -> (A_k, B_k, C_k)) for p_(k+1) = (A_k x + B_k) p_k - C_k p_(k-1);
``_CHAINS`` holds, per family and Rodrigues form (the standard p_n =
(1/(K_n w)) D^n (w sigma^n) or a chain variant), the least n and the chain
[left, *steps] applied to an operand, which ``drift_chain`` walks with each D
read as a map of its coefficient list (D alone gives the member).  ``KINDS``
and ``GENERATING_KINDS`` are the keys of ``_OPERATORS`` and ``_LADDERS``.
Rows are functions of the index and the spec, so no weighted expression is
built at import time.

Square-root weights are expressed in the canonical (x - root) basis of the
weighted module: ``qpow(e)`` below stands for (x^2-1)^e.  Formulas printed
against (1-x^2)^e differ from that basis by a phase (-1)^e per factor; the
scalars used here absorb the net phase, and the tests pin every such constant
against the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .algebra import ONE, Polynomial, RationalFunction, X, _coerce_scalar, nth_derivative
from .ladder import DIFF, LOWERING, RAISING, LadderOperator
from .parsing import MAX_COEFFICIENT_BITS
from .weighted import WeightedExpression, as_weighted

X_SQ_MINUS_1 = Polynomial.of(-1, 0, 1)


def _split_power(base: Polynomial, roots: tuple[int, ...], exponent: Fraction | int) -> WeightedExpression:
    """base^exponent for base = prod (x - root): the exponent's integer part as a
    polynomial power, so it never reaches the weight fold's degree bound."""
    whole, frac = divmod(_coerce_scalar(exponent), 1)
    coeff = RationalFunction(base**whole) if whole >= 0 else RationalFunction(ONE, base**-whole)
    return WeightedExpression(coeff, tuple((root, frac) for root in roots))


def qpow(exponent: Fraction | int) -> WeightedExpression:
    """(x^2-1)^exponent in the canonical split basis (x-1)^e (x+1)^e."""
    return _split_power(X_SQ_MINUS_1, (1, -1), exponent)


def rpow(exponent: Fraction | int) -> WeightedExpression:
    """r^exponent, a power factor at the origin."""
    return _split_power(X, (0,), exponent)


def pochhammer(z: Fraction | int, k: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+k-1)."""
    if k < 0:
        raise ValueError("pochhammer index must be nonnegative")
    return math.prod((Fraction(z) + i for i in range(k)), start=Fraction(1))


#: parameter -> (label, exact type, range test on (value, n), what a kind that
#: needs it requires, what it is called where it is unexpected).  An int is
#: accepted for a Fraction parameter; a bool, a float or any other type is not.
#: A value's numerator and denominator are held to the parser's coefficient budget.
_PARAMETERS = {
    "m": ("m", int, lambda m, n: 0 <= m <= n, "an order m with 0 <= m <= n", "order m"),
    "lam": ("lambda", Fraction, lambda lam, n: lam != 0, "a nonzero rational parameter", "lambda parameter"),
    "alpha": ("alpha", Fraction, lambda alpha, n: alpha > -1, "a rational alpha > -1", "alpha parameter"),
    "ell": ("ell", int, lambda ell, n: ell >= 0, "an integer ell >= 0", "ell parameter"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family member: the kind, its index n, and any family parameters."""

    kind: str
    n: int
    alpha: Fraction | None = None
    lam: Fraction | None = None
    m: int | None = None
    ell: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _OPERATORS:
            raise ValueError(f"unknown family kind: {self.kind!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError("index n must be a nonnegative integer")
        for name, (label, exact, in_range, requires, called) in _PARAMETERS.items():
            value = getattr(self, name)
            if name == _OPERATORS[self.kind][2]:
                if not isinstance(value, (int, exact)) or isinstance(value, bool) or not in_range(value, self.n):
                    raise ValueError(f"{self.kind} requires {requires}")
                if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
                    raise ValueError(f"{self.kind} requires {label} = p/q with p, q within {MAX_COEFFICIENT_BITS} bits")
                object.__setattr__(self, name, exact(value))
            elif value is not None:
                raise ValueError(f"{self.kind} takes no {called}")

    @property
    def var(self) -> str:
        return _OPERATORS[self.kind][0]

    @property
    def symbol(self) -> str | None:
        """The LaTeX symbol, with %d for the index; None for a kind without generation."""
        return _OPERATORS[self.kind][1]

    def with_n(self, n: int) -> FamilySpec:
        return FamilySpec(self.kind, n, self.alpha, self.lam, self.m, self.ell)

    def params(self) -> dict[str, str]:
        name = _OPERATORS[self.kind][2]
        return {_PARAMETERS[name][0]: str(getattr(self, name))} if name else {}


#: kind -> (variable, LaTeX symbol of member n or None where the kind cannot
#: be generated, the one parameter it requires, least n, raising row,
#: lowering row).  A row maps (n, spec) to the printed (a, b, form, name) of
#: a*D + b, None where the family prints no such operator.  The assoc-legendre
#: pair is the canonical-basis transcription of the m-raising/lowering pair:
#: with Q = (x-1)^(1/2) (x+1)^(1/2), Q^2 = +(x^2-1), opposite in sign to
#: ((1-x^2)^(1/2))^2, and its signs are the unique ones making
#: R_m P_n^m = P_n^(m+1) and L_m P_n^(m+1) = (n-m)(n+m+1) P_n^m exact.
_OPERATORS = {
    "legendre": (
        "x", "P_{%d}", None, 0,
        lambda n, s: (X_SQ_MINUS_1, X * n, RAISING, f"R_{n}"),
        lambda n, s: (X_SQ_MINUS_1, X * n, LOWERING, f"L_{n}"),
    ),
    "assoc-legendre": (
        "x", "P_{%d}^{m}", "m", 0,
        lambda n, s: (qpow(Fraction(1, 2)), qpow(Fraction(-1, 2)) * X * -s.m, RAISING, f"R_m[m={s.m}]"),
        lambda n, s: (-qpow(Fraction(1, 2)), qpow(Fraction(-1, 2)) * X * s.m, LOWERING, f"L_m[m={s.m}]"),
    ),
    "gegenbauer": (  # C+_n maps C_(n-1) to -n C_n
        "x", "C_{%d}^{\\lambda}", "lam", 0,
        lambda n, s: (-X_SQ_MINUS_1, X * (-(n - 1 + 2 * s.lam)), RAISING, f"C+_{n}"),
        lambda n, s: (-X_SQ_MINUS_1, X * n, RAISING, f"C-_{n}"),
    ),
    "chebyshev-T": (
        "x", "T_{%d}", None, 1,
        lambda n, s: (X_SQ_MINUS_1 * Fraction(1, n), X, RAISING, f"T+_{n}"),
        lambda n, s: (-X_SQ_MINUS_1 * Fraction(1, n), X, RAISING, f"T-_{n}"),
    ),
    "chebyshev-U": (  # U+_n maps U_n to (n+1) U_(n+1)
        "x", "U_{%d}", None, 0,
        lambda n, s: (X_SQ_MINUS_1, X * (n + 2), RAISING, f"U+_{n}"),
        lambda n, s: (-X_SQ_MINUS_1, X * n, RAISING, f"U-_{n}"),
    ),
    "laguerre": (  # A+_n = x D - x + alpha + n maps L_(n-1) to n L_n
        "x", "L_{%d}^{\\alpha}", "alpha", 0,
        lambda n, s: (X, Polynomial.of(s.alpha + n, -1), RAISING, f"A+_{n}"),
        lambda n, s: (-X, n, RAISING, f"A-_{n}"),
    ),
    "hermite": (
        "x", "H_{%d}", None, 0,
        lambda n, s: (-1, X, RAISING, "a+"),
        lambda n, s: (1, X, RAISING, "a-"),
    ),
    "laguerre-radial": (  # A+_n = (r/2) D + n + alpha - r^2
        "r", "L_{%d}^{\\alpha}", "alpha", 0,
        lambda n, s: (X * Fraction(1, 2), Polynomial.of(s.alpha + n, 0, -1), RAISING, f"A+_{n}"),
        lambda n, s: (X * Fraction(-1, 2), n, RAISING, f"A-_{n}"),
    ),
    "coulomb-radial": (
        "r", None, "ell", 0,
        lambda n, s: (1, RationalFunction(Polynomial.constant(s.ell + 1), X), RAISING, f"A+_l[{s.ell}]"),
        None,
    ),
    "oscillator-3d": (
        "r", None, "ell", 0,
        lambda n, s: (1, RationalFunction(Polynomial.of(s.ell + 1, 0, Fraction(1, 2)), X), RAISING, f"a+_l[{s.ell}]"),
        None,
    ),
}

KINDS = tuple(_OPERATORS)


def make_operator(spec: FamilySpec, direction: str) -> LadderOperator:
    """The family's printed ladder operator with exact coefficients.

    ``direction`` is the index direction (raising moves the family index up);
    the operator's ``form`` is its printed shape (see ``LadderOperator``).
    """
    if direction not in (RAISING, LOWERING):
        raise ValueError(f"unknown direction: {direction!r}")
    var, _, _, least, raising, lowering = _OPERATORS[spec.kind]
    if spec.n < least:
        raise ValueError(f"{spec.kind} ladder operators require index m >= {least}")
    row = raising if direction == RAISING else lowering
    if row is None:
        raise ValueError(f"{spec.kind} has no printed {direction} operator")
    a, b, form, name = row(spec.n, spec)
    return LadderOperator(as_weighted(a), as_weighted(b), form, name, var)


# ---------------------------------------------------------------------------
# Recurrence oracles: classical three-term recurrences, ground truth for the
# whole package.  Nothing here touches LadderOperator.
# ---------------------------------------------------------------------------


#: kind -> spec -> (p_1, k -> (A_k, B_k, C_k)), with p_0 = 1 and
#: p_(k+1) = (A_k x + B_k) p_k - C_k p_(k-1).
_RECURRENCES = {
    "legendre": lambda s: (X, lambda k: (Fraction(2 * k + 1, k + 1), 0, Fraction(k, k + 1))),
    "chebyshev-T": lambda s: (X, lambda k: (2, 0, 1)),
    "chebyshev-U": lambda s: (X * 2, lambda k: (2, 0, 1)),
    "gegenbauer": lambda s: (
        X * (2 * s.lam),
        lambda k: (2 * (k + s.lam) / (k + 1), 0, (k + 2 * s.lam - 1) / (k + 1)),
    ),
    "laguerre": lambda s: (
        Polynomial.of(1 + s.alpha, -1),
        lambda k: (Fraction(-1, k + 1), (2 * k + 1 + s.alpha) / (k + 1), (k + s.alpha) / (k + 1)),
    ),
    "hermite": lambda s: (X * 2, lambda k: (2, 0, 2 * k)),
}


@lru_cache(maxsize=None)
def oracle_recurrence(spec: FamilySpec) -> Polynomial:
    """The family polynomial from its classical three-term recurrence."""
    n = spec.n
    if spec.kind == "laguerre-radial":
        return oracle_recurrence(FamilySpec("laguerre", n, alpha=spec.alpha)).compose(X * X)
    if spec.kind not in _RECURRENCES:
        raise ValueError(f"no recurrence oracle for family {spec.kind!r}")
    p1, coefficients = _RECURRENCES[spec.kind](spec)
    prev, cur = ONE, p1
    for k in range(1, n):
        a, b, c = coefficients(k)
        prev, cur = cur, Polynomial.of(b, a) * cur - prev * c
    return ONE if n == 0 else cur


# ---------------------------------------------------------------------------
# Generation by operator iteration.
# ---------------------------------------------------------------------------


#: kind -> (seeds, operator index offset, k -> c_k, ground exponent or None):
#: p_k = seeds[k] for k < len(seeds), else p_k = c_k R_(k+offset) p_(k-1), where
#: R is the kind's raising operator.  With a ground exponent g, R acts on the
#: weighted member p_(k-1) exp(g) and the weight is divided out afterwards:
#: Hermite's oscillator a+ = x - D maps H_(n-1) exp(-x^2/2) to H_n exp(-x^2/2),
#: with no residual normalization.  The scales follow the printed recursions,
#: e.g. P_n = R_n P_(n-1) / n and C_n = -(1/n) C_n^+ C_(n-1).
_LADDERS = {
    "legendre": ((ONE,), 0, lambda k: Fraction(1, k), None),
    "gegenbauer": ((ONE,), 0, lambda k: Fraction(-1, k), None),
    "chebyshev-T": ((ONE, X), -1, lambda k: 1, None),
    "chebyshev-U": ((ONE,), -1, lambda k: Fraction(1, k), None),
    "laguerre": ((ONE,), 0, lambda k: Fraction(1, k), None),
    "hermite": ((ONE,), 0, lambda k: 1, X * X * Fraction(-1, 2)),
    "laguerre-radial": ((ONE,), 0, lambda k: Fraction(1, k), None),
}

#: Families that generate polynomials by ladder iteration.
GENERATING_KINDS = tuple(_LADDERS)

_FILL_STRIDE = 64


@lru_cache(maxsize=None)
def generate_ladder(spec: FamilySpec) -> Polynomial:
    """Generate the degree-n family polynomial by iterating its ladder operator.

    Each step follows the kind's ``_LADDERS`` row.  Results are cached, so a
    table of depth n costs n operator applications in total.  The cache is
    filled bottom-up at every _FILL_STRIDE-th degree first, so a cold call
    recurses at most _FILL_STRIDE levels deep, whatever n is.
    """
    n = spec.n
    if spec.kind not in _LADDERS:
        hint = "; use generate_assoc_legendre" if spec.kind == "assoc-legendre" else ""
        raise ValueError(f"family {spec.kind!r} has no polynomial ladder generation{hint}")
    seeds, offset, scale, ground = _LADDERS[spec.kind]
    if n < len(seeds):
        return seeds[n]
    for k in range(n % _FILL_STRIDE, n, _FILL_STRIDE):
        generate_ladder(spec.with_n(k))
    below = as_weighted(generate_ladder(spec.with_n(n - 1)))
    raising = make_operator(spec.with_n(n + offset), RAISING)
    if ground is None:
        raised = raising.apply(below)
    else:
        weight = WeightedExpression.exp_of(ground)
        raised = raising.apply(below * weight) / weight
    return raised.as_polynomial() * scale(n)


def _hermite_reduction(n: int) -> tuple[FamilySpec, Polynomial]:
    """H_n = factor * L_k^(p-1/2)(x^2) for n = 2k + p (DLMF 18.7.19-20): the
    laguerre-radial spec (k, p - 1/2) and the factor (-1)^k 2^n k! x^p."""
    k, p = divmod(n, 2)
    return FamilySpec("laguerre-radial", k, alpha=Fraction(2 * p - 1, 2)), X**p * ((-1) ** k * 2**n * math.factorial(k))


def hermite_from_laguerre(n: int, parity: str) -> Polynomial:
    """H_(2n) or H_(2n+1) through the half-integer Laguerre reduction."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    radial, factor = _hermite_reduction(2 * n + (parity == "odd"))
    return generate_ladder(radial) * factor


def generate_assoc_legendre(n: int, m: int) -> WeightedExpression:
    """P_n^m in the canonical basis: (x^2-1)^(m/2) times the m-th derivative of P_n.

    ``assoc_legendre_iterated`` builds the same function from the m-raising
    operators; ``identities.check_assoc_relations`` checks the two agree.
    """
    FamilySpec("assoc-legendre", n, m=m)  # rejects any m outside 0..n
    derivative = nth_derivative(oracle_recurrence(FamilySpec("legendre", n)), m)
    return qpow(Fraction(m, 2)) * derivative


def assoc_legendre_iterated(n: int, m: int) -> WeightedExpression:
    """P_n^m by applying the m-raising operators R_0, ..., R_(m-1) to P_n."""
    FamilySpec("assoc-legendre", n, m=m)  # rejects any m outside 0..n
    acc = as_weighted(oracle_recurrence(FamilySpec("legendre", n)))
    for j in range(m):
        acc = make_operator(FamilySpec("assoc-legendre", n, m=j), RAISING).apply(acc)
    return acc


# ---------------------------------------------------------------------------
# Rodrigues formulas: printed n-fold derivative forms and chain forms.
# ---------------------------------------------------------------------------


def _hermite_radial_row(n: int, spec: FamilySpec) -> tuple:
    # The laguerre-radial row at (k, p - 1/2), with x^p of ``_hermite_reduction``'s factor
    # in the left weight, making it r^(2-2k-p) exp(r^2), and its constant in the scale.  The
    # paper's printed r^(-2k) is inconsistent with the reduction and fails to cancel the weights.
    radial, factor = _hermite_reduction(n)
    left, steps, operand, scale = _CHAINS["laguerre-radial", "h0-chain"][1](radial.n, radial)
    return X**factor.degree * left, steps, operand, scale * factor.leading


#: (kind, variant) -> (least n, (n, spec) -> (left, steps, operand, scale)):
#: p_n = scale * [left, *steps] applied to operand.  A standard row is the
#: printed p_n = (1/(K_n w)) D^n (w sigma^n), with left 1/w, steps D^n, operand
#: w sigma^n and scale 1/K_n.  An h0-chain's steps are D, then [(x^2-1)^(3/2),
#: D] repeated, or [r^3, D] in r; a one-step split's are [D, (x^2-1)^(n/2), D,
#: ..., D].  Legendre and Chebyshev U have no rows: P_n = C_n^(1/2) and U_n =
#: C_n^(1) (DLMF §18.7), so they read the gegenbauer rows at the lambda of
#: ``_GEGENBAUER_LAMBDA``, whose scales reduce to theirs, e.g.
#: 2^n (1/2)_n / (n! (n+1)_n) = 1/(2^n n!).
_CHAINS = {
    ("chebyshev-T", "standard"): (0, lambda n, s: (
        qpow(Fraction(1, 2)),
        [DIFF] * n,
        qpow(Fraction(2 * n - 1, 2)),
        1 / (2**n * pochhammer(Fraction(1, 2), n)),
    )),
    ("gegenbauer", "standard"): (0, lambda n, s: (
        qpow(Fraction(1, 2) - s.lam),
        [DIFF] * n,
        qpow(n + s.lam - Fraction(1, 2)),
        Fraction(2**n) * pochhammer(s.lam, n) / (math.factorial(n) * pochhammer(n + 2 * s.lam, n)),
    )),
    ("laguerre", "standard"): (0, lambda n, s: (
        rpow(-s.alpha) * WeightedExpression.exp_of(X),
        [DIFF] * n,
        rpow(n + s.alpha) * WeightedExpression.exp_of(-X),
        Fraction(1, math.factorial(n)),
    )),
    ("chebyshev-T", "h0-chain"): (2, lambda n, s: (
        qpow(Fraction(3 - n, 2)),
        [DIFF] + [qpow(Fraction(3, 2)), DIFF] * (n - 2),
        qpow(Fraction(1, 2)) * X,
        Fraction(1, math.factorial(n - 1)),
    )),
    ("gegenbauer", "h0-chain"): (1, lambda n, s: (
        qpow(Fraction(3 - n, 2) - s.lam),
        [DIFF] + [qpow(Fraction(3, 2)), DIFF] * (n - 1),
        qpow(s.lam),
        Fraction(1, math.factorial(n)),
    )),
    ("laguerre-radial", "h0-chain"): (1, lambda n, s: (
        rpow(1 - 2 * (n + s.alpha)) * WeightedExpression.exp_of(X * X),
        [DIFF] + [rpow(3), DIFF] * (n - 1),
        rpow(2 * (s.alpha + 1)) * WeightedExpression.exp_of(-(X * X)),
        Fraction(1, math.factorial(n) * 2**n),
    )),
    ("hermite", "h0-chain"): (2, _hermite_radial_row),
    ("chebyshev-T", "one-step-split"): (2, lambda n, s: (
        qpow(Fraction(3 - n, 2)),
        [DIFF, qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(Fraction(2 * n - 3, 2)),
        1 / (2 ** (n - 1) * pochhammer(Fraction(1, 2), n - 1) * (n - 1)),
    )),
    ("gegenbauer", "one-step-split"): (1, lambda n, s: (
        qpow(Fraction(3 - n, 2) - s.lam),
        [DIFF, qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(n + s.lam - Fraction(3, 2)),
        Fraction(2 ** (n - 1))
        * pochhammer(s.lam, n - 1)
        / (math.factorial(n) * pochhammer(n + 2 * s.lam - 1, n - 1)),
    )),
}

#: kind -> the lambda at which it is the Gegenbauer family.
_GEGENBAUER_LAMBDA = {"legendre": Fraction(1, 2), "chebyshev-U": Fraction(1)}


def rodrigues_standard(spec: FamilySpec) -> Polynomial:
    """The printed n-fold-derivative Rodrigues formula, evaluated exactly from its ``_CHAINS`` row."""
    return drift_chain(chain_row(spec, "standard"))[0].as_polynomial()


def rodrigues_chain(spec: FamilySpec, variant: str) -> Polynomial:
    """A printed chain form, the h0-chain or the one-step split, from its ``_CHAINS`` row.

    Radial variants return polynomials in r.
    """
    if variant not in ("h0-chain", "one-step-split"):
        raise ValueError(f"unknown chain variant: {variant!r}")
    return drift_chain(chain_row(spec, variant))[0].as_polynomial()


def chain_row(spec: FamilySpec, variant: str) -> tuple:
    """The (kind, variant) row of ``_CHAINS`` (gegenbauer's for a kind in ``_GEGENBAUER_LAMBDA``) at spec."""
    lam = _GEGENBAUER_LAMBDA.get(spec.kind)
    row_spec = spec if lam is None else FamilySpec("gegenbauer", spec.n, lam=lam)
    if (row_spec.kind, variant) not in _CHAINS:
        raise ValueError(f"family {spec.kind!r} has no printed {variant} form")
    least, row = _CHAINS[row_spec.kind, variant]
    if spec.n < least:
        raise ValueError(f"the {variant} form of {spec.kind} needs n >= {least}")
    try:
        return row(spec.n, row_spec)
    except ZeroDivisionError:  # a scale's Pochhammer denominator vanishes, e.g. gegenbauer at lambda = -1, n = 2
        params = ", ".join(f"{name} = {value}" for name, value in spec.params().items())
        raise ValueError(f"the {variant} form of {spec.kind} is undefined at n = {spec.n}, {params}") from None


def drift_chain(row: tuple, d: Callable[[list], list] = lambda cs: [c.diff() for c in cs]) -> list[WeightedExpression]:
    """The scaled coefficient list of a ``chain_row``, read with each D as ``d`` of the list.

    The walk starts from [operand], and a multiply step scales every entry.  D alone gives [member];
    D - s t, mapping [c_0, ..., c_k] to [c_0', c_1' - t c_0, ..., -t c_k], gives the s^0, s^1, ...
    coefficients, whose sum is the chain with e = exp(int t) on the left and 1/e on the operand.
    """
    left, steps, operand, scale = row
    coeffs = [as_weighted(operand)]
    for step in reversed([left, *steps]):
        coeffs = d(coeffs) if step is DIFF else [step * c for c in coeffs]
    return [c * scale for c in coeffs]
