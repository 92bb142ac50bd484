"""Operator catalog, ladder generation, recurrence oracles, and Rodrigues chains.

Ten families are supported: legendre, assoc-legendre(m), gegenbauer(lambda),
chebyshev-T, chebyshev-U, laguerre(alpha), hermite, laguerre-radial(alpha),
coulomb-radial(ell), oscillator-3d(ell).  The polynomial families are generated
two independent ways: by iterating their ladder operators, and by their
classical three-term recurrences (`oracle_recurrence`).  The oracle path is
ground truth for every other construction in the package and deliberately
shares no code with the operator path.

The printed formulas are kept as row tables, one row per family, each read by
a single evaluator: ``_RECURRENCES`` holds (p_1, k -> (A_k, B_k, C_k)) for the
recurrence p_(k+1) = (A_k x + B_k) p_k - C_k p_(k-1); ``_RODRIGUES`` holds
(1/w, w sigma^n, 1/K_n) for p_n = (1/(K_n w)) D^n (w sigma^n); ``_CHAINS``
holds, per family and chain variant, the least n and the steps of the chain
[left, D, *middle] applied to an operand.  Rows are functions of the index and
the spec, so no weighted expression is built at import time.

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

from .algebra import ONE, Polynomial, RationalFunction, X, nth_derivative
from .ladder import DIFF, LOWERING, RAISING, LadderOperator, apply_chain
from .weighted import WeightedExpression

KINDS = (
    "legendre",
    "assoc-legendre",
    "gegenbauer",
    "chebyshev-T",
    "chebyshev-U",
    "laguerre",
    "hermite",
    "laguerre-radial",
    "coulomb-radial",
    "oscillator-3d",
)

RADIAL_KINDS = ("laguerre-radial", "coulomb-radial", "oscillator-3d")

#: Families that generate polynomials by ladder iteration.
GENERATING_KINDS = (
    "legendre",
    "gegenbauer",
    "chebyshev-T",
    "chebyshev-U",
    "laguerre",
    "hermite",
    "laguerre-radial",
)

X_SQ_MINUS_1 = Polynomial.of(-1, 0, 1)
ONE_MINUS_X_SQ = Polynomial.of(1, 0, -1)

#: Ratio of the raw oscillator iteration (x - D applied to exp(-x^2/2)) to the
#: physicists' Hermite polynomials; determined empirically, and equal to one:
#: the iteration reproduces H_n with no residual normalization.
OSCILLATOR_HERMITE_SCALE = Fraction(1)

#: Ratio of the m-iterated associated Legendre form to the definitional
#: weight-times-derivative form in the canonical basis; measured once, equal
#: to one.
ASSOC_LEGENDRE_ITERATION_SCALE = Fraction(1)


def qpow(exponent: Fraction | int) -> WeightedExpression:
    """(x^2-1)^exponent in the canonical split basis (x-1)^e (x+1)^e."""
    e = Fraction(exponent)
    return WeightedExpression(
        RationalFunction(ONE), ((Fraction(1), e), (Fraction(-1), e))
    )


def rpow(exponent: Fraction | int) -> WeightedExpression:
    """r^exponent, a power factor at the origin."""
    return WeightedExpression.power(0, Fraction(exponent))


def odd_double_factorial(k: int) -> int:
    """k!! for odd k >= -1, with (-1)!! = 1."""
    if k < -1 or k % 2 == 0:
        raise ValueError(f"expected an odd integer >= -1, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def pochhammer(z: Fraction | int, k: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+k-1)."""
    if k < 0:
        raise ValueError("pochhammer index must be nonnegative")
    out = Fraction(1)
    z = Fraction(z)
    for i in range(k):
        out *= z + i
    return out


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind: {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("index n must be a nonnegative integer")
        if self.kind == "assoc-legendre":
            if self.m is None or not 0 <= self.m <= self.n:
                raise ValueError("assoc-legendre requires an order m with 0 <= m <= n")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no order m")
        if self.kind == "gegenbauer":
            if self.lam is None or Fraction(self.lam) == 0:
                raise ValueError("gegenbauer requires a nonzero rational parameter")
            object.__setattr__(self, "lam", Fraction(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.kind} takes no lambda parameter")
        if self.kind in ("laguerre", "laguerre-radial"):
            if self.alpha is None or Fraction(self.alpha) <= -1:
                raise ValueError(f"{self.kind} requires a rational alpha > -1")
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha parameter")
        if self.kind in ("coulomb-radial", "oscillator-3d"):
            if self.ell is None or self.ell < 0:
                raise ValueError(f"{self.kind} requires an integer ell >= 0")
        elif self.ell is not None:
            raise ValueError(f"{self.kind} takes no ell parameter")

    @property
    def var(self) -> str:
        return "r" if self.kind in RADIAL_KINDS else "x"

    def with_n(self, n: int) -> FamilySpec:
        return FamilySpec(self.kind, n, self.alpha, self.lam, self.m, self.ell)

    def params(self) -> dict[str, str]:
        out: dict[str, str] = {}
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        if self.lam is not None:
            out["lambda"] = str(self.lam)
        if self.m is not None:
            out["m"] = str(self.m)
        if self.ell is not None:
            out["ell"] = str(self.ell)
        return out


def _wp(p: Polynomial) -> WeightedExpression:
    return WeightedExpression.from_polynomial(p)


def make_operator(spec: FamilySpec, direction: str) -> LadderOperator:
    """The family's printed ladder operator with exact coefficients.

    ``direction`` is the index direction (raising moves the family index up).
    Families whose index-lowering operator is printed in the plain a*D + b
    shape get form="raising"; the composed -D(a .) + b shape gets
    form="lowering".
    """
    if direction not in (RAISING, LOWERING):
        raise ValueError(f"unknown direction: {direction!r}")
    n = spec.n
    kind = spec.kind
    if kind == "legendre":
        # R_n = (x^2-1) D + n x ; L_n = -D (x^2-1) + n x
        form = RAISING if direction == RAISING else LOWERING
        name = ("R_%d" if direction == RAISING else "L_%d") % n
        return LadderOperator(_wp(X_SQ_MINUS_1), _wp(X * n), form, name)
    if kind == "assoc-legendre":
        # Canonical-basis transcription of the m-raising/lowering pair.  With
        # Q = (x-1)^(1/2) (x+1)^(1/2) one has Q^2 = +(x^2-1), opposite in sign
        # to ((1-x^2)^(1/2))^2; the empirically determined sign choices below
        # are the unique ones making R_m P_n^m = P_n^(m+1) and
        # L_m P_n^(m+1) = (n-m)(n+m+1) P_n^m exact in this basis.
        m = spec.m
        q = qpow(Fraction(1, 2))
        mx_over_q = WeightedExpression(
            RationalFunction(X * m, X_SQ_MINUS_1),
            ((Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))),
        )
        if direction == RAISING:
            return LadderOperator(q, -mx_over_q, RAISING, f"R_m[m={m}]")
        return LadderOperator(-q, mx_over_q, LOWERING, f"L_m[m={m}]")
    if kind == "gegenbauer":
        lam = spec.lam
        if direction == RAISING:
            # maps C_(n-1) to -n C_n
            b = X * (-(n - 1 + 2 * lam))
            return LadderOperator(_wp(ONE_MINUS_X_SQ), _wp(b), RAISING, f"C+_{n}")
        return LadderOperator(_wp(ONE_MINUS_X_SQ), _wp(X * n), RAISING, f"C-_{n}")
    if kind == "chebyshev-U":
        if direction == RAISING:
            # maps U_n to (n+1) U_(n+1)
            return LadderOperator(_wp(X_SQ_MINUS_1), _wp(X * (n + 2)), RAISING, f"U+_{n}")
        return LadderOperator(_wp(ONE_MINUS_X_SQ), _wp(X * n), RAISING, f"U-_{n}")
    if kind == "chebyshev-T":
        if n < 1:
            raise ValueError("chebyshev-T ladder operators require index m >= 1")
        a = X_SQ_MINUS_1 * Fraction(1, n) if direction == RAISING else ONE_MINUS_X_SQ * Fraction(1, n)
        return LadderOperator(_wp(a), _wp(X), RAISING, f"T{'+' if direction == RAISING else '-'}_{n}")
    if kind == "laguerre":
        alpha = spec.alpha
        if direction == RAISING:
            # A+ = x D - x + alpha + n, maps L_(n-1) to n L_n
            return LadderOperator(_wp(X), _wp(Polynomial.of(alpha + n, -1)), RAISING, f"A+_{n}")
        return LadderOperator(_wp(-X), _wp(Polynomial.constant(n)), RAISING, f"A-_{n}")
    if kind == "hermite":
        if direction == RAISING:
            return LadderOperator(_wp(Polynomial.constant(-1)), _wp(X), RAISING, "a+")
        return LadderOperator(_wp(ONE), _wp(X), RAISING, "a-")
    if kind == "laguerre-radial":
        alpha = spec.alpha
        if direction == RAISING:
            # A+ = (r/2) D + n + alpha - r^2
            b = Polynomial.of(alpha + n, 0, -1)
            return LadderOperator(_wp(X * Fraction(1, 2)), _wp(b), RAISING, f"A+_{n}", var="r")
        return LadderOperator(_wp(X * Fraction(-1, 2)), _wp(Polynomial.constant(n)), RAISING, f"A-_{n}", var="r")
    if kind == "coulomb-radial":
        if direction == LOWERING:
            raise ValueError("coulomb-radial has no printed lowering operator")
        b = WeightedExpression.from_rational(RationalFunction(Polynomial.constant(spec.ell + 1), X))
        return LadderOperator(WeightedExpression.one(), b, RAISING, f"A+_l[{spec.ell}]", var="r")
    if kind == "oscillator-3d":
        if direction == LOWERING:
            raise ValueError("oscillator-3d has no printed lowering operator")
        b = WeightedExpression.from_rational(
            RationalFunction(Polynomial.of(spec.ell + 1, 0, Fraction(1, 2)), X)
        )
        return LadderOperator(WeightedExpression.one(), b, RAISING, f"a+_l[{spec.ell}]", var="r")
    raise ValueError(f"unknown family kind: {kind!r}")


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


@lru_cache(maxsize=None)
def generate_ladder(spec: FamilySpec) -> Polynomial:
    """Generate the degree-n family polynomial by iterating its ladder operator.

    Scalar normalization follows the printed recursions, e.g.
    P_n = R_n P_(n-1) / n and C_n = -(1/n) C_n^+ C_(n-1).  Results are cached,
    so a table of depth n costs n operator applications in total.
    """
    n = spec.n
    kind = spec.kind
    if kind not in GENERATING_KINDS:
        raise ValueError(
            f"family {kind!r} has no polynomial ladder generation"
            + ("; use generate_assoc_legendre" if kind == "assoc-legendre" else "")
        )
    if kind == "hermite":
        ground = WeightedExpression.exp_of(X * X * Fraction(-1, 2))
        if n == 0:
            return ((ground / ground) * OSCILLATOR_HERMITE_SCALE).as_polynomial()
        previous = generate_ladder(spec.with_n(n - 1)) * ground
        raised = make_operator(spec, RAISING).apply(previous)
        return (raised / ground).as_polynomial()
    if kind == "chebyshev-T":
        if n <= 1:
            return ONE if n == 0 else X
        below = WeightedExpression.from_polynomial(generate_ladder(spec.with_n(n - 1)))
        return make_operator(spec.with_n(n - 1), RAISING).apply(below).as_polynomial()
    if n == 0:
        return ONE
    below = WeightedExpression.from_polynomial(generate_ladder(spec.with_n(n - 1)))
    if kind == "chebyshev-U":
        raised = make_operator(spec.with_n(n - 1), RAISING).apply(below)
        return (raised * Fraction(1, n)).as_polynomial()
    scale = Fraction(-1, n) if kind == "gegenbauer" else Fraction(1, n)
    raised = make_operator(spec.with_n(n), RAISING).apply(below)
    return (raised * scale).as_polynomial()


def hermite_via_oscillator(n: int) -> Polynomial:
    """H_n from n application of the oscillator raising operator to exp(-x^2/2)."""
    return generate_ladder(FamilySpec("hermite", n))


def hermite_from_laguerre(n: int, parity: str) -> Polynomial:
    """H_(2n) or H_(2n+1) through the half-integer Laguerre reduction."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    sign = -1 if n % 2 else 1
    if parity == "even":
        base = generate_ladder(FamilySpec("laguerre", n, alpha=Fraction(-1, 2)))
        return base.compose(X * X) * (sign * 2 ** (2 * n) * math.factorial(n))
    base = generate_ladder(FamilySpec("laguerre", n, alpha=Fraction(1, 2)))
    return X * base.compose(X * X) * (sign * 2 ** (2 * n + 1) * math.factorial(n))


def generate_assoc_legendre(n: int, m: int) -> WeightedExpression:
    """P_n^m in the canonical basis: (x^2-1)^(m/2) times the m-th derivative of P_n.

    Also rebuilds the same function by iterating the m-raising operator from
    P_n and checks the two agree up to ASSOC_LEGENDRE_ITERATION_SCALE.
    """
    spec = FamilySpec("assoc-legendre", n, m=m)
    definitional = qpow(Fraction(m, 2)) * nth_derivative(oracle_recurrence(FamilySpec("legendre", n)), m)
    iterated = assoc_legendre_iterated(n, m)
    ratio = iterated.scalar_ratio(definitional)
    if ratio != ASSOC_LEGENDRE_ITERATION_SCALE:
        raise AssertionError(
            f"m-iterated form of P_{n}^{m} differs from the definitional form by {ratio}"
        )
    return definitional


def assoc_legendre_iterated(n: int, m: int) -> WeightedExpression:
    """P_n^m by applying the m-raising operators R_0, ..., R_(m-1) to P_n."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    acc = WeightedExpression.from_polynomial(oracle_recurrence(FamilySpec("legendre", n)))
    for j in range(m):
        acc = make_operator(FamilySpec("assoc-legendre", n, m=j), RAISING).apply(acc)
    return acc


# ---------------------------------------------------------------------------
# Rodrigues formulas: printed n-fold derivative forms and chain forms.
# ---------------------------------------------------------------------------


#: kind -> (n, spec) -> (1/w, w sigma^n, 1/K_n) in p_n = (1/(K_n w)) D^n (w sigma^n).
_RODRIGUES = {
    "legendre": lambda n, s: (qpow(0), qpow(n), Fraction(1, 2**n * math.factorial(n))),
    "chebyshev-U": lambda n, s: (
        qpow(Fraction(-1, 2)),
        qpow(Fraction(2 * n + 1, 2)),
        Fraction(n + 1, odd_double_factorial(2 * n + 1)),
    ),
    "chebyshev-T": lambda n, s: (
        qpow(Fraction(1, 2)),
        qpow(Fraction(2 * n - 1, 2)),
        Fraction(1, odd_double_factorial(2 * n - 1)),
    ),
    "gegenbauer": lambda n, s: (
        qpow(Fraction(1, 2) - s.lam),
        qpow(n + s.lam - Fraction(1, 2)),
        Fraction(2**n) * pochhammer(s.lam, n) / (math.factorial(n) * pochhammer(n + 2 * s.lam, n)),
    ),
    "laguerre": lambda n, s: (
        rpow(-s.alpha) * WeightedExpression.exp_of(X),
        rpow(n + s.alpha) * WeightedExpression.exp_of(-X),
        Fraction(1, math.factorial(n)),
    ),
}


def rodrigues_standard(spec: FamilySpec) -> Polynomial:
    """The printed n-fold-derivative Rodrigues formula, evaluated exactly.

    Half-integer weights are evaluated in the (x - root) basis; the scalars
    1/K_n fold in the net (-1)^n basis phase so the result matches the
    recurrence oracle exactly.
    """
    if spec.kind not in _RODRIGUES:
        raise ValueError(f"family {spec.kind!r} has no printed n-fold Rodrigues formula")
    left, operand, scale = _RODRIGUES[spec.kind](spec.n, spec)
    return (left * apply_chain([DIFF] * spec.n, operand) * scale).as_polynomial()


def _hermite_radial_row(n: int, spec: FamilySpec) -> tuple:
    # H_(2k) and H_(2k+1) through the x = r^2 Laguerre chains at alpha = -+1/2.
    # The even display's prefactor is r^(2-2k): the printed r^(-2k) is
    # inconsistent with the Laguerre reduction and fails to cancel the weights.
    # The odd display's prefactor carries the extra r of H_(2k+1) ~ r L_k^(1/2)(r^2).
    k, parity = divmod(n, 2)
    sign = -1 if k % 2 else 1
    left = rpow(2 - 2 * k - parity) * WeightedExpression.exp_of(X * X)
    operand = rpow(1 + 2 * parity) * WeightedExpression.exp_of(-(X * X))
    return left, [rpow(3), DIFF] * (k - 1), operand, Fraction(sign * 2 ** (k + parity))


#: (kind, variant) -> (least n, (n, spec) -> (left, middle, operand, scale)):
#: p_n = scale * [left, D, *middle] applied to operand.  An h0-chain's middle
#: repeats [(x^2-1)^(3/2), D], or [r^3, D] in r; a one-step split's is
#: [(x^2-1)^(n/2), D, ..., D].
_CHAINS = {
    ("legendre", "h0-chain"): (1, lambda n, s: (
        qpow(Fraction(2 - n, 2)),
        [qpow(Fraction(3, 2)), DIFF] * (n - 1),
        qpow(Fraction(1, 2)),
        Fraction(1, math.factorial(n)),
    )),
    ("chebyshev-U", "h0-chain"): (1, lambda n, s: (
        qpow(Fraction(1 - n, 2)),
        [qpow(Fraction(3, 2)), DIFF] * (n - 1),
        qpow(1),
        Fraction(1, math.factorial(n)),
    )),
    ("chebyshev-T", "h0-chain"): (2, lambda n, s: (
        qpow(Fraction(3 - n, 2)),
        [qpow(Fraction(3, 2)), DIFF] * (n - 2),
        _wp(X) * qpow(Fraction(1, 2)),
        Fraction(1, math.factorial(n - 1)),
    )),
    ("gegenbauer", "h0-chain"): (1, lambda n, s: (
        qpow(Fraction(3 - n, 2) - s.lam),
        [qpow(Fraction(3, 2)), DIFF] * (n - 1),
        qpow(s.lam),
        Fraction(1, math.factorial(n)),
    )),
    ("laguerre-radial", "h0-chain"): (1, lambda n, s: (
        rpow(1 - 2 * (n + s.alpha)) * WeightedExpression.exp_of(X * X),
        [rpow(3), DIFF] * (n - 1),
        rpow(2 * (s.alpha + 1)) * WeightedExpression.exp_of(-(X * X)),
        Fraction(1, math.factorial(n) * 2**n),
    )),
    ("hermite", "h0-chain"): (2, _hermite_radial_row),
    ("legendre", "one-step-split"): (1, lambda n, s: (
        qpow(Fraction(2 - n, 2)),
        [qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(n - 1),
        Fraction(1, 2 ** (n - 1) * math.factorial(n)),
    )),
    ("chebyshev-U", "one-step-split"): (1, lambda n, s: (
        qpow(Fraction(1 - n, 2)),
        [qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(Fraction(2 * n - 1, 2)),
        Fraction(1, odd_double_factorial(2 * n - 1)),
    )),
    ("chebyshev-T", "one-step-split"): (2, lambda n, s: (
        qpow(Fraction(3 - n, 2)),
        [qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(Fraction(2 * n - 3, 2)),
        Fraction(1, odd_double_factorial(2 * n - 3) * (n - 1)),
    )),
    ("gegenbauer", "one-step-split"): (1, lambda n, s: (
        qpow(Fraction(3 - n, 2) - s.lam),
        [qpow(Fraction(n, 2))] + [DIFF] * (n - 1),
        qpow(n + s.lam - Fraction(3, 2)),
        Fraction(2 ** (n - 1))
        * pochhammer(s.lam, n - 1)
        / (math.factorial(n) * pochhammer(n + 2 * s.lam - 1, n - 1)),
    )),
}


def rodrigues_chain(spec: FamilySpec, variant: str) -> Polynomial:
    """Printed chain forms: iterated h=0 chains and one-step-split chains.

    h0-chain alternates multiplication by the three-halves-power weight with
    differentiation; one-step-split applies a single weighted derivative to an
    (n-1)-fold plain derivative.  Radial variants return polynomials in r.
    """
    if variant not in ("h0-chain", "one-step-split"):
        raise ValueError(f"unknown chain variant: {variant!r}")
    if (spec.kind, variant) not in _CHAINS:
        raise ValueError(f"family {spec.kind!r} has no printed {variant} form")
    least, row = _CHAINS[spec.kind, variant]
    if spec.n < least:
        raise ValueError(f"the {variant} form of {spec.kind} needs n >= {least}")
    left, middle, operand, scale = row(spec.n, spec)
    return (apply_chain([left, DIFF, *middle], operand) * scale).as_polynomial()
