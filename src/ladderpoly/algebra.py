"""Exact univariate polynomial and rational-function arithmetic over the rationals.

Scalars are ``fractions.Fraction`` throughout: arbitrary precision, always
reduced, positive denominator.  A polynomial is stored as one rational content
times a dense tuple of Python ``int``s indexed by degree, as FLINT's
``fmpq_poly`` is.  The ints are primitive (their gcd is 1), have a positive
leading entry and no trailing zeros; the zero polynomial is content 0 with no
ints.  The pair is canonical, so equality and hashing compare it, and
``coeffs`` builds the ``Fraction`` coefficients only when asked.  A rational
function keeps its denominator monic and coprime to the numerator, so equal
functions have identical representations.

Arithmetic runs on the ints and touches the content once per result.  A
product multiplies the contents and convolves the ints, with no gcd: by
Gauss's lemma a product of primitive polynomials is primitive.  A sum scales
both operands to one content and takes one gcd.  Long division is
fraction-free: the remainder is scaled by the divisor's leading entry over
its gcd with the term being cancelled, and only when that factor is not 1.
``poly_gcd`` runs Euclid on primitive parts, the primitive polynomial
remainder sequence (Knuth, TAOCP vol. 2, 4.6.1; Brown and Traub 1971).
Evaluation at p/q runs Horner's rule on the ints and builds one ``Fraction``.

``RationalFunction`` arithmetic on reduced operands cancels only what can
cancel, the gcd-saving rules for fractions over a Euclidean domain (Henrici,
JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1), and wraps the result without a
further gcd:

* (a/b)(c/d) divides out gcd(a, d) and gcd(c, b); a quotient multiplies by
  the monic reciprocal;
* a/b + c/d with d1 = gcd(b, d) cancels only gcd(t, d1) from
  t = a(d/d1) + c(b/d1) over b(d/d1); for b = d that is gcd(a + c, b);
* (a/b)' = (a'(b/g) - a(b'/g)) / (b(b/g)) with g = gcd(b, b') is reduced in
  characteristic 0, and negation needs no gcd.

Every cancellation, the public constructor's included, goes through
``_cancel``, which skips Euclid when either side is constant: a nonzero
constant has no factor of positive degree.

The module also provides partial-fraction decomposition and symbolic
integration for rational functions whose denominators split into distinct
rational linear factors.  That is exactly the class whose antiderivative is a
polynomial plus a sum of logarithms, which downstream code exponentiates back
into weighted expressions.

Rational roots are found by p-adic lifting, not by listing divisors: the
roots of the square-free part modulo a small prime are lifted by Newton's
method until their p-adic images determine the rational roots, so the cost
grows with the bit size of the coefficients rather than their magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

#: The degree limit on parsed expressions and on a weight's folded integer powers.
MAX_EXPONENT = 512


class DecompositionError(ValueError):
    """The rational function lies outside the supported integrable class."""


class RepeatedPoleError(DecompositionError):
    """Denominator is not square-free."""


class IrreducibleFactorError(DecompositionError):
    """Denominator has an irreducible non-linear factor over the rationals."""


def _coerce_scalar(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _primitive(content: Fraction, ints: list[int]) -> tuple[Fraction, tuple[int, ...]]:
    """content * ints in canonical form: no trailing zeros, primitive ints, positive lead."""
    end = len(ints)
    while end and not ints[end - 1]:
        end -= 1
    if not end:
        return _NIL, ()
    ints = ints[:end]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g == 1:
        return content, tuple(ints)
    return content * g, tuple(c // g for c in ints)


_NIL = Fraction(0)
_UNIT = Fraction(1)


@dataclass(frozen=True, init=False)
class Polynomial:
    """Dense univariate polynomial ``content * sum(ints[k] * x**k)``.

    ``ints`` is primitive with a positive leading entry, so the pair is
    canonical; ``coeffs[k]`` is the degree-k coefficient as a ``Fraction``.
    """

    content: Fraction
    ints: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        coeffs = [_coerce_scalar(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        content, ints = _primitive(Fraction(1, den), [c.numerator * (den // c.denominator) for c in coeffs])
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "ints", ints)

    @classmethod
    def _raw(cls, content: Fraction, ints: tuple[int, ...]) -> Polynomial:
        """Wrap a pair already in canonical form, skipping every check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "content", content)
        object.__setattr__(poly, "ints", ints)
        return poly

    @classmethod
    def _make(cls, content: Fraction, ints: list[int]) -> Polynomial:
        """content * ints, brought to canonical form."""
        return cls._raw(*_primitive(content, ints))

    @classmethod
    def of(cls, *coeffs: Scalar) -> Polynomial:
        """Build from coefficients listed in ascending degree order."""
        return cls(coeffs)

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return cls((value,))

    @classmethod
    def monomial(cls, coeff: Scalar, degree: int) -> Polynomial:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        content = self.content
        return tuple(content * c for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.ints):
            return self.content * self.ints[degree]
        return _NIL

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.ints:
            return self
        if not self.ints:
            return other
        # self + other = content * (sa * self.ints + sb * other.ints), where
        # content is the gcd of the two contents.
        na, da = self.content.numerator, self.content.denominator
        nb, db = other.content.numerator, other.content.denominator
        gn, gd = math.gcd(na, nb), math.gcd(da, db)
        sa, sb = na // gn * (db // gd), nb // gn * (da // gd)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        merged = [sa * c for c in a]
        for i, c in enumerate(b):
            merged[i] += sb * c
        return Polynomial._make(Fraction(gn, da // gd * db), merged)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        return -(self - other)

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(-self.content, self.ints)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return ZERO
            return Polynomial._raw(self.content * other, self.ints)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return ZERO
        c, d = self.content, other.content
        content = d if c == 1 else c if d == 1 else c * d
        # A constant's ints are (1,), and by Gauss's lemma the product of
        # primitive polynomials is primitive.
        if len(a) == 1:
            return Polynomial._raw(content, b)
        if len(b) == 1:
            return Polynomial._raw(content, a)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial._raw(content, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Fraction-free long division of the ints.

        Before a step whose leading term c the divisor's leading entry does
        not divide, the remainder and the quotient so far are scaled by
        lead / gcd(c, lead); ``scale`` collects those factors, so that
        scale * self.ints == quotient * other.ints + remainder throughout.
        """
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        divisor, top = other.ints, other.degree
        if self.degree < top:
            return ZERO, self
        lead = divisor[-1]
        remainder = list(self.ints)
        quotient = [0] * (self.degree - top + 1)
        scale = 1
        for k in reversed(range(len(quotient))):
            c = remainder[k + top]
            if c:
                g = math.gcd(c, lead)
                if g != lead:
                    m = lead // g
                    scale *= m
                    remainder[: k + top] = [r * m for r in remainder[: k + top]]
                    quotient[k + 1 :] = [q * m for q in quotient[k + 1 :]]
                q = quotient[k] = c // g
                for j in range(top):
                    remainder[k + j] -= q * divisor[j]
        content = self.content if scale == 1 else self.content / scale
        d = other.content
        quotient_content = content if d == 1 else content / d
        return Polynomial._make(quotient_content, quotient), Polynomial._make(content, remainder[:top])

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate by Horner's rule on the ints, homogenized at point = p/q."""
        x = _coerce_scalar(point)
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for c in reversed(self.ints):
            acc = acc * p + c * q_power
            q_power *= q
        # acc is the value times q**degree, and q_power is q**(degree + 1).
        return Fraction(self.content.numerator * acc * q, self.content.denominator * q_power)

    def diff(self) -> Polynomial:
        return Polynomial._make(self.content, [k * c for k, c in enumerate(self.ints)][1:])

    def integral(self) -> Polynomial:
        """Antiderivative with integration constant fixed to zero."""
        den = math.lcm(*range(1, len(self.ints) + 1))
        return Polynomial._make(self.content / den, [0] + [c * (den // k) for k, c in enumerate(self.ints, 1)])

    def compose(self, inner: Polynomial) -> Polynomial:
        """Substitution self(inner(x)), exact."""
        acc = ZERO
        for c in reversed(self.ints):
            acc = acc * inner + c
        return acc * self.content

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        return Polynomial._raw(Fraction(1, self.ints[-1]), self.ints)

    def to_text(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=False)

    def to_latex(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=True)

    def __str__(self) -> str:
        return self.to_text()


ZERO = Polynomial._raw(_NIL, ())
ONE = Polynomial._raw(_UNIT, (1,))
X = Polynomial._raw(_UNIT, (0, 1))


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial._raw(_coerce_scalar(value), (1,)) if value else ZERO
    return NotImplemented


def linear(root: Scalar) -> Polynomial:
    """The monic factor (x - root)."""
    root = _coerce_scalar(root)
    return Polynomial._raw(Fraction(1, root.denominator), (-root.numerator, root.denominator))


def nth_derivative(p: Polynomial, order: int) -> Polynomial:
    """The order-th derivative of p, in one pass: c_k x^k contributes k!/(k-order)! c_k x^(k-order)."""
    return Polynomial._make(p.content, [math.perm(k, order) * c for k, c in enumerate(p.ints)][order:])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid on primitive parts (primitive PRS).

    Each remainder is already primitive; dropping its content keeps the
    scale factors of the fraction-free divisions from piling up in it.
    """
    while not b.is_zero:
        r = a % b
        a, b = b, Polynomial._raw(_UNIT, r.ints) if r.ints else ZERO
    return a.monic()


def _cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """a and b divided by their monic gcd; a constant has no common factor, so no gcd is taken."""
    if a.degree > 0 and b.degree > 0:
        g = poly_gcd(a, b)
        if g.degree > 0:
            return a // g, b // g
    return a, b


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials in canonical form: den monic, gcd(num, den) = 1."""

    num: Polynomial
    den: Polynomial = ONE

    def __post_init__(self) -> None:
        num = _as_poly(self.num)
        den = _as_poly(self.den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            num, den = _cancel(num, den)
            monic = den.monic()
            if monic.content != den.content:
                num, den = num * (monic.content / den.content), monic
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Wrap num/den, already coprime with den monic, skipping every check."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"denominator {self.den} does not divide numerator")
        return self.num

    def __add__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        """a/b + c/d with d1 = gcd(b, d): only gcd(a*(d/d1) + c*(b/d1), d1) can cancel."""
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        d1 = ONE
        if b.degree > 0 and d.degree > 0:
            d1 = b if b == d else poly_gcd(b, d)
            if d1.degree > 0:
                b, d = b // d1, d // d1
        t = a * d + c * b
        if not t.ints:
            return _ZERO_RF
        t, d1 = _cancel(t, d1)
        return RationalFunction._reduced(t, b * d1 * d)

    __radd__ = __add__

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return -(self - other)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced(-self.num, self.den)

    def _times(self, c: Polynomial, d: Polynomial) -> RationalFunction:
        """self * c/d for c, d coprime and d monic: only gcd(num, d) and gcd(c, den) can cancel."""
        a, b = self.num, self.den
        if not a.ints or not c.ints:
            return _ZERO_RF
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RationalFunction._reduced(a * c, b * d)

    def __mul__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self._times(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        scale = 1 / other.num.leading
        return self._times(other.den * scale, other.num * scale)

    def __rtruediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return _as_ratfn(other) / self

    def diff(self) -> RationalFunction:
        """(a/b)' = (a'*(b/g) - a*(b'/g)) / (b*(b/g)) for g = gcd(b, b'), reduced in characteristic 0."""
        a, b = self.num, self.den
        if b.degree <= 0:
            return RationalFunction._reduced(a.diff(), ONE)
        b1, db = _cancel(b, b.diff())
        return RationalFunction._reduced(a.diff() * b1 - a * db, b * b1)

    def __call__(self, point: Scalar) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def to_text(self, var: str = "x") -> str:
        if self.is_polynomial:
            return self.num.to_text(var)
        num = self.num.to_text(var)
        if self.num.degree > 0:
            num = f"({num})"
        return f"{num}/({self.den.to_text(var)})"

    def __str__(self) -> str:
        return self.to_text()


_ZERO_RF = RationalFunction._reduced(ZERO, ONE)


def _as_ratfn(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (Polynomial, int, Fraction)):
        return RationalFunction._reduced(_as_poly(value), ONE)
    return NotImplemented


def as_rational_function(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    out = _as_ratfn(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a rational function")
    return out


@dataclass(frozen=True)
class PartialFractions:
    """r = quotient + sum residue/(x - root) over distinct rational roots."""

    quotient: Polynomial
    terms: tuple[tuple[Fraction, Fraction], ...]  # (root, residue), sorted by root


@dataclass(frozen=True)
class IntegrationResult:
    """Antiderivative ``poly_part + sum residue*ln(x - root)``, constant fixed to 0."""

    poly_part: Polynomial
    log_terms: tuple[tuple[Fraction, Fraction], ...]


def _primes():
    """2, 3, 5, 7, ... without end, each tested by trial division."""
    n = 2
    while True:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def _horner(coeffs: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def _root_candidates(p: Polynomial) -> list[Fraction]:
    """A superset of the distinct rational roots of p, found by p-adic lifting.

    g is the square-free part of p, scaled to a primitive integer polynomial
    with leading coefficient l and constant term a_0 (nonzero: x is no factor
    of p).  A rational root u/v of g has u | a_0 and v | l, so l*u/v is an
    integer of absolute value at most |l*a_0|.  For the first prime q that
    does not divide l and at which every root of g mod q is simple, each root
    r mod q lifts by Newton's method to a unique root mod q^k; once
    q^k > 2|l*a_0|, the symmetric residue of l*r, divided by l, is the only
    rational root that r can be (Loos, SIAM J. Comput. 12, 1983).
    """
    common = poly_gcd(p, p.diff())
    g = p // common if common.degree > 0 else p
    ints = g.ints
    slopes = [k * c for k, c in enumerate(ints)][1:]
    lead = ints[-1]
    # Finitely many primes divide l or the discriminant of the square-free g,
    # so this loop ends.
    for q in _primes():
        if lead % q:
            residues = [r for r in range(q) if not _horner(ints, r, q)]
            if all(_horner(slopes, r, q) for r in residues):
                break
    bound = 2 * abs(lead * ints[0])
    candidates = []
    for r in residues:
        modulus = q
        while modulus <= bound:
            modulus *= modulus
            step = _horner(ints, r, modulus) * pow(_horner(slopes, r, modulus), -1, modulus)
            r = (r - step) % modulus
        s = lead * r % modulus
        candidates.append(Fraction(s - modulus if 2 * s > modulus else s, lead))
    return candidates


def rational_roots(p: Polynomial) -> tuple[list[Fraction], Polynomial]:
    """All rational roots with multiplicity, plus the root-free residual factor.

    Zero roots are stripped first and a linear residual gives its root
    directly.  Otherwise each candidate from ``_root_candidates`` is divided
    out while the division is exact; its first remainder is p at the
    candidate, so a candidate that is no root is rejected by exact arithmetic.
    """
    zeros = 0
    while zeros < p.degree and not p.ints[zeros]:
        zeros += 1
    roots = [Fraction(0)] * zeros
    current = Polynomial._raw(p.content, p.ints[zeros:])
    if current.degree == 1:
        a0, a1 = current.ints
        roots.append(Fraction(-a0, a1))
        current = Polynomial._raw(current.content * a1, (1,))
    elif current.degree > 1:
        for root in _root_candidates(current):
            quotient, remainder = divmod(current, linear(root))
            while remainder.is_zero:
                roots.append(root)
                current = quotient
                quotient, remainder = divmod(current, linear(root))
    return roots, current


def _named(label: str, p: Polynomial) -> str:
    """The label and p, or the label and p's degree once p takes over 80 characters."""
    text = str(p)
    return f"{label} {text}" if len(text) <= 80 else f"{label} of degree {p.degree}"


def partial_fractions(r: RationalFunction) -> PartialFractions:
    """Decompose into polynomial part plus simple poles at rational roots.

    Raises RepeatedPoleError if the denominator is not square-free and
    IrreducibleFactorError if it has a rationally irreducible non-linear
    factor; both mean the input is outside the integrable class.
    """
    quotient, remainder = divmod(r.num, r.den)
    if remainder.is_zero:
        return PartialFractions(quotient, ())
    den = r.den
    if poly_gcd(den, den.diff()).degree > 0:
        raise RepeatedPoleError(f"{_named('denominator', den)} has a repeated factor")
    roots, residual = rational_roots(den)
    if residual.degree > 0:
        raise IrreducibleFactorError(f"{_named('denominator factor', residual)} is irreducible over the rationals")
    dprime = den.diff()
    terms = tuple((root, remainder(root) / dprime(root)) for root in sorted(roots))
    return PartialFractions(quotient, terms)


def integrate_rational(r: RationalFunction) -> IntegrationResult:
    """Exact antiderivative of an integrable-class rational function."""
    parts = partial_fractions(r)
    return IntegrationResult(parts.quotient.integral(), parts.terms)


def _fmt_coeff(c: Fraction, latex: bool) -> str:
    if latex and c.denominator != 1:
        sign = "-" if c < 0 else ""
        return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return str(c)


def _render_poly(p: Polynomial, var: str, latex: bool) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            body = _fmt_coeff(abs(c), latex)
        else:
            if k == 1:
                power = var
            elif latex:
                power = f"{var}^{k}" if k < 10 else f"{var}^{{{k}}}"
            else:
                power = f"{var}^{k}"
            if abs(c) == 1:
                body = power
            elif latex:
                body = f"{_fmt_coeff(abs(c), latex)}{power}"
            else:
                body = f"{_fmt_coeff(abs(c), latex)}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
